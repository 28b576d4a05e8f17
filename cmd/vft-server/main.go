// Command vft-server is the multi-tenant trace-ingestion service:
// detection as a service over the repository's streaming trace formats.
// Clients POST binary, gzip or text trace streams to
// /v1/traces?tenant=NAME&variant=vft-v2; each upload is validated,
// lowered and checked in bounded memory through the offline check path
// every other tool uses, and the resulting race reports — verbatim
// per upload, deduplicated and aggregated per tenant — are served as
// JSON from /v1/reports. Saturation answers 429 + Retry-After instead of
// growing queues, and SIGTERM drains: accepted uploads finish, new ones
// get 503, and -state persists every tenant's reports across a restart.
// See internal/ingest for the service semantics and internal/cli for the
// flags.
//
// Usage:
//
//	vft-server [-addr host:port] [-state file] [-max-inflight N] ...
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Server(os.Args[1:], os.Stdout, os.Stderr))
}
