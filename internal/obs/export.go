package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
)

// expvar integration. Publishing a registry under a name makes its live
// snapshot visible through the standard /debug/vars page; /metrics serves
// the same snapshot alone, indented, for tooling that wants the metrics
// without the rest of the expvar namespace.

var publishMu sync.Mutex

// Publish registers the registry with the expvar package under name.
// expvar panics on duplicate names, so Publish is idempotent per name:
// republishing rebinds the name to the new registry instead of panicking
// (tests and repeated bench passes re-publish freely).
func Publish(name string, r *Registry) {
	publishMu.Lock()
	defer publishMu.Unlock()
	v := expvar.Get(name)
	if rv, ok := v.(*registryVar); ok {
		rv.mu.Lock()
		rv.r = r
		rv.mu.Unlock()
		return
	}
	if v != nil {
		// The name is taken by a foreign expvar; leave it alone.
		return
	}
	expvar.Publish(name, &registryVar{r: r})
}

// registryVar adapts a Registry to expvar.Var, serializing the live
// snapshot on each String call.
type registryVar struct {
	mu sync.Mutex
	r  *Registry
}

func (v *registryVar) String() string {
	v.mu.Lock()
	r := v.r
	v.mu.Unlock()
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// HandleDebug registers the observability routes every server in this
// repository exposes on mux: /metrics serves r's snapshot as indented
// JSON, /debug/vars the expvar page, and /debug/pprof/ the net/http/pprof
// handlers. /metrics is safe to serve while instruments are being
// updated; sources must obey the RegisterSource contract (frozen or
// atomic).
func HandleDebug(mux *http.ServeMux, r *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Snapshot()); err != nil {
			http.Error(w, fmt.Sprintf("obs: encode: %v", err), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
}
