// Input plumbing shared by the tools: every trace-consuming command
// accepts "-" for stdin and decodes gzip-compressed and binary-encoded
// traces transparently (sniffed from the stream head by trace.NewDecoder,
// so the behavior is extension-independent and works on pipes).
package cli

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
)

// openInput resolves an input argument: "-" (or "") yields stdin with a
// no-op closer, anything else opens the named file.
func openInput(path string, stdin io.Reader) (io.Reader, func() error, error) {
	if path == "" || path == "-" {
		return stdin, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// maybeGzip wraps r in a gzip reader when the stream head carries the gzip
// magic, for inputs (like metric snapshots) that are not trace streams and
// so bypass trace.NewDecoder's sniffing.
func maybeGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		return gzip.NewReader(br)
	}
	return br, nil
}
