// Input plumbing shared by the tools: every trace-consuming command
// accepts "-" for stdin and decodes gzip-compressed and binary-encoded
// traces transparently (sniffed from the stream head by trace.NewDecoder,
// so the behavior is extension-independent and works on pipes).
package cli

import (
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
