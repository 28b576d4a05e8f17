//go:build !linux && !openbsd && !dragonfly && !solaris && !darwin && !freebsd && !netbsd

package goinstr

import (
	"fmt"
	"io"
	"os"
)

// stamp writes to h the file at full, whose slash-separated path relative
// to the module root is name, by content: that path, the length and the
// bytes. This platform's os.FileInfo carries no change time or inode to
// stamp the file by.
func stamp(h io.Writer, name, full string) error {
	content, err := os.ReadFile(full)
	if err != nil {
		return err
	}
	fmt.Fprintf(h, "\x00%s\x00%d\x00", name, len(content))
	h.Write(content)
	return nil
}
