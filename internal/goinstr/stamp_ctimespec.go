//go:build darwin || freebsd || netbsd

package goinstr

import (
	"fmt"
	"io"
	"syscall"
)

// stamp is stamp_ctim.go's, under this platform's name for the change
// time.
func stamp(h io.Writer, name, full string) error {
	var st syscall.Stat_t
	if err := syscall.Stat(full, &st); err != nil {
		return err
	}
	fmt.Fprintf(h, "\x00%s\x00%d %d %d %d %d\x00", name, st.Size, st.Mtimespec.Nano(), st.Ctimespec.Nano(), st.Ino, st.Dev)
	return nil
}
