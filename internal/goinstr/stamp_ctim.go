//go:build linux || openbsd || dragonfly || solaris

package goinstr

import (
	"fmt"
	"io"
	"syscall"
)

// stamp writes to h the stamp of the file at full, whose slash-separated
// path relative to the module root is name: that path and the file's
// size, modification and change times in ns, inode and device. It stats
// the file through a symlink, as the go command reads it, with
// syscall.Stat: os.Stat's FileInfo would hold the same fields behind Sys,
// and a call of that method keeps every type's Sys in the binaries that
// link goinstr, ahead of the checker (see hashInputs). A write, a
// rename or a chmod changes the change time, and a rename or a new file
// the inode; the one edit a stamp misses is a rewrite in place to the same
// size within one filesystem timestamp tick of the write it replaces.
func stamp(h io.Writer, name, full string) error {
	var st syscall.Stat_t
	if err := syscall.Stat(full, &st); err != nil {
		return err
	}
	fmt.Fprintf(h, "\x00%s\x00%d %d %d %d %d\x00", name, st.Size, st.Mtim.Nano(), st.Ctim.Nano(), st.Ino, st.Dev)
	return nil
}
