// The twin of clean_atomic_vocab with the wrong flag: data is published
// through ready, but the reader reads it after loading started, which
// the writer set before writing data. Nothing orders the write before
// the read.
package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

var (
	data    int
	started atomic.Uintptr
	ready   atomic.Uint32
)

func main() {
	go func() {
		started.Store(1)
		data = 42
		ready.CompareAndSwap(0, 1)
	}()
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	v := data
	for ready.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Println(v)
}
