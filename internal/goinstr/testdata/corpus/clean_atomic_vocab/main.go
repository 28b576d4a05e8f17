// Every publication goes through a different sync/atomic operation, and
// the reader spins on that atomic itself: each one orders its guarded
// value, whatever the operation and operand type.
package main

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

type config struct{ n int }

var (
	d1, d2, d3, d4, d5, d6, d7, d8, d9 int

	ready   atomic.Uint32
	handle  atomic.Uintptr
	swapped uint32
	gen     atomic.Uint64
	count   uintptr
	cfg     unsafe.Pointer
	val     atomic.Value
	ptr     atomic.Pointer[config]
	done    atomic.Bool
)

func wait(ok func() bool) {
	for !ok() {
		time.Sleep(time.Millisecond)
	}
}

func main() {
	go func() {
		d1 = 1
		ready.CompareAndSwap(0, 1)
		d2 = 2
		handle.Store(1)
		d3 = 3
		atomic.SwapUint32(&swapped, 1)
		d4 = 4
		gen.Swap(1)
		d5 = 5
		atomic.AddUintptr(&count, 1)
		d6 = 6
		atomic.StorePointer(&cfg, unsafe.Pointer(&config{n: 6}))
		d7 = 7
		val.CompareAndSwap(nil, "seven")
		d8 = 8
		ptr.Swap(&config{n: 8})
		d9 = 9
		done.Store(true)
	}()
	wait(func() bool { return ready.Load() == 1 })
	fmt.Println(d1)
	wait(func() bool { return handle.Load() == 1 })
	fmt.Println(d2)
	wait(func() bool { return atomic.LoadUint32(&swapped) == 1 })
	fmt.Println(d3)
	wait(func() bool { return gen.Load() == 1 })
	fmt.Println(d4)
	wait(func() bool { return atomic.LoadUintptr(&count) == 1 })
	fmt.Println(d5)
	wait(func() bool { return atomic.LoadPointer(&cfg) != nil })
	fmt.Println(d6)
	wait(func() bool { return val.Load() != nil })
	fmt.Println(d7)
	wait(func() bool { return ptr.Load() != nil })
	fmt.Println(d8)
	wait(func() bool { return done.CompareAndSwap(true, false) })
	fmt.Println(d9)
}
