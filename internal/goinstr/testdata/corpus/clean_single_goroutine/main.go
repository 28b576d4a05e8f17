// One goroutine touches every kind of object the shim traces — variables,
// struct fields, a map, a slice, a mutex, an RWMutex, an atomic, a Once,
// a WaitGroup and a buffered channel — so its capture has one schedule
// and is the same bytes on every run.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

type pair struct{ a, b int }

var (
	mu    sync.Mutex
	rw    sync.RWMutex
	once  sync.Once
	wg    sync.WaitGroup
	hits  atomic.Int64
	total int
	p     pair
	table = map[string]int{}
	buf   = make([]int, 4)
)

func main() {
	ch := make(chan int, 2)
	for i := 0; i < 3; i++ {
		mu.Lock()
		total += i
		mu.Unlock()
		rw.RLock()
		p.a = total
		rw.RUnlock()
		hits.Add(1)
		table["k"] = i
		buf[i] = i
		once.Do(func() { p.b = 1 })
		ch <- i
		<-ch
	}
	close(ch)
	_, ok := <-ch
	wg.Wait()
	fmt.Println(total, p, hits.Load(), table["k"], buf, ok)
}
