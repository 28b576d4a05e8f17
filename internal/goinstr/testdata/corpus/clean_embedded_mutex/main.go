// Locks reached through embedded fields: the methods promoted from an
// embedded sync.Mutex, *sync.RWMutex and atomic.Int32 guard the counters
// exactly as the named fields would.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

type counter struct {
	sync.Mutex
	n int
}

func (c *counter) inc() {
	c.Lock()
	c.n++
	c.Unlock()
}

type table struct {
	*sync.RWMutex
	rows map[int]int
}

type tickets struct{ atomic.Int32 }

func main() {
	var c counter
	t := table{RWMutex: new(sync.RWMutex), rows: map[int]int{}}
	var issued tickets
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Lock()
			c.n++
			c.Unlock()
			c.inc()
			t.Lock()
			t.rows[i%2]++
			t.Unlock()
			issued.Add(1)
		}(i)
	}
	wg.Wait()
	t.RLock()
	rows := len(t.rows)
	t.RUnlock()
	fmt.Println(c.n, rows, issued.Load())
}
