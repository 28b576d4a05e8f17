// The twin of clean_embedded_mutex with the lock left out of one
// goroutine: the promoted Lock guards only the first increment, so the
// second one races with it.
package main

import (
	"fmt"
	"sync"
)

type counter struct {
	sync.Mutex
	n int
}

func main() {
	var c counter
	done := make(chan bool)
	go func() {
		c.Lock()
		c.n++
		c.Unlock()
		done <- true
	}()
	go func() {
		c.n++
		done <- true
	}()
	<-done
	<-done
	fmt.Println(c.n)
}
