// Command pool is the vftgo-pool workload's program under test: a
// stdlib-only worker pool with the synchronization idioms vft-go models.
// Workers drain a closed job channel, move money between mutex-striped
// accounts, consult a read-shared rate table main filled before starting
// them, and keep goroutine-local scratch the may-share analysis can elide.
// Eight package-level variables are written by two sibling goroutines with
// no ordering between them: the planted races, the only ones in the program.
//
//	pool <jobs> <seed>
//
// It prints the account total (constant by construction) and the job count.
package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
)

const (
	workers  = 4
	stripes  = 16
	accounts = 256
	rates    = 64
	batch    = 256
)

type stripe struct {
	mu  sync.Mutex
	bal [accounts / stripes]int
}

var (
	bank  [stripes]stripe
	table [rates]int
	done  [workers]int

	planted0, planted1, planted2, planted3 int
	planted4, planted5, planted6, planted7 int
)

// plant performs this goroutine's half of the planted races: racer 0 and
// racer 1 both write every planted variable, ordered by nothing.
func plant(racer int) {
	planted0 = racer
	planted1 = racer
	planted2 = racer
	planted3 = racer
	planted4 = racer
	planted5 = racer
	planted6 = racer
	planted7 = racer
}

// step is a splitmix64 round: the job stream is a pure function of the seed.
func step(s uint64) uint64 {
	s += 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func worker(id int, jobs <-chan uint64, wg *sync.WaitGroup) {
	defer wg.Done()
	if id < 2 {
		plant(id)
	}
	var scratch [8]int
	n := 0
	for first := range jobs {
		j := first
		for k := 0; k < batch; k++ {
			j = step(j)
			from, to := int(j%accounts), int((j>>16)%accounts)
			amount := table[(j>>32)%rates]
			scratch[k%8] += amount
			src := &bank[from%stripes]
			src.mu.Lock()
			src.bal[from/stripes] -= amount
			src.mu.Unlock()
			dst := &bank[to%stripes]
			dst.mu.Lock()
			dst.bal[to/stripes] += amount
			dst.mu.Unlock()
			n++
		}
	}
	sum := 0
	for _, v := range scratch {
		sum += v
	}
	if sum < 0 {
		n = -n
	}
	done[id] = n
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: pool <jobs> <seed>")
		os.Exit(2)
	}
	jobs, err := strconv.Atoi(os.Args[1])
	if err != nil || jobs < 1 {
		fmt.Fprintln(os.Stderr, "pool: bad job count")
		os.Exit(2)
	}
	seed, err := strconv.ParseUint(os.Args[2], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pool: bad seed")
		os.Exit(2)
	}

	for i := range table {
		table[i] = 1 + int(step(seed+uint64(i))%97)
	}
	for s := range bank {
		for a := range bank[s].bal {
			bank[s].bal[a] = 1000
		}
	}

	queue := make(chan uint64, 64)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go worker(id, queue, &wg)
	}
	s := seed
	for sent := 0; sent < jobs; sent += batch {
		s = step(s)
		queue <- s
	}
	close(queue)
	wg.Wait()

	total, handled := 0, 0
	for s := range bank {
		for _, b := range bank[s].bal {
			total += b
		}
	}
	for _, n := range done {
		handled += n
	}
	fmt.Println("total", total, "jobs", handled)
}
