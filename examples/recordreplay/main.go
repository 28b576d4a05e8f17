// Recordreplay: capture the exact event stream of a live concurrent run
// with a Recorder (teed behind the online detector), write it in the
// vft-race text format, and re-analyze it offline — detector replay,
// happens-before oracle, and a witness-chain explanation for each
// conflicting pair. This is the online→offline loop the differential test
// suite is built on, as a user-facing tool.
//
// Run with:
//
//	go run ./examples/recordreplay
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/rtsim"
	"repro/internal/trace"
)

func main() {
	// Live run: the online detector and a recorder see the same stream.
	online := core.NewV2(core.Config{})
	recorder := core.NewRecorder()
	rt := rtsim.New(core.NewTee(online, recorder))
	main := rt.Main()

	account := rt.NewVar()
	audit := rt.NewVar()
	mu := rt.NewMutex()

	teller := main.Go(func(w *rtsim.Thread) {
		for i := 0; i < 3; i++ {
			mu.Lock(w)
			account.Add(w, 100)
			mu.Unlock(w)
			audit.Add(w, 1) // BUG: audit log updated outside the lock
		}
	})
	for i := 0; i < 3; i++ {
		mu.Lock(main)
		account.Add(main, -40)
		mu.Unlock(main)
		audit.Add(main, 1) // races with the teller's audit update
	}
	main.Join(teller)

	fmt.Printf("live run: %d reports\n", len(online.Reports()))
	for _, r := range online.Reports()[:min(2, len(online.Reports()))] {
		fmt.Println("  ", r)
	}

	// The recording is a feasible trace in the standard text format.
	tr := recorder.Trace()
	if err := trace.Validate(tr); err != nil {
		log.Fatalf("recorded trace infeasible: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecorded %d events; first lines of the portable trace file:\n", len(tr))
	lines := bytes.SplitN(buf.Bytes(), []byte("\n"), 6)
	for _, l := range lines[:5] {
		fmt.Printf("  %s\n", l)
	}

	// Offline replay: a fresh detector and the ground-truth oracle agree
	// with the live verdict.
	replay := core.NewV2(core.Config{})
	core.Replay(replay, tr)
	oracle := hb.Analyze(tr)
	fmt.Printf("\noffline replay: %d reports; oracle: %d racy pairs\n",
		len(replay.Reports()), len(oracle.Races))

	// And the explanation: why the account is safe and the audit log not.
	g := hb.BuildExplainedGraph(tr)
	var shownOrdered, shownRace bool
	for _, v := range g.ExplainConflicts() {
		if v.Ordered && !shownOrdered {
			shownOrdered = true
			fmt.Println("\nan ordered pair (the lock does its job):")
			fmt.Println(g.Format(v))
		}
		if !v.Ordered && !shownRace {
			shownRace = true
			fmt.Println("\na racy pair (the audit counter):")
			fmt.Println(g.Format(v))
		}
		if shownOrdered && shownRace {
			break
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
