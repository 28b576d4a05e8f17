package reduction

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestReduciblePatterns(t *testing.T) {
	mk := func(movers ...Mover) Path {
		p := Path{Handler: "h", Name: "synthetic"}
		for _, m := range movers {
			p.Actions = append(p.Actions, Action{Mover: m, Desc: m.String()})
		}
		return p
	}
	good := []Path{
		mk(),              // empty
		mk(B, B, B),       // all both-movers
		mk(R, B, N, B, L), // canonical lock pattern
		mk(R, N, L),       //
		mk(B, R, R, B, N), // no post-phase
		mk(N),             // single atomic action
		mk(L, B),          // release first (phase 2 from the start)
		mk(R, B, L),       // no non-mover at all
		mk(B, N, L, L, B), //
	}
	for _, p := range good {
		if res := Reducible(p); !res.OK {
			t.Errorf("%v should be reducible: %s", p, res.Reason)
		}
	}
	bad := []Path{
		mk(N, N),          // two non-movers
		mk(N, R),          // right-mover after commit
		mk(R, N, B, R),    //
		mk(L, N),          // non-mover after a left-mover
		mk(R, L, N),       // L commits; N after
		mk(N, B, B, N, L), //
	}
	for _, p := range bad {
		if res := Reducible(p); res.OK {
			t.Errorf("%v should NOT be reducible", p)
		}
	}
}

func TestPureBlockCollapsesWhenPassedThrough(t *testing.T) {
	// An N inside a pure block is fatal on a fast path (ReturnsInPure)
	// only if it breaks the pattern; when the path continues past the
	// block, the block is equivalent to skipped and collapses to B.
	p := Path{
		Handler: "write", Name: "slow path through pure block",
		Actions: []Action{
			{Mover: N, Pure: true, Desc: "pure read"},
			{Mover: R, Desc: "acquire"},
			{Mover: N, Desc: "commit"},
			{Mover: L, Desc: "release"},
		},
	}
	if res := Reducible(p); !res.OK {
		t.Fatalf("pure block should collapse: %s", res.Reason)
	}
	// The same labels NOT marked pure are irreducible (N then R).
	p2 := p
	p2.Actions = append([]Action(nil), p.Actions...)
	p2.Actions[0].Pure = false
	if res := Reducible(p2); res.OK {
		t.Fatal("unmarked unlocked read before acquire must be rejected")
	}
	// And a fast path that returns inside the pure block keeps the label
	// but is fine as a lone N.
	p3 := Path{
		Handler: "write", Name: "fast path",
		ReturnsInPure: true,
		Actions: []Action{
			{Mover: B, Desc: "read epoch"},
			{Mover: N, Pure: true, Desc: "pure read, return"},
		},
	}
	if res := Reducible(p3); !res.OK {
		t.Fatalf("fast path: %s", res.Reason)
	}
}

// brokenPaths are deliberately non-serializable handler designs:
//
//   - a write handler whose same-epoch check is hoisted out of the lock
//     *without* the pure-block discipline (the naive optimization §5 warns
//     about): its slow path reads sx.W unlocked (N) and later writes sx.W
//     under the lock (N) — two non-movers;
//   - a read handler that acquires the lock again after its commit point.
var brokenPaths = []Path{
	{
		Handler: "write", Name: "naive unlocked check, no pure block",
		Actions: []Action{
			{Mover: B, Desc: "read st.V[t]"},
			{Mover: ClassifyW(false, false), Desc: "read sx.W (unlocked, NOT pure)"},
			{Mover: ClassifyLock(true), Desc: "acquire sx"},
			{Mover: ClassifyW(true, true), Desc: "write sx.W (locked)"},
			{Mover: ClassifyLock(false), Desc: "release sx"},
		},
	},
	{
		Handler: "read", Name: "lock re-acquired after commit",
		Actions: []Action{
			{Mover: ClassifyLock(true), Desc: "acquire sx"},
			{Mover: ClassifyR(true, true, false), Desc: "write sx.R (locked)"},
			{Mover: ClassifyLock(false), Desc: "release sx"},
			{Mover: ClassifyLock(true), Desc: "re-acquire sx"},
			{Mover: ClassifyLock(false), Desc: "release sx"},
		},
	},
}

// The checker must have teeth: the naive designs are rejected.
func TestBrokenDesignsAreRejected(t *testing.T) {
	bad := CheckAll(brokenPaths)
	if len(bad) != len(brokenPaths) {
		t.Fatalf("rejected %d of %d broken paths", len(bad), len(brokenPaths))
	}
	if !strings.Contains(bad[0].Reason, "right-mover after the commit point") {
		t.Errorf("unexpected reason: %s", bad[0].Reason)
	}
}

// The discipline encoding itself must reject accesses the discipline
// forbids.
func TestDisciplineViolationsPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"unlocked write to W", func() { ClassifyW(true, false) }},
		{"unlocked write to R", func() { ClassifyR(true, false, false) }},
		{"unlocked V access while unshared", func() { ClassifyVPointer(false, false, false) }},
		{"unlocked V write", func() { ClassifyVPointer(true, false, true) }},
		{"foreign entry write", func() { ClassifyVEntry(true, true, true, false) }},
		{"unlocked foreign entry read", func() { ClassifyVEntry(false, false, true, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			tc.f()
		})
	}
}

// taggedBuild is set by explore_test.go, which only a vftmc build
// compiles.
var taggedBuild bool

// explored holds the result of one child `go test -tags vftmc -run
// Explore`, shared by the tests below: each requires the tagged tests
// that carry its check to have passed.
var explored struct {
	once   sync.Once
	err    error
	out    string
	passed map[string]bool   // tagged test name -> passed
	logs   map[string]string // tagged test name -> its output
}

// requireExplored runs the tagged Explore tests once per binary and fails
// t unless every named tagged test passed. Only a vftmc build has the
// scheduling points the explorer drives, so the untagged build reaches
// the §6 check through this child process.
func requireExplored(t *testing.T, names ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs a vftmc test binary")
	}
	if taggedBuild {
		t.Skip("this is the vftmc build: its Explore tests run here directly")
	}
	explored.once.Do(runExplore)
	if explored.err != nil {
		t.Fatalf("go test -tags vftmc: %v\n%s", explored.err, explored.out)
	}
	for _, name := range names {
		log := strings.TrimSpace(explored.logs[name])
		if !explored.passed[name] {
			if log == "" {
				log = explored.out
			}
			t.Errorf("%s did not pass:\n%s", name, log)
			continue
		}
		if log != "" {
			t.Logf("%s:\n%s", name, log)
		}
	}
}

func runExplore() {
	// The tagged files are no input of this binary, so go test's result
	// cache would miss edits to them; reading them makes them inputs.
	for _, dir := range []string{".", "../core"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			explored.err = err
			return
		}
		for _, f := range files {
			if _, err := os.ReadFile(f); err != nil {
				explored.err = err
				return
			}
		}
	}
	// A failing tagged test makes the child exit non-zero; which tests that
	// concerns is read off the JSON events below.
	out, err := goCommand("test", "-tags", "vftmc", "-run", "Explore", "-count=1", "-json", ".").Output()
	explored.out = string(out)
	if ee, ok := err.(*exec.ExitError); ok {
		explored.out += string(ee.Stderr)
	} else if err != nil {
		explored.err = err
		return
	}
	explored.passed, explored.logs = map[string]bool{}, map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var ev struct{ Action, Test, Output string }
		if err := dec.Decode(&ev); err != nil {
			if err != io.EOF && explored.err == nil {
				explored.err = err
			}
			return
		}
		switch {
		case ev.Test == "":
		case ev.Action == "pass":
			explored.passed[ev.Test] = true
		case ev.Action == "output" && !strings.HasPrefix(strings.TrimSpace(ev.Output), "---") &&
			!strings.HasPrefix(ev.Output, "=== "):
			explored.logs[ev.Test] += ev.Output
		}
	}
}

// goCommand is a go subcommand limited to one CPU: it shares the machine
// with the other packages' tests, some of them timing-sensitive.
func goCommand(args ...string) *exec.Cmd {
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	return cmd
}

var variants = []string{"vft-v1", "vft-v1.5", "vft-v2"}

// TestModelCheckSerializability runs the §6 check on the real handlers:
// every interleaving of two and three core Read/Write calls is
// serializable, for v1, v1.5, v2 and FT-Mutex, and v2 with its slow-path
// lock dropped is caught.
func TestModelCheckSerializability(t *testing.T) {
	names := []string{"TestExploreFTMutex", "TestExploreDroppedLock"}
	for _, v := range variants {
		names = append(names, "TestExplore/"+v+"/serializable")
	}
	requireExplored(t, names...)
}

// TestModelCheckFunctionalCorrectness: every serial order of the real
// handlers' accesses fires the rule and leaves the state that Fig. 2's
// specification gives, for every scenario and variant.
func TestModelCheckFunctionalCorrectness(t *testing.T) {
	var names []string
	for _, v := range variants {
		names = append(names, "TestExplore/"+v+"/spec")
	}
	requireExplored(t, names...)
}

// TestScenarioCoverage: the 96 scenarios drive every variant's handlers
// through all 12 access rules.
func TestScenarioCoverage(t *testing.T) {
	var names []string
	for _, v := range variants {
		names = append(names, "TestExplore/"+v+"/coverage")
	}
	requireExplored(t, names...)
}

// TestV2HandlersAreSerializable: v2's interleaved outcomes are serial, and
// every action sequence its real handlers took reduces.
func TestV2HandlersAreSerializable(t *testing.T) {
	requireExplored(t, "TestExplore/vft-v2/serializable", "TestExplore/vft-v2/reducible")
}

// TestV1HandlersAreSerializable: the same for v1 and the v1.5 pure-block
// handlers built on it.
func TestV1HandlersAreSerializable(t *testing.T) {
	requireExplored(t,
		"TestExplore/vft-v1/serializable", "TestExplore/vft-v1/reducible",
		"TestExplore/vft-v1.5/serializable", "TestExplore/vft-v1.5/reducible")
}

// TestDefaultBuildHasNoHook: the default build's mcStep is empty and must
// inline away at every call, so no mcStep symbol survives the linker in a
// command that runs the handlers.
func TestDefaultBuildHasNoHook(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a command")
	}
	bin := filepath.Join(t.TempDir(), "vft-race")
	if out, err := goCommand("build", "-o", bin, "repro/cmd/vft-race").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command("go", "tool", "nm", bin).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool nm: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "core.(*V2).Read") {
		t.Fatal("nm lists no core.(*V2).Read: the check would prove nothing")
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "mcStep") {
			t.Errorf("default build keeps a hook: %s", line)
		}
	}
}
