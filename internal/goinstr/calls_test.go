package goinstr

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// atomicVocabProgram writes a main package that calls every exported
// function of the running toolchain's sync/atomic, and every method of
// each of its exported types (atomic.Pointer as Pointer[int]), with
// typed zero operands. An interface operand gets the untyped constant 1,
// which only the rewriter's conversion makes legal for the shim's
// wrappers. It returns the number of calls.
func atomicVocabProgram(t *testing.T) (dir string, calls int) {
	t.Helper()
	pkg, err := importer.ForCompiler(token.NewFileSet(), "gc", nil).Import("sync/atomic")
	if err != nil {
		t.Fatal(err)
	}
	qual := func(p *types.Package) string { return p.Name() }
	var body strings.Builder
	locals := 0
	local := func(typ types.Type) string {
		locals++
		fmt.Fprintf(&body, "\tvar v%d %s\n", locals, types.TypeString(typ, qual))
		return fmt.Sprintf("v%d", locals)
	}
	call := func(fn string, sig *types.Signature) {
		var args []string
		for i := 0; i < sig.Params().Len(); i++ {
			pt := sig.Params().At(i).Type()
			switch {
			case i == 0 && sig.Recv() == nil: // the location
				args = append(args, "&"+local(pt.(*types.Pointer).Elem()))
			case types.IsInterface(pt):
				args = append(args, "1")
			default:
				args = append(args, local(pt))
			}
		}
		lhs := ""
		if sig.Results().Len() > 0 {
			lhs = "_ = "
		}
		fmt.Fprintf(&body, "\t%s%s(%s)\n", lhs, fn, strings.Join(args, ", "))
		calls++
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				call("atomic."+name, obj.Type().(*types.Signature))
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			typ := obj.Type()
			if named := typ.(*types.Named); named.TypeParams().Len() > 0 {
				if typ, err = types.Instantiate(nil, named, []types.Type{types.Typ[types.Int]}, true); err != nil {
					t.Fatal(err)
				}
			}
			recv := local(typ)
			ms := types.NewMethodSet(types.NewPointer(typ))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					call(recv+"."+m.Name(), m.Type().(*types.Signature))
				}
			}
		}
	}
	src := "package main\n\nimport (\n\t\"sync/atomic\"\n\t\"unsafe\"\n)\n\nfunc main() {\n" + body.String() + "}\n"
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, calls
}

// TestAtomicVocabularyComplete: every sync/atomic function and method the
// running toolchain exports maps onto the shim — none is skipped, each is
// one instrumented site — and the rewritten program builds.
func TestAtomicVocabularyComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shadow module")
	}
	dir, calls := atomicVocabProgram(t)
	t.Logf("%d sync/atomic operations", calls)
	if calls < 66 {
		t.Fatalf("sync/atomic exports %d operations, want at least go1.22's 66", calls)
	}
	// The operands are goroutine-local, so elision leaves the calls as
	// the only instrumented sites.
	out := t.TempDir()
	inst, err := Instrument(dir, Options{Elide: true, OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if s := inst.Stats; s.Skipped != 0 || s.Sites-s.Elided != calls {
		src, _ := os.ReadFile(filepath.Join(out, "main.go"))
		t.Fatalf("%d sync/atomic calls: Stats = %+v, want %d instrumented sites and none skipped\n%s", calls, s, calls, src)
	}
	if _, err := Build(out); err != nil {
		t.Fatalf("the instrumented vocabulary does not build: %v", err)
	}
}

// TestUnmodelledSyncCallsAreSkipped: a method of a sync type the shim
// does not model leaves its call plain, and counts it as skipped so the
// degraded capture shows in the counters.
func TestUnmodelledSyncCallsAreSkipped(t *testing.T) {
	dir := writePkg(t, map[string]string{"main.go": `package main

import (
	"fmt"
	"sync"
	"time"
)

var data int

func main() {
	var m sync.Map
	go func() {
		data = 1
		m.Store("ready", true)
	}()
	for {
		if _, ok := m.Load("ready"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println(data)
}
`})
	inst, err := Instrument(dir, Options{Elide: true, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Stats.Skipped != 2 {
		t.Errorf("Skipped = %d, want 2 (sync.Map Store and Load)", inst.Stats.Skipped)
	}
}
