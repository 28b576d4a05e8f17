package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
)

// goBuild builds pkg (a package path resolved from the bench module, so
// the repo's cmd/ packages are reachable through the replace directive)
// into .bench_build/bin/<name>. With a warm cache this is the go tool's
// up-to-date check, a fraction of a second; it runs in every set-up so
// that work moved into the build shows in setup_s.
func (e *env) goBuild(name, pkg string, flags ...string) (string, error) {
	out := filepath.Join(e.build, "bin", name)
	args := append([]string{"build", "-o", out}, flags...)
	cmd := exec.Command("go", append(args, pkg)...)
	cmd.Dir = filepath.Join(e.root, "bench")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return out, nil
}
