package goinstr

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"

	"repro/internal/goinstr/rt"
)

// offlineEnv is the environment for building the shadow module: module
// mode with the network off — the shadow module has no requirements, so
// nothing needs resolving — and no version-control stamp, which would
// describe whatever repository encloses the shadow module and relink the
// binary whenever that repository's state changed.
func offlineEnv() []string {
	return append(os.Environ(),
		"GOPROXY=off",
		"GOFLAGS=-mod=mod -buildvcs=false",
		"GO111MODULE=on",
		"GOWORK=off",
	)
}

// buildRecordName is the file in the shadow module that records the last
// link there: what the binary was built from, and the binary.
const buildRecordName = "vft-build.json"

// buildRecord is what buildRecordName holds.
type buildRecord struct {
	Key string `json:"key"` // buildKey of the module the binary was linked from
	Bin string `json:"bin"` // SHA-256 of the binary as it was linked
}

// Build compiles the shadow module in shadowDir and returns the binary
// path. Build errors carry the compiler output: a build failure of
// rewritten code is a rewriter bug, and the output is the diagnostic.
//
// A kept module records each link, and Build runs no go build while the
// record holds: the toolchain is a release, buildKey is the recorded key,
// and the binary hashes to the recorded hash. That is sound because the
// binary is a function of exactly what the key covers — the toolchain and
// configuration go env reports, under offlineEnv's fixed flags, and every
// file the go command reads in the module — and the hash shows the binary
// is the one that link wrote. Go env cannot show an in-place edit of a
// release GOROOT (as for Load's record), nor a change to the go tool
// between Load and Build in one process, which share one go env. Anything
// else is a miss: Build links again and replaces the record.
func Build(shadowDir string) (string, error) {
	bin := filepath.Join(shadowDir, "vftbin")
	key := ""
	if env, err := goEnv(shadowDir); err == nil && releaseToolchain(env) {
		key = buildKey(shadowDir, env)
	}
	if key != "" {
		if rec := readBuildRecord(shadowDir); rec.Key == key && rec.Bin != "" && rec.Bin == fileHash(bin) {
			return bin, nil
		}
	}
	// go build leaves an existing binary alone when the build ID in it is
	// current, even if the rest of the file is damaged: link afresh.
	os.Remove(bin)
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = shadowDir
	cmd.Env = offlineEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("goinstr: go build: %v\n%s", err, out)
	}
	if key != "" {
		if sum := fileHash(bin); sum != "" {
			replaceJSON(shadowDir, buildRecordName, buildRecord{Key: key, Bin: sum})
		}
	}
	return bin, nil
}

// buildInputs are the extensions of the files the go command reads from a
// module when it builds a package of it; go.mod and go.sum come on top.
var buildInputs = []string{".go", ".s", ".S", ".sx", ".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp", ".hxx", ".m", ".f", ".F", ".for", ".f90", ".syso", ".swig", ".swigcxx"}

// buildKey is the SHA-256, in hex, of env and of every file under modDir
// the go command may read — each hashed with its path relative to modDir
// and its content — or "" if a file cannot be read.
func buildKey(modDir string, env map[string]string) string {
	h := sha256.New()
	raw, err := json.Marshal(env) // map keys marshal sorted
	if err != nil {
		return ""
	}
	h.Write(raw)
	if hashInputs(h, modDir, "") != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashInputs writes to h each build input under dir, whose path relative
// to the module root is rel ("" for the root): its slash-separated
// relative path, its length and its content, in lexical order.
//
// It recurses over os.ReadDir rather than using filepath.WalkDir and
// filepath.Rel. Nothing else in the binaries that link goinstr beside the
// checker (vft-server, bench) calls those two. The linker would place
// them ahead of the whole repo in the text segment, and every checker
// function would move to a new cache-line offset. On offline-syncdense
// that shift made the same checker code 10–15% slower (EXPERIMENTS E38).
func hashInputs(h io.Writer, dir, rel string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := path.Join(rel, e.Name())
		full := filepath.Join(dir, e.Name())
		if e.IsDir() {
			if err := hashInputs(h, full, name); err != nil {
				return err
			}
			continue
		}
		if name != "go.mod" && name != "go.sum" && !slices.Contains(buildInputs, filepath.Ext(name)) {
			continue
		}
		content, err := os.ReadFile(full)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "\x00%s\x00%d\x00", name, len(content))
		h.Write(content)
	}
	return nil
}

// fileHash is the SHA-256, in hex, of the file at path, or "" if it
// cannot be read.
func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readBuildRecord returns modDir's build record, or the zero record if
// there is none that parses.
func readBuildRecord(modDir string) buildRecord {
	var rec buildRecord
	raw, err := os.ReadFile(filepath.Join(modDir, buildRecordName))
	if err != nil || json.Unmarshal(raw, &rec) != nil {
		return buildRecord{}
	}
	return rec
}

// Run executes the instrumented binary with trace capture enabled,
// returning the meta sidecar path. The program's own output flows to the
// given writers.
func Run(bin, tracePath string, args []string, stdout, stderr io.Writer) (string, error) {
	metaPath := tracePath + ".meta.json"
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.Env = append(os.Environ(),
		rt.EnvTrace+"="+tracePath,
		rt.EnvMeta+"="+metaPath,
	)
	if err := cmd.Run(); err != nil {
		return metaPath, fmt.Errorf("goinstr: running %s: %w", filepath.Base(bin), err)
	}
	return metaPath, nil
}

// RunTests runs `go test` inside the shadow module with capture enabled
// (the injected TestMain flushes the trace after m.Run).
func RunTests(shadowDir, tracePath string, args []string, stdout, stderr io.Writer) (string, error) {
	metaPath := tracePath + ".meta.json"
	cmd := exec.Command("go", append([]string{"test"}, args...)...)
	cmd.Dir = shadowDir
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.Env = append(offlineEnv(),
		rt.EnvTrace+"="+tracePath,
		rt.EnvMeta+"="+metaPath,
	)
	if err := cmd.Run(); err != nil {
		return metaPath, fmt.Errorf("goinstr: go test: %w", err)
	}
	return metaPath, nil
}
