package goinstr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// recordName is the file in a shadow module that records what the last
// vft-go run there found and made, so that a rerun into a kept module can
// skip the work whose inputs have not changed.
const recordName = "vft-kept.json"

// keptRecord is what recordName holds. Under the toolchain Toolchain
// names, the package Source names was emitted as the module whose build
// inputs Module names, with Stats and Main; it was type-checked against
// the export data Exports locates (import path → export file); and Bin is
// the stamp key (stampKey) of the vftbin go build linked from that module.
// Module and Bin name files by their stamps (see stamp), not by their
// bytes: vft-go wrote those files, and each file it writes gets a new
// stamp. Source and Bin are empty when no Instrument emitted the module or
// nothing linked it yet. A record is only written under a toolchain
// toolchainKey trusts.
type keptRecord struct {
	Toolchain string            `json:"toolchain"`
	Source    string            `json:"source"`
	Module    string            `json:"module"`
	Exports   map[string]string `json:"exports"`
	Stats     Stats             `json:"stats"`
	Main      bool              `json:"main"`
	Bin       string            `json:"bin"`
}

// readRecord returns modDir's record, or the zero record if there is none
// that parses.
func readRecord(modDir string) keptRecord {
	var rec keptRecord
	raw, err := os.ReadFile(filepath.Join(modDir, recordName))
	if err != nil || json.Unmarshal(raw, &rec) != nil {
		return keptRecord{}
	}
	return rec
}

// writeRecord replaces modDir's record with rec, through a temp file and a
// rename so that no reader sees half a record. A record without a
// toolchain or a module key would never be trusted and is not written; nor
// is one that fails to write, which is only a miss later.
func writeRecord(modDir string, rec keptRecord) {
	if rec.Toolchain == "" || rec.Module == "" {
		return
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return
	}
	f, err := os.CreateTemp(modDir, recordName+".*")
	if err != nil {
		return
	}
	_, err = f.Write(raw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(modDir, recordName))
	}
	if err != nil {
		os.Remove(f.Name())
	}
}

// recordedExports returns rec's export files if they may stand in for a
// `go list -export` of imports under toolchain: the record was made under
// it, and every import has a recorded export file that still exists. An
// export file is a build-cache entry named by the hash of its contents,
// so while it exists it holds what it held.
func recordedExports(rec keptRecord, toolchain string, imports []string) map[string]string {
	if toolchain == "" || rec.Toolchain != toolchain {
		return nil
	}
	for _, path := range imports {
		file, ok := rec.Exports[path]
		if !ok {
			return nil
		}
		if _, err := os.Stat(file); err != nil {
			return nil
		}
	}
	return rec.Exports
}

// toolchainKey is the SHA-256, in hex, of everything besides the module's
// own files that the go command's answers in the shadow module depend on,
// read without running it:
//
//   - the environment offlineEnv hands the go command, in order;
//   - the go binary exec resolves on PATH: its path, the file it resolves
//     to through symlinks, and that file's size, mode and modification
//     time;
//   - the VERSION file of the GOROOT it runs with (see goroot), which must
//     name a release: a devel GOROOT is a source tree that can change
//     without its version changing;
//   - the contents, or absence, of $GOROOT/go.env and of the user's go
//     env file, which hold the defaults the environment does not override;
//   - the C compiler the go command would use (see cCompiler) as resolved
//     on PATH, with its size, mode and modification time, or its absence:
//     without one on PATH, cgo is off by default.
//
// It is "" when any of that cannot be read or the toolchain is not a
// release: then no record is trusted or written.
func toolchainKey() string {
	h := sha256.New()
	for _, kv := range offlineEnv() {
		fmt.Fprintf(h, "env %q\n", kv)
	}
	goBin, resolved, err := lookPath("go")
	if err != nil || !hashStat(h, "go", goBin, resolved) {
		return ""
	}
	userEnv := userEnvFile()
	root := goroot(resolved, userEnv)
	if root == "" {
		return ""
	}
	version, err := os.ReadFile(filepath.Join(root, "VERSION"))
	if err != nil || !releaseVersion(string(version)) {
		return ""
	}
	fmt.Fprintf(h, "goroot %q\n%s\n", root, version)
	rootEnv := readOptional(filepath.Join(root, "go.env"))
	fmt.Fprintf(h, "go.env %q\nuser env %q\n", rootEnv, userEnv)
	if cc, resolved, err := lookPath(cCompiler(userEnv, rootEnv)); err != nil {
		fmt.Fprintf(h, "no C compiler\n")
	} else if !hashStat(h, "cc", cc, resolved) {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lookPath resolves name on PATH as exec does, and returns the path found
// and the file it names through symlinks.
func lookPath(name string) (found, resolved string, err error) {
	if found, err = exec.LookPath(name); err != nil {
		return "", "", err
	}
	resolved, err = filepath.EvalSymlinks(found)
	return found, resolved, err
}

// hashStat writes label, the path found on PATH, the file it resolves to
// and that file's size, mode and modification time to h, and reports
// whether it could stat the file.
func hashStat(h io.Writer, label, found, resolved string) bool {
	fi, err := os.Stat(resolved)
	if err != nil {
		return false
	}
	fmt.Fprintf(h, "%s %q %q %d %v %d\n", label, found, resolved, fi.Size(), fi.Mode(), fi.ModTime().UnixNano())
	return true
}

// readOptional returns the contents of the file at path, or "" if there is
// none that can be read; the go command skips such a file too.
func readOptional(path string) string {
	if path == "" {
		return ""
	}
	raw, _ := os.ReadFile(path)
	return string(raw)
}

// userEnvFile returns the contents of the go env file `go env -w` writes:
// $GOENV, or go/env under the user config directory.
func userEnvFile() string {
	file := os.Getenv("GOENV")
	if file == "off" {
		return ""
	}
	if file == "" {
		dir := userConfigDir()
		if dir == "" {
			return ""
		}
		file = filepath.Join(dir, "go", "env")
	}
	return readOptional(file)
}

// userConfigDir is os.UserConfigDir, or "" where that fails, spelled out:
// nothing else in the binaries that link goinstr beside the checker calls
// os.UserConfigDir, and the linker would place it ahead of the checker
// (see hashInputs).
func userConfigDir() string {
	switch runtime.GOOS {
	case "windows":
		return os.Getenv("AppData")
	case "darwin", "ios":
		if home := os.Getenv("HOME"); home != "" {
			return filepath.Join(home, "Library", "Application Support")
		}
		return ""
	}
	if dir := os.Getenv("XDG_CONFIG_HOME"); dir != "" {
		if !filepath.IsAbs(dir) {
			return ""
		}
		return dir
	}
	if home := os.Getenv("HOME"); home != "" {
		return filepath.Join(home, ".config")
	}
	return ""
}

// envFileValue returns the value an env file's KEY=VALUE line gives key,
// or "".
func envFileValue(contents, key string) string {
	for _, line := range strings.Split(contents, "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), key+"="); ok {
			return v
		}
	}
	return ""
}

// goroot returns the GOROOT the go binary at resolvedGo runs with, as the
// go command finds its own: $GOROOT (from the environment, else the user's
// env file), else the directory two or three levels above the binary that
// holds pkg/tool. It is "" when neither applies; the go command would then
// fall back on a directory compiled into it that cannot be read without
// running it.
func goroot(resolvedGo, userEnv string) string {
	if root := os.Getenv("GOROOT"); root != "" {
		return filepath.Clean(root)
	}
	if root := envFileValue(userEnv, "GOROOT"); root != "" {
		return filepath.Clean(root)
	}
	for _, up := range []string{"../..", "../../.."} {
		dir := filepath.Join(resolvedGo, up)
		if fi, err := os.Stat(filepath.Join(dir, "pkg", "tool")); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

// goVersion is the first line of the VERSION file of the GOROOT the go
// tool on PATH runs with, for diagnostics; "unknown" if there is none.
func goVersion() string {
	if _, resolved, err := lookPath("go"); err == nil {
		if root := goroot(resolved, userEnvFile()); root != "" {
			if version, err := os.ReadFile(filepath.Join(root, "VERSION")); err == nil {
				line, _, _ := strings.Cut(string(version), "\n")
				return line
			}
		}
	}
	return "unknown"
}

// releaseVersion reports whether a GOROOT's VERSION file names a release,
// go1.N….
func releaseVersion(version string) bool {
	rest, ok := strings.CutPrefix(version, "go1.")
	return ok && rest != "" && rest[0] >= '0' && rest[0] <= '9'
}

// cCompiler names the C compiler the go command uses: $CC from the
// environment, the user's env file or go.env, else the default of the
// platforms the go tool ships for, clang on the BSD-derived ones and gcc
// elsewhere. Only the command is returned, not its arguments.
func cCompiler(userEnv, rootEnv string) string {
	cc := os.Getenv("CC")
	for _, file := range []string{userEnv, rootEnv} {
		if cc == "" {
			cc = envFileValue(file, "CC")
		}
	}
	if f := strings.Fields(cc); len(f) > 0 {
		return f[0]
	}
	goos := os.Getenv("GOOS")
	if goos == "" {
		goos = runtime.GOOS
	}
	switch goos {
	case "darwin", "ios", "freebsd", "openbsd":
		return "clang"
	}
	return "gcc"
}

// sourceKey is the SHA-256, in hex, of what Instrument emits besides the
// toolchain's answers: the instrumenter (selfBuildID, which also names the
// shim sources it embeds), the options that change the rewrite, the
// package directory, and the name and content of every .go file directly
// in it. Those are all the files parse may take, whatever the
// build constraints say, so the key needs none evaluated. It is "" when
// the build ID or a file cannot be read.
func sourceKey(dir string, opts Options) string {
	id := selfBuildID()
	if id == "" {
		return ""
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "instrumenter %q elide %v tests %v dir %q\n", id, opts.Elide, opts.IncludeTests, abs)
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") {
			content, err := os.ReadFile(filepath.Join(abs, n))
			if err != nil {
				return ""
			}
			fmt.Fprintf(h, "\x00%s\x00%d\x00", n, len(content))
			h.Write(content)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// selfBuildID is the Go build ID of the running executable, or "" if it
// has none that can be read. It names the instrumenter: the same build ID
// means the same rewriter and the same embedded shim. The file is
// /proc/self/exe, which is the running file even if its path was replaced
// since; where there is none (outside Linux) no record is trusted. It is
// not os.Executable, which names whatever is at the path now, and which
// nothing else in vft-server calls: the linker would place it ahead of the
// checker (see hashInputs).
var selfBuildID = sync.OnceValue(func() string {
	f, err := os.Open("/proc/self/exe")
	if err != nil {
		return ""
	}
	defer f.Close()
	page := make([]byte, 4096)
	n, _ := io.ReadFull(f, page)
	return elfBuildID(page[:n])
})

// elfBuildID returns the Go build ID of the ELF file whose first bytes are
// head: the description of the note named "Go" of type 4 in a PT_NOTE
// segment that lies within head, where the Go linker puts it. It is "" for
// any other file, or an ELF file without that note.
func elfBuildID(head []byte) string {
	if len(head) < 64 || string(head[:4]) != "\x7fELF" {
		return ""
	}
	var bo binary.ByteOrder
	switch head[5] {
	case 1:
		bo = binary.LittleEndian
	case 2:
		bo = binary.BigEndian
	default:
		return ""
	}
	is64 := head[4] == 2
	var phoff, phentsize, phnum uint64
	if is64 {
		phoff, phentsize, phnum = bo.Uint64(head[32:]), uint64(bo.Uint16(head[54:])), uint64(bo.Uint16(head[56:]))
	} else {
		phoff, phentsize, phnum = uint64(bo.Uint32(head[28:])), uint64(bo.Uint16(head[42:])), uint64(bo.Uint16(head[44:]))
	}
	size, need := uint64(len(head)), uint64(20) // the bytes of a program header read below
	if is64 {
		need = 40
	}
	for i := uint64(0); i < phnum; i++ {
		ph := phoff + i*phentsize
		if ph > size || size-ph < need {
			return ""
		}
		const ptNote = 4
		if bo.Uint32(head[ph:]) != ptNote {
			continue
		}
		var off, n uint64
		if is64 {
			off, n = bo.Uint64(head[ph+8:]), bo.Uint64(head[ph+32:])
		} else {
			off, n = uint64(bo.Uint32(head[ph+4:])), uint64(bo.Uint32(head[ph+16:]))
		}
		if off > size || n > size-off {
			continue
		}
		for note := head[off : off+n]; len(note) >= 12; {
			namesz, descsz, typ := uint64(bo.Uint32(note)), uint64(bo.Uint32(note[4:])), bo.Uint32(note[8:])
			desc := 12 + (namesz+3)&^3
			end := desc + (descsz+3)&^3
			if end > uint64(len(note)) {
				break
			}
			const goBuildIDNote = 4
			if typ == goBuildIDNote && namesz == 4 && string(note[12:16]) == "Go\x00\x00" {
				return string(note[desc : desc+descsz])
			}
			note = note[end:]
		}
	}
	return ""
}

// buildInputs are the extensions of the files the go command reads from a
// module when it builds a package of it; go.mod and go.sum come on top.
var buildInputs = []string{".go", ".s", ".S", ".sx", ".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp", ".hxx", ".m", ".f", ".F", ".for", ".f90", ".syso", ".swig", ".swigcxx"}

// moduleKey is the SHA-256, in hex, of modDir's absolute path (under
// offlineEnv's -trimpath the binary no longer holds it, but a module that
// moved links afresh all the same), and of the stamp of every file under
// modDir it may read; or "" if a file cannot be stat'ed.
func moduleKey(modDir string) string {
	abs, err := filepath.Abs(modDir)
	if err != nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "module %q\n", abs)
	if hashInputs(h, abs, "") != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashInputs writes to h the stamp of each build input under dir, whose
// path relative to the module root is rel ("" for the root), in lexical
// order.
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
		if err := stamp(h, name, full); err != nil {
			return err
		}
	}
	return nil
}

// stampKey is the SHA-256, in hex, of the stamp of the file at path, or
// "" if it cannot be stat'ed.
func stampKey(path string) string {
	h := sha256.New()
	if stamp(h, filepath.Base(path), path) != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}
