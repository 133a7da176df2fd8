package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolCleanOverRepo builds the gatherlint binary and drives it the
// way CI does — through go vet's -vettool protocol — over the whole
// module, asserting the tree is clean. This covers the unitchecker
// handshake (-V=full, -flags, per-package vet.cfg), fact propagation
// through vetx files, and every //lint:allow waiver carrying a reason.
func TestVettoolCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module and vets every package; skipped with -short")
	}
	if code, out := vet(t, buildTool(t), repoRoot, nil); code != 0 {
		t.Errorf("go vet -vettool=gatherlint ./... failed: exit %d\n%s", code, out)
	}
}

// repoRoot is the module root, relative to this package's directory.
const repoRoot = "../.."

// buildTool compiles the gatherlint binary into a test temp dir and
// returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "gatherlint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/gatherlint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gatherlint: %v\n%s", err, out)
	}
	return tool
}

// writeTree writes files of a throwaway module under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// vet runs `go vet [args] -vettool=tool ./...` in dir with env appended
// to the environment, returning the exit code and combined output.
func vet(t *testing.T, tool, dir string, env []string, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command("go", append(append([]string{"vet"}, args...), "-vettool="+tool, "./...")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		return 0, out.String()
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go vet %v: %v\n%s", args, err, out.String())
	}
	return exit.ExitCode(), out.String()
}

// TestVettoolFindsViolations checks the driver end to end on a
// throwaway two-package module: the immutable type is declared in imm
// and written in use, so the finding needs imm's //gather:immutable
// annotation to reach use through its .vetx fact file.
func TestVettoolFindsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gatherlint and runs go vet; skipped with -short")
	}
	tool := buildTool(t)

	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module lintprobe\n\ngo 1.22\n",
		"imm/imm.go": `package imm

//gather:immutable
type Shared struct{ N int }
`,
		"use/use.go": `package use

import "lintprobe/imm"

func Mutate(s *imm.Shared) { s.N = 1 }
`,
	})

	code, out := vet(t, tool, dir, nil)
	if code == 0 {
		t.Fatalf("go vet -vettool=gatherlint ./... exited 0, want a failure\n%s", out)
	}
	if !strings.Contains(out, "[sharedmut] write to field N of immutable lintprobe/imm.Shared") {
		t.Errorf("missing sharedmut diagnostic in output:\n%s", out)
	}
}

// TestVettoolBuildTags checks that build constraints reach the analysis
// the way they reach `go build`: a `//go:build probe` file whose code
// only typechecks against another probe-gated file is ignored without
// the tag, analysed (and its violation reported) with `go vet -tags
// probe`, and equally with `GOFLAGS=-tags=probe` from the environment.
func TestVettoolBuildTags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gatherlint and runs go vet; skipped with -short")
	}
	tool := buildTool(t)

	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module tagprobe\n\ngo 1.22\n",
		"imm/imm.go": `package imm

//gather:immutable
type Shared struct{ N int }
`,
		"use/use.go": `package use

import "tagprobe/imm"

// Read-only without the probe tag: nothing to report.
func Peek(s *imm.Shared) int { return s.N }
`,
		// The two probe files only typecheck together: a driver that
		// ignored build constraints would either fail on the dangling
		// probeVal reference or never see the violation.
		"use/probe.go": `//go:build probe

package use

import "tagprobe/imm"

func MutateProbe(s *imm.Shared) { s.N = probeVal }
`,
		"use/probeval.go": `//go:build probe

package use

var probeVal = 2
`,
	})

	if code, out := vet(t, tool, dir, nil); code != 0 {
		t.Errorf("without tags: exit %d, want 0 (probe files excluded)\n%s", code, out)
	}
	if code, out := vet(t, tool, dir, nil, "-tags", "probe"); code == 0 ||
		!strings.Contains(out, "[sharedmut]") {
		t.Errorf("-tags probe: exit %d, want a failure with a sharedmut finding\n%s", code, out)
	}
	if code, out := vet(t, tool, dir, []string{"GOFLAGS=-tags=probe"}); code == 0 ||
		!strings.Contains(out, "[sharedmut]") {
		t.Errorf("GOFLAGS=-tags=probe: exit %d, want a failure with a sharedmut finding\n%s", code, out)
	}
}

// TestPatternPrintsUsage checks that a package pattern is not a mode of
// its own: gatherlint runs only under go vet, so it prints usage and
// exits 1.
func TestPatternPrintsUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gatherlint; skipped with -short")
	}
	var out bytes.Buffer
	cmd := exec.Command(buildTool(t), "./...")
	cmd.Stderr = &out
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("gatherlint ./...: err = %v, want exit status 1", err)
	}
	if !strings.Contains(out.String(), "go vet [-tags list] -vettool=") {
		t.Errorf("missing usage text in output:\n%s", out.String())
	}
}
