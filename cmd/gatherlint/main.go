// Command gatherlint is the repo's invariant checker: a multichecker
// carrying the seven analyzers that keep gathering discovery correct
// under sharing — sharedmut, detachcheck, lockcheck, lockorder,
// leakcheck, hotalloc and racecheck (see docs/INVARIANTS.md).
//
// It runs only as a go vet tool:
//
//	go vet -vettool=$(pwd)/bin/gatherlint ./...
//
// go vet drives it once per package with a vet.cfg describing the
// type-checked unit (export data of every dependency included), and
// //gather:* annotations plus per-function summary facts (locks
// acquired, calls made while holding them, field accesses with their
// must-hold sets, allocation sites, goroutine termination,
// attached-crowd flow) travel between packages as fact files. Package
// loading, build tags (-tags, GOFLAGS) and test variants are go vet's.
// The tool is built on the standard library alone: the x/tools
// unitchecker is not a dependency, so its protocol is reimplemented in
// vetcfg.go.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics found.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/detachcheck"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/leakcheck"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/racecheck"
	"repro/internal/analysis/sharedmut"
)

// analyzers is the gatherlint suite.
var analyzers = []*framework.Analyzer{
	sharedmut.Analyzer,
	detachcheck.Analyzer,
	lockcheck.Analyzer,
	lockorder.Analyzer,
	leakcheck.Analyzer,
	hotalloc.Analyzer,
	racecheck.Analyzer,
}

func main() {
	arg := ""
	if len(os.Args) > 1 {
		arg = os.Args[1]
	}
	switch {
	case strings.HasPrefix(arg, "-V"):
		// go vet fingerprints the tool for its action cache.
		printVersion()
	case arg == "-flags":
		// go vet probes for tool-specific flags; gatherlint has none.
		fmt.Println("[]")
	case arg == "help" || arg == "-h" || arg == "--help":
		usage()
	case strings.HasSuffix(arg, ".cfg"):
		// One vet.cfg per package, exit 2 on findings.
		os.Exit(runVetCfg(arg))
	default:
		// No argument, or a package pattern: go vet is the only driver.
		usage()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `gatherlint enforces the gathering engine's sharing, locking and
hot-path invariants:

`)
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, `
usage:
  go vet [-tags list] -vettool=/path/to/gatherlint ./...

Findings are suppressed line-by-line with
  //lint:allow <analyzer> <reason why this is safe>
`)
}
