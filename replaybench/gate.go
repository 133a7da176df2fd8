package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gathering"
	"repro/internal/trajectory"
)

// gatheringSet is a canonical gathering set: one "start-end:participators"
// line per closed gathering, sorted.
type gatheringSet []string

func setOf(gs [][]*gathering.Gathering) gatheringSet {
	var out gatheringSet
	for _, list := range gs {
		for _, g := range list {
			out = append(out, fmt.Sprintf("%d-%d:%v", g.Crowd.Start, g.Crowd.End(), g.Participators))
		}
	}
	sort.Strings(out)
	return out
}

func engineSet(res *engine.Result) gatheringSet { return setOf(res.Gatherings) }

// oracle runs batch core.Discover over the whole input: the answer every
// streamed replay must reproduce exactly.
func oracle(db *trajectory.DB) (gatheringSet, error) {
	cfg := pipelineConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	d, err := core.Discover(db, cfg)
	if err != nil {
		return nil, err
	}
	return setOf(d.Gatherings), nil
}

// gateError is a wrong answer, as opposed to a failed run.
type gateError struct{ msg string }

func (e *gateError) Error() string { return e.msg }

// check compares a replay's answer against the expected set.
func check(what string, got, want gatheringSet) error {
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return nil
	}
	return &gateError{fmt.Sprintf("gate: %s has %d gatherings, want %d; first difference: %s",
		what, len(got), len(want), firstDiff(got, want))}
}

func firstDiff(got, want gatheringSet) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return "missing " + want[i]
		case i >= len(want):
			return "extra " + got[i]
		case got[i] != want[i]:
			return fmt.Sprintf("got %s, want %s", got[i], want[i])
		}
	}
	return "none"
}
