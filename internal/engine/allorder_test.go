package engine_test

import (
	"bytes"
	"io"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
)

type renderer interface{ Render(w io.Writer) }

// allOrder is the subset of `clustersim all` that simulates analysis and
// harvest keys, in the order `all` runs it: Figure 2 and replication
// harvest, Figures 5 and 14, icost and slack analyze, and the
// schedule-consuming studies reuse the harvests.
var allOrder = []struct {
	name string
	run  func(experiments.Options) (renderer, error)
}{
	{"fig2", func(o experiments.Options) (renderer, error) { return experiments.Figure2(o) }},
	{"fig5", func(o experiments.Options) (renderer, error) { return experiments.Figure5(o) }},
	{"fig14", func(o experiments.Options) (renderer, error) { return experiments.Figure14(o) }},
	{"loc-oracle", func(o experiments.Options) (renderer, error) { return experiments.LoCOracle(o) }},
	{"fwd-sweep", func(o experiments.Options) (renderer, error) { return experiments.FwdSweep(o) }},
	{"slack", func(o experiments.Options) (renderer, error) { return experiments.SlackStudy(o) }},
	{"replication", func(o experiments.Options) (renderer, error) { return experiments.Replication(o) }},
	{"icost", func(o experiments.Options) (renderer, error) { return experiments.ICost(o) }},
}

func allOrderOpts(eng *engine.Engine) experiments.Options {
	return experiments.Options{
		Insts:      6_000,
		Benchmarks: []string{"gzip", "vpr", "mcf"},
		Engine:     eng,
	}
}

func render(t *testing.T, name string, run func(experiments.Options) (renderer, error), eng *engine.Engine) string {
	t.Helper()
	r, err := run(allOrderOpts(eng))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.String()
}

// TestAllOrderSimulatesEachKeyOnceAndHoldsNoMachines runs the analysis
// and harvest drivers on one cold engine with an unlimited memory
// budget. Analyses and harvests recycle their machines, so nothing is
// ever demoted or re-simulated: every distinct SimKey simulates exactly
// once (in particular nothing re-simulates across fig5 → slack → icost),
// the resident bytes are exactly the measured sizes of what the cache
// holds, and every figure renders as it does on its own serial engine.
func TestAllOrderSimulatesEachKeyOnceAndHoldsNoMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight drivers twice")
	}
	shared := engine.New(engine.Config{Workers: 4, MaxCacheBytes: -1})
	for _, d := range allOrder {
		got := render(t, d.name, d.run, shared)
		want := render(t, d.name, d.run, engine.New(engine.Config{Workers: 1}))
		if got != want {
			t.Errorf("%s: shared-engine output differs from a serial engine's:\n--- shared\n%s\n--- serial\n%s",
				d.name, got, want)
		}
	}
	s := shared.Summary()
	if keys := int64(shared.SimEntries()); s.SimMisses != keys {
		t.Errorf("%d simulations for %d distinct keys; every key must simulate once", s.SimMisses, keys)
	}
	if s.Evictions != 0 {
		t.Errorf("%d evictions under an unlimited budget", s.Evictions)
	}
	if m := shared.MeasuredBytes(); s.CacheBytes != m {
		t.Errorf("cache charges %d bytes, but its entries measure %d", s.CacheBytes, m)
	}
	if s.AnaJobs == 0 || s.SchedJobs == 0 {
		t.Errorf("analyses/schedule batches = %d/%d, want both exercised", s.AnaJobs, s.SchedJobs)
	}
	t.Logf("%d keys simulated once each, %d analyses, %d schedule batches, %.1f MiB resident",
		s.SimMisses, s.AnaJobs, s.SchedJobs, float64(s.CacheBytes)/(1<<20))
}
