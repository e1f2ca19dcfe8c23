package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Insts: 4000, Benchmarks: []string{"vpr"}}
}

func TestRunAllExperimentNames(t *testing.T) {
	for _, exp := range []string{
		"config", "fig2", "fig2-attrib", "fig4", "fig5", "fig6", "fig8",
		"fig14", "fig14-detail", "fig15", "loc-oracle", "consumers", "fwd-sweep",
		"stall-sweep", "slack", "detector-compare", "window-sweep",
		"bandwidth-sweep", "replication", "icost", "group-steer", "predictor-sweep", "workloads", "future-work",
	} {
		if err := run(io.Discard, exp, tinyOpts()); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "nope", tinyOpts()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig6ReusesFig5Runs(t *testing.T) {
	opts := tinyOpts()
	opts.Engine = engine.New(engine.Config{})
	if err := run(io.Discard, "fig5", opts); err != nil {
		t.Fatal(err)
	}
	before := opts.Engine.Summary()
	if err := run(io.Discard, "fig6", opts); err != nil {
		t.Fatal(err)
	}
	after := opts.Engine.Summary()
	if after.SimMisses != before.SimMisses || after.AnaMisses != before.AnaMisses {
		t.Errorf("fig6 re-ran fig5's work: sim misses %d → %d, analysis misses %d → %d",
			before.SimMisses, after.SimMisses, before.AnaMisses, after.AnaMisses)
	}
}

// TestWarmAllRunsNothing: every artifact a figure reads reaches the disk
// cache, so a second process running `all` over the first one's cache
// directory simulates, analyzes and schedules nothing, and prints the
// same figures.
func TestWarmAllRunsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	dir := t.TempDir()
	runAll := func() (string, engine.Summary) {
		opts := experiments.Options{
			Insts:      3000,
			Benchmarks: []string{"gzip", "vpr", "mcf"},
			Engine:     engine.New(engine.Config{CacheDir: dir}),
		}
		var buf bytes.Buffer
		for _, exp := range allOrder {
			if err := run(&buf, exp, opts); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		}
		return buf.String(), opts.Engine.Summary()
	}
	cold, cs := runAll()
	if cs.SimMisses == 0 || cs.AnaJobs == 0 || cs.SchedJobs == 0 {
		t.Fatalf("cold run: %d sim misses, %d analyses, %d schedule batches; want all exercised",
			cs.SimMisses, cs.AnaJobs, cs.SchedJobs)
	}
	warm, ws := runAll()
	if ws.SimMisses != 0 || ws.SimJobs != 0 || ws.AnaJobs != 0 || ws.SchedJobs != 0 {
		t.Errorf("warm run: %d sim misses (%d jobs), %d analyses, %d schedule batches; want none",
			ws.SimMisses, ws.SimJobs, ws.AnaJobs, ws.SchedJobs)
	}
	if warm != cold {
		t.Errorf("warm run's figures differ from the cold run's:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
}

func TestWriteReport(t *testing.T) {
	path := t.TempDir() + "/report.md"
	if err := writeReport(path, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# clustersim results report", "Figure 14", "Figure 2", "ablation"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q", want)
		}
	}
}
