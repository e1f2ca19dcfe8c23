package experiments

import (
	"bytes"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/machine"
)

// renderOn runs one driver with opts and returns its rendered bytes.
func renderOn(t *testing.T, name string, run func(Options) (renderer, error), opts Options) string {
	t.Helper()
	r, err := run(opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.String()
}

// TestSweepsWarmFromDisk is the rerun contract for the ablation sweeps:
// rendered on an engine with a disk cache, then again by a fresh engine
// (a new process, as far as the cache can tell) over the same
// directory, every sweep must render the same bytes without simulating
// anything.
func TestSweepsWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	cold := engine.New(engine.Config{Workers: 2, CacheDir: dir})
	want := map[string]string{}
	for _, d := range sweepDrivers {
		want[d.name] = renderOn(t, d.name, d.run, determinismOpts(cold))
	}
	// Every run is an engine job, and each distinct run simulates once:
	// per benchmark the monolithic LoC baseline, 3 stall thresholds (the
	// default one doubling as the graph detector's run), 3 windows, 3
	// bypass limits, 3 table sizes, 2 steering circuits, 2 balancing
	// policies and the token detector.
	const runsPerBench = 1 + 3 + 3 + 3 + 3 + 2 + 2 + 1
	benches := int64(len(determinismOpts(nil).Benchmarks))
	if s := cold.Summary(); s.SimMisses != runsPerBench*benches {
		t.Errorf("cold engine simulated %d runs, want %d", s.SimMisses, runsPerBench*benches)
	}

	warm := engine.New(engine.Config{Workers: 2, CacheDir: dir})
	for _, d := range sweepDrivers {
		if got := renderOn(t, d.name, d.run, determinismOpts(warm)); got != want[d.name] {
			t.Errorf("%s: warm render differs:\n--- cold\n%s\n--- warm\n%s", d.name, want[d.name], got)
		}
	}
	if s := warm.Summary(); s.SimMisses != 0 || s.TraceMisses != 0 {
		t.Errorf("warm engine re-ran work: %d sim misses, %d trace misses", s.SimMisses, s.TraceMisses)
	}
}

// TestSweepEpochLen pins that the sweeps honour Options.EpochLen in
// every run they submit, not only in their baseline: a nonzero epoch
// reaches the variants' keys and changes their results, while spelling
// out the default epoch renders exactly what the zero value does.
func TestSweepEpochLen(t *testing.T) {
	opts := func(epoch int64) Options {
		o := determinismOpts(engine.New(engine.Config{Workers: 2}))
		o.EpochLen = epoch
		return o.withDefaults()
	}
	k := knob{locTag: "win-loc", window: 16}
	def, short := ablationKeys(opts(0), "gzip", StackStall, k), ablationKeys(opts(1000), "gzip", StackStall, k)
	if def[1] == short[1] || short[1].EpochLen != 1000 {
		t.Fatalf("EpochLen did not reach the variant key: %s vs %s", def[1], short[1])
	}
	a, err := simVariants(opts(0), def, engine.NeedResult)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simVariants(opts(1000), short, engine.NeedResult)
	if err != nil {
		t.Fatal(err)
	}
	if a[1].Res == b[1].Res {
		t.Errorf("EpochLen 1000 left the window-sweep variant's result unchanged: %+v", b[1].Res)
	}

	zero := renderOn(t, "window-sweep", func(o Options) (renderer, error) { return WindowSweep(o) }, opts(0))
	explicit := renderOn(t, "window-sweep", func(o Options) (renderer, error) { return WindowSweep(o) },
		opts(machine.DefaultEpochLen))
	if zero != explicit {
		t.Errorf("explicit default epoch renders differently:\n--- 0\n%s\n--- %d\n%s", zero, machine.DefaultEpochLen, explicit)
	}
}

// TestKnobKeys pins the knob encoding: it round-trips through the key,
// the default stall threshold is the plain stall-over-steer stack (one
// key, one simulation, shared with Figure 14), and malformed or
// contradictory knobs are refused rather than silently built.
func TestKnobKeys(t *testing.T) {
	for _, k := range []knob{
		{},
		{locTag: "win-loc", window: 16},
		{locTag: "bw-loc", bypass: 2},
		{locTag: "ps-loc", predBits: 6},
		{locTag: "gs-loc", group: true},
		{stall: 0.15},
		{locTag: "fw-loc", policy: "readybalance"},
		{locTag: "tok-loc", detector: "token"},
	} {
		got, err := parseKnob(k.String())
		if err != nil || got != k {
			t.Errorf("knob %+v: encoded %q, decoded %+v (%v)", k, k.String(), got, err)
		}
	}

	opts := Options{Benchmarks: []string{"gzip"}}.withDefaults()
	keys := ablationKeys(opts, "gzip", StackStall, knob{stall: 0.30})
	if plain := simKey(opts, "gzip", 8, StackStall, false); keys[1] != plain {
		t.Errorf("stall=0.30 key %s, want the plain stack key %s", keys[1], plain)
	}

	for _, bad := range []engine.SimKey{
		{Clusters: 8, Stack: string(StackStall), Knob: "window"},
		{Clusters: 8, Stack: string(StackStall), Knob: "colour=red"},
		{Clusters: 8, Stack: string(StackStall), Knob: "policy=oracle"},
		{Clusters: 8, Stack: string(StackProactive), Knob: "stall=0.5"},
		{Clusters: 8, Stack: string(StackFocused), Knob: "loc=win-loc"},
		{Clusters: 1, Stack: string(StackDepBased), Knob: "window=8"},
		{Clusters: 8, Stack: string(StackStall), Knob: "detector=token", TrackExact: true},
	} {
		if _, err := buildStack(bad); err == nil {
			t.Errorf("buildStack accepted %s", bad)
		}
	}
}
