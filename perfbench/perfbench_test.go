package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so summarize must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		value, pct float64
	}{
		{1000, 990, 99},
		{100, 90, 90},
		{20, 10, 50},
		{11, 1, 100.0 / 11},
		{10, 10, 0}, // too few: the maximum, with no percentile
		{1, 1, 0},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.Tail != c.value || math.Abs(d.TailP-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", c.n, d.Tail, d.TailP, c.value, c.pct)
		}
		if c.pct > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > d.Tail {
					beyond++
				}
			}
			if beyond != minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, minBeyond)
			}
		}
	}
	if d := summarize([]float64{3, 1, 2, 4}); d.Median != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", d.Median)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4) and
// (q3-q1)/statistics.median(data).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q      [3]float64
		spread float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}, 1.0},
		{[]float64{3.1, 2.7, 9.0}, [3]float64{2.7, 3.1, 9.0}, 2.032258064516129},
		{[]float64{5, 1}, [3]float64{0, 3, 6}, 2.0},
		{[]float64{0.8127, 0.8, 0.83, 0.79, 0.81, 0.85, 0.9}, [3]float64{0.8, 0.8127, 0.85}, 0.06152331733727075},
	}
	for _, c := range cases {
		q := quartiles(c.xs)
		for i := range q {
			if math.Abs(q[i]-c.q[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, q, c.q)
				break
			}
		}
		if s := spread(c.xs); math.Abs(s-c.spread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, s, c.spread)
		}
	}
}

const sampleStdout = "Table 1: machine configurations\n1x8w 8 4\n\n[config took 0.0s]\n\n" +
	"Figure 2: idealized list scheduling\ngzip 1.23 4.56\n\n[fig2 took 1.7s]\n\n"

func TestNormalizeStripsOnlyTookLines(t *testing.T) {
	got := string(normalizeOutput([]byte(sampleStdout)))
	want := "Table 1: machine configurations\n1x8w 8 4\n\n\nFigure 2: idealized list scheduling\ngzip 1.23 4.56\n\n\n"
	if got != want {
		t.Fatalf("normalized output:\n%q\nwant\n%q", got, want)
	}
	retimed := strings.Replace(sampleStdout, "took 1.7s", "took 12.3s", 1)
	if digest(normalizeOutput([]byte(retimed))) != digest([]byte(want)) {
		t.Error("a changed [took] line changed the digest")
	}
}

func TestGateCatchesOneFlippedByte(t *testing.T) {
	g, err := newGate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := digestKey("repro", 100, 7)
	want := digest(normalizeOutput([]byte(sampleStdout)))
	if err := g.check(key, want); err != nil {
		t.Fatalf("first sighting must record, got %v", err)
	}
	if err := g.check(key, want); err != nil {
		t.Fatalf("same output rejected: %v", err)
	}
	for i := range sampleStdout {
		b := []byte(sampleStdout)
		b[i] ^= 0x01
		if tookLine.Match([]byte(strings.TrimSpace(lineAt(sampleStdout, i)))) {
			continue // host-time lines are outside the gate by design
		}
		if g.check(key, digest(normalizeOutput(b))) == nil {
			t.Fatalf("flipping byte %d (%q) passed the gate", i, sampleStdout[i])
		}
	}

	// A key in the committed table is checked against it, not recorded.
	g.committed[digestKey("repro", 100, 8)] = want
	if err := g.check(digestKey("repro", 100, 8), digest([]byte("other"))); err == nil {
		t.Fatal("mismatch against a committed digest passed")
	}
	reopened, err := newGate(strings.TrimSuffix(g.localPath, "/digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	if reopened.local[key] != want {
		t.Fatal("recorded digest was not persisted")
	}
}

// lineAt returns the line of s containing byte i.
func lineAt(s string, i int) string {
	start := strings.LastIndexByte(s[:i], '\n') + 1
	end := strings.IndexByte(s[i:], '\n')
	if end < 0 {
		return s[start:]
	}
	return s[start : i+end]
}

func TestCompareRefusesOtherEnvironments(t *testing.T) {
	env := envStamp{Commit: "a", GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "x", Kernel: "6.1", CacheFS: "ext4"}
	a := result{Env: env, Workload: "repro-cold", Seconds: 20}
	b := a
	b.Env.Commit = "b"
	if err := comparable(a, b); err != nil {
		t.Fatalf("results differing only by commit refused: %v", err)
	}
	for _, mutate := range []func(*result){
		func(r *result) { r.Env.GOMAXPROCS = 4 },
		func(r *result) { r.Env.CPUModel = "y" },
		func(r *result) { r.Env.CacheFS = "tmpfs" },
		func(r *result) { r.Env.GoVersion = "go1.23.0" },
		func(r *result) { r.Workload = "repro-warm" },
		func(r *result) { r.Seconds = 10 },
	} {
		c := a
		mutate(&c)
		if comparable(a, c) == nil {
			t.Errorf("compared %+v with %+v", a, c)
		}
	}
}

func TestUncoveredShare(t *testing.T) {
	tr := &tracer{spans: []span{
		{Start: 0, End: 2}, {Start: 1, End: 3}, // overlapping: covers [0,3]
		{Start: 5, End: 6}, {Start: 5.5, End: 5.8}, // nested
		{Start: 9, End: 12}, // clipped to the interval
	}}
	if got := tr.uncovered(0, 10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("uncovered = %v, want 0.5", got)
	}
}

func TestParseSummary(t *testing.T) {
	stderr := `Engine summary (2 workers)
                hits disk-hits    misses  hit-rate
trace         348.00      0.00     12.00      0.97
sim           336.00      4.00    288.00      0.54
analysis       60.00      0.00    156.00      0.28
sched         108.00      0.00    300.00      0.26
sim jobs run: 252 (1.56 cpu-s, 1.84 Minst/s); traces generated: 12 (0.02 cpu-s); analyses run: 156 (0.62 cpu-s); schedule batches: 48 (0.78 cpu-s)
cache: 696 entries, 275.2 MiB resident, 7 evictions/demotions
replay: 1 workers/job, 0.20 cpu-s busy, 0 events elided, 0 memo groups (0 shared)
`
	e, err := parseSummary([]byte(stderr))
	if err != nil {
		t.Fatal(err)
	}
	want := engineBusy{SimJobs: 252, SimCPU: 1.56, MinstPerCPUs: 1.84, TraceJobs: 12, TraceCPU: 0.02,
		AnaJobs: 156, AnaCPU: 0.62, SchedJobs: 48, SchedCPU: 0.78, ReplayBusy: 0.2,
		SimHits: 336, SimDiskHits: 4, SimMisses: 288, AnaHits: 60, AnaMisses: 156,
		SchedHits: 108, SchedMisses: 300, Evictions: 7, ResidentMiB: 275.2}
	if e != want {
		t.Fatalf("parsed %+v\nwant   %+v", e, want)
	}
	if _, err := parseSummary([]byte("clustersim: boom\n")); err == nil {
		t.Fatal("stderr without a summary parsed")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a, b := schedule(3, 2e9), schedule(3, 2e9)
	c := schedule(4, 2e9)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths %d, %d", len(a), len(b))
	}
	repeats := 0
	for i := range a {
		if a[i].Due != b[i].Due || a[i].Spec.Key() != b[i].Spec.Key() {
			t.Fatalf("job %d differs between two schedules of one seed", i)
		}
		if a[i].Repeat {
			repeats++
		}
	}
	// Every seed gets the same amount of work: the step sizes and the
	// number of repeats are fixed, only times and choices vary.
	want := 0
	for step, r := range ladder {
		want += int(math.Round(r * stepShare[step] * 2))
	}
	if len(a) != want || len(c) != want {
		t.Errorf("schedules of %d and %d jobs, want %d", len(a), len(c), want)
	}
	if repeats != int(math.Round(repeatShare*float64(want))) {
		t.Errorf("%d repeats of %d jobs, want share %.1f", repeats, want, repeatShare)
	}
	if c[len(c)-1].Due == a[len(a)-1].Due {
		t.Error("another seed gave the same schedule")
	}
}

// The metrics the benchmark prints must be exactly those BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s), BENCHMARK.json has %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer(), spec.PerLayer)
}
