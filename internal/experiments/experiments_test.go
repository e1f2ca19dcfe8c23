package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"clustersim/internal/engine"
)

// Small but non-trivial scale: big enough for the predictors to train and
// the paper's trends to emerge, small enough for CI.
func testOpts() Options {
	return Options{Insts: 30_000}
}

// fewBench trims to three representative benchmarks for the slowest
// experiments.
func fewBench() Options {
	o := testOpts()
	o.Benchmarks = []string{"gzip", "vpr", "mcf"}
	return o
}

func TestFigure2Shape(t *testing.T) {
	r, err := Figure2(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ave := r.Table.ColumnMeans()
	// Headline: idealized schedules stay close to monolithic, and the
	// penalty grows with cluster count.
	if ave[0] > 1.02 || ave[1] > 1.04 || ave[2] > 1.08 {
		t.Errorf("idealized averages too high: %v", ave)
	}
	if ave[0] > ave[2]+1e-9 {
		t.Errorf("idealized penalty should grow with clusters: %v", ave)
	}
	for i := 0; i < r.Table.Rows(); i++ {
		for c := 0; c < 3; c++ {
			if v := r.Table.Value(i, c); v < 0.999 {
				t.Errorf("%s col %d: clustered schedule beat monolithic (%v)",
					r.Table.Label(i), c, v)
			}
		}
	}
	if r.DyadicCrossFrac <= 0 || r.DyadicCrossFrac >= 1 {
		t.Errorf("dyadic share = %v", r.DyadicCrossFrac)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "AVE") {
		t.Error("render missing AVE row")
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ave := r.Table.ColumnMeans()
	// Focused steering loses noticeably more than the idealized study,
	// and more with more clusters (the paper's order-of-magnitude gap).
	if !(ave[0] < ave[1] && ave[1] < ave[2]) {
		t.Errorf("slowdown should grow with clusters: %v", ave)
	}
	if ave[2] < 1.05 {
		t.Errorf("8x1w focused slowdown implausibly small: %v", ave[2])
	}
	if ave[0] > 1.15 || ave[2] > 1.5 {
		t.Errorf("focused slowdowns implausibly large: %v", ave)
	}
}

func TestFigure5Conservation(t *testing.T) {
	opts := fewBench()
	r, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(opts.Benchmarks)*4 {
		t.Fatalf("expected %d rows, got %d", len(opts.Benchmarks)*4, len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Config == "1x8w" {
			// The monolithic bar must stack to exactly its own CPI = 1.0
			// after normalization (walk conservation).
			if math.Abs(row.Total()-1) > 0.02 {
				t.Errorf("%s monolithic bar totals %v, want 1.0", row.Bench, row.Total())
			}
			if row.FwdDelay != 0 {
				t.Errorf("%s monolithic bar has forwarding delay", row.Bench)
			}
		}
		if row.Total() < 0.9 || row.Total() > 2.5 {
			t.Errorf("%s/%s bar total %v implausible", row.Bench, row.Config, row.Total())
		}
	}
	// Figure 6 data must be populated for the clustered configs.
	for _, cfg := range []string{"2x4w", "4x2w", "8x1w"} {
		if len(r.ContCritical[cfg]) != len(opts.Benchmarks) {
			t.Errorf("missing contention data for %s", cfg)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	r.RenderFigure6(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

func TestFigure6ForwardingGrowsWithClusters(t *testing.T) {
	r, err := Figure5(fewBench())
	if err != nil {
		t.Fatal(err)
	}
	sum := func(cfg string) float64 {
		var s float64
		for _, v := range r.FwdLoadBal[cfg] {
			s += v
		}
		for _, v := range r.FwdDyadic[cfg] {
			s += v
		}
		return s
	}
	if !(sum("2x4w") <= sum("8x1w")) {
		t.Errorf("critical forwarding events should grow with clusters: %v vs %v",
			sum("2x4w"), sum("8x1w"))
	}
}

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bins) != 20 {
		t.Fatalf("bins = %d", len(r.Bins))
	}
	var total float64
	for _, v := range r.Bins {
		if v < 0 {
			t.Fatalf("negative bin: %v", r.Bins)
		}
		total += v
	}
	if math.Abs(total-100) > 1 {
		t.Errorf("bins total %v, want 100", total)
	}
	// The paper's distribution is wide: a big never-critical mass plus a
	// spread of intermediate levels.
	if r.NotCriticalShare < 20 || r.NotCriticalShare > 95 {
		t.Errorf("not-critical share = %v%%", r.NotCriticalShare)
	}
	nonZero := 0
	for _, v := range r.Bins {
		if v > 0.1 {
			nonZero++
		}
	}
	if nonZero < 4 {
		t.Errorf("LoC distribution not wide enough: %v", r.Bins)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fields") {
		t.Error("render missing threshold annotation")
	}
}

func TestFigure14PoliciesHelp(t *testing.T) {
	opts := testOpts()
	r, err := Figure14(opts)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(cfg string, s Stack) float64 {
		var sum float64
		vals := r.NormCPI[cfg][s]
		for _, v := range vals {
			sum += v
		}
		return sum / float64(len(vals))
	}
	// On the 8-cluster machine the full stack must beat the focused
	// baseline clearly.
	if !(mean("8x1w", StackProactive) < mean("8x1w", StackFocused)) {
		t.Errorf("8x1w: proactive (%v) not better than focused (%v)",
			mean("8x1w", StackProactive), mean("8x1w", StackFocused))
	}
	if r.PenaltyReduction("8x1w") < 0.10 {
		t.Errorf("8x1w penalty reduction = %v, want >= 10%%", r.PenaltyReduction("8x1w"))
	}
	// LoC scheduling halves contention-related critical cycles on 8x1w
	// (the Section 4 headline): allow a loose factor.
	contFocused := 0.0
	contLoC := 0.0
	for i := range r.Cont["8x1w"][StackFocused] {
		contFocused += r.Cont["8x1w"][StackFocused][i]
		contLoC += r.Cont["8x1w"][StackLoC][i]
	}
	if contLoC > contFocused*0.85 {
		t.Errorf("LoC scheduling cut critical contention only %v -> %v", contFocused, contLoC)
	}
	// Global communication stays moderate and grows with clusters
	// (Section 2.1 reports 0.12/0.20/0.25).
	gv2, gv8 := r.GlobalValuesPerInst["2x4w"], r.GlobalValuesPerInst["8x1w"]
	if !(gv2 < gv8) || gv8 > 0.6 || gv2 <= 0 {
		t.Errorf("global values per inst: 2x4w=%v 8x1w=%v", gv2, gv8)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "penalty reduction") {
		t.Error("render missing penalty summary")
	}
}

func TestFigure15Shape(t *testing.T) {
	r, err := Figure15(fewBench())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Available) == 0 {
		t.Fatal("no ILP buckets")
	}
	for i, a := range r.Available {
		if r.Achieved[i] > 8.0001 {
			t.Errorf("achieved ILP %v > machine width", r.Achieved[i])
		}
		if float64(a) < r.Achieved[i]-1e-9 && a <= 8 {
			t.Errorf("achieved %v exceeds available %d", r.Achieved[i], a)
		}
	}
	// Low available ILP is extracted nearly fully; high available ILP
	// saturates near the width.
	if low := r.AchievedAt(1); low < 0.5 {
		t.Errorf("achieved at available=1 is %v", low)
	}
	var shareSum float64
	for _, s := range r.CycleShare {
		shareSum += s
	}
	if math.Abs(shareSum-1) > 0.01 {
		t.Errorf("cycle shares sum to %v", shareSum)
	}
}

func TestLoCOracleOrdering(t *testing.T) {
	r, err := LoCOracle(fewBench())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{PriOracle, PriLoC16, PriLoCUnlimited, PriBinary} {
		l := r.Loss[name]
		if len(l) != 3 {
			t.Fatalf("%s: %v", name, l)
		}
		for _, v := range l {
			if v < -0.001 || v > 0.5 {
				t.Errorf("%s loss %v implausible", name, v)
			}
		}
	}
	// Section 4's ordering on the narrowest machine: oracle <= LoC <=
	// binary (allow small tolerance for greedy-scheduler noise).
	o, l16, bin := r.Loss[PriOracle][2], r.Loss[PriLoC16][2], r.Loss[PriBinary][2]
	if o > l16+0.02 {
		t.Errorf("oracle (%v) should not lose to LoC16 (%v)", o, l16)
	}
	if l16 > bin+0.02 {
		t.Errorf("LoC16 (%v) should not lose to binary (%v)", l16, bin)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "oracle") {
		t.Error("render missing rows")
	}
}

func TestConsumersShape(t *testing.T) {
	r, err := Consumers(fewBench())
	if err != nil {
		t.Fatal(err)
	}
	if r.MCCNotFirst < 0 || r.MCCNotFirst > 1 ||
		r.StaticallyUnique <= 0 || r.StaticallyUnique > 1 ||
		r.Bimodal <= 0 || r.Bimodal > 1 {
		t.Errorf("consumer stats out of range: %+v", r)
	}
	// Section 6: a large share of static consumers behave bimodally and
	// most values have a statically-unique most critical consumer.
	if r.StaticallyUnique < 0.5 {
		t.Errorf("statically-unique fraction %v, want >= 0.5", r.StaticallyUnique)
	}
	if r.Bimodal < 0.5 {
		t.Errorf("bimodal fraction %v, want >= 0.5", r.Bimodal)
	}
}

func TestAttributeFigure2(t *testing.T) {
	r, err := AttributeFigure2(fewBench())
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.Rows() != 4 { // 3 benchmarks + AVE
		t.Fatalf("rows = %d", r.Table.Rows())
	}
}

func TestConfigTableRenders(t *testing.T) {
	var buf bytes.Buffer
	ConfigTable(&buf)
	for _, want := range []string{"1x8w", "2x4w", "4x2w", "8x1w", "gshare"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("config table missing %q", want)
		}
	}
}

func TestUnknownBenchmarkPropagates(t *testing.T) {
	opts := Options{Benchmarks: []string{"nope"}, Insts: 1000}
	if _, err := Figure2(opts); err == nil {
		t.Error("Figure2 accepted unknown benchmark")
	}
	if _, err := Figure4(opts); err == nil {
		t.Error("Figure4 accepted unknown benchmark")
	}
	if _, err := sim(opts.withDefaults(), "vpr", 4, Stack("bogus"), false, engine.NeedResult); err == nil {
		t.Error("sim accepted unknown stack")
	}
}
