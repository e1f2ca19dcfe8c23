package critpath_test

import (
	"fmt"
	"slices"
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/isa"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
	"clustersim/internal/xrand"
)

func TestSlackChainIsZero(t *testing.T) {
	// Every link of a pure dependent chain has zero slack: delaying any
	// completion delays the end.
	insts := make([]isa.Inst, 200)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(0x100 + 4*(i%8)), Op: isa.IntALU,
			Dst: 1, Src: [2]isa.Reg{1, isa.NoReg}}
	}
	insts[0].Src[0] = isa.NoReg
	tr := trace.Rebuild(insts)
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, s := range slack[:190] { // the last few are commit-edge bounded
		if s == 0 {
			zero++
		}
	}
	if zero < 185 {
		t.Fatalf("only %d/190 chain links have zero slack", zero)
	}
}

func TestSlackParallelWorkIsLoose(t *testing.T) {
	// One long chain plus independent one-off instructions: the chain
	// has zero slack, the independents have lots.
	var insts []isa.Inst
	for i := 0; i < 150; i++ {
		insts = append(insts, isa.Inst{PC: 0x100, Op: isa.IntALU, Dst: 1,
			Src: [2]isa.Reg{1, isa.NoReg}})
		insts = append(insts, isa.Inst{PC: 0x200, Op: isa.IntALU,
			Dst: isa.Reg(2 + i%40), Src: [2]isa.Reg{isa.NoReg, isa.NoReg}})
	}
	insts[0].Src[0] = isa.NoReg
	tr := trace.Rebuild(insts)
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	var chainSum, looseSum, chainN, looseN int64
	for i := 0; i < len(slack)-20; i++ {
		if tr.Insts[i].PC == 0x100 {
			chainSum += slack[i]
			chainN++
		} else {
			looseSum += slack[i]
			looseN++
		}
	}
	if chainN == 0 || looseN == 0 {
		t.Fatal("bad test setup")
	}
	if chainSum/chainN >= looseSum/looseN {
		t.Fatalf("chain slack %d not below independent slack %d",
			chainSum/chainN, looseSum/looseN)
	}
	if looseSum/looseN < 5 {
		t.Fatalf("independent instructions have implausibly little slack: %d", looseSum/looseN)
	}
}

func TestSlackCriticalPathInstructionsHaveZeroSlack(t *testing.T) {
	// The walked critical path and the slack analysis must agree: an
	// instruction on the last-arriving chain has (near-)zero slack.
	tr, _ := workload.Generate("gzip", 10000, 1)
	m, err := machine.New(machine.NewConfig(4), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	a, err := critpath.AnalyzeRun(m)
	if err != nil {
		t.Fatal(err)
	}
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	var onPath, zeroish int
	for i := range slack {
		if !a.OnPath.Get(int64(i)) {
			continue
		}
		onPath++
		if slack[i] <= 1 {
			zeroish++
		}
	}
	if onPath == 0 {
		t.Fatal("empty critical path")
	}
	if frac := float64(zeroish) / float64(onPath); frac < 0.95 {
		t.Fatalf("only %.0f%% of critical-path instructions have ~zero slack", frac*100)
	}
}

// TestSlackAgreesWithWalkerAcrossPolicies cross-checks ComputeSlack
// against the backward walker on clustered machines driven by *stateful*
// steering policies (stall-over-steer's per-cluster stall bookkeeping,
// proactive's load-balance history) with the online detector training LoC
// predictors: every instruction the walk marks on-path must have
// (near-)zero global slack, whatever policy shaped the run.
func TestSlackAgreesWithWalkerAcrossPolicies(t *testing.T) {
	tr, err := workload.Generate("gcc", 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		clusters int
		pol      func() machine.SteerPolicy
	}{
		{2, func() machine.SteerPolicy { return &steer.StallOverSteer{} }},
		{4, func() machine.SteerPolicy { return &steer.StallOverSteer{} }},
		{4, func() machine.SteerPolicy { return steer.NewProactive() }},
	}
	for _, tc := range cases {
		pol := tc.pol()
		t.Run(fmt.Sprintf("%dx-%s", tc.clusters, pol.Name()), func(t *testing.T) {
			cfg := machine.NewConfig(tc.clusters)
			cfg.SchedMode = machine.SchedLoC
			binary := predictor.NewDefaultBinary()
			loc := predictor.NewDefaultLoC(xrand.New(7))
			det := critpath.NewDetector(binary, loc)
			m, err := machine.New(cfg, tr, pol, machine.Hooks{
				Binary: binary, LoC: loc, OnEpoch: det.OnEpoch,
			})
			if err != nil {
				t.Fatal(err)
			}
			det.Bind(m)
			m.Run()
			a, err := critpath.AnalyzeRun(m)
			if err != nil {
				t.Fatal(err)
			}
			slack, err := critpath.ComputeSlack(m)
			if err != nil {
				t.Fatal(err)
			}
			var onPath, zeroish int
			for i := range slack {
				if !a.OnPath.Get(int64(i)) {
					continue
				}
				onPath++
				if slack[i] <= 1 {
					zeroish++
				}
			}
			if onPath == 0 {
				t.Fatal("empty critical path")
			}
			if frac := float64(zeroish) / float64(onPath); frac < 0.95 {
				t.Fatalf("only %.1f%% of critical-path instructions have ~zero slack (%d/%d)",
					frac*100, zeroish, onPath)
			}
		})
	}
}

func TestSlackSummaryOnWorkload(t *testing.T) {
	tr, _ := workload.Generate("vpr", 20000, 1)
	m, err := machine.New(machine.NewConfig(4), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		t.Fatal(err)
	}
	s := critpath.SummarizeSlack(m, slack)
	if s.ZeroFrac <= 0 || s.ZeroFrac >= 1 {
		t.Errorf("zero-slack fraction %v", s.ZeroFrac)
	}
	// The paper's premise: most dataflow tolerates the forwarding hop.
	if s.GEFwdFrac < 0.5 {
		t.Errorf("only %.0f%% of instructions tolerate one forwarding hop", s.GEFwdFrac*100)
	}
	if s.MeanSlack <= 0 {
		t.Errorf("mean slack %v", s.MeanSlack)
	}
	// Mispredicted branches must overwhelmingly have zero slack.
	if s.BimodalBranchFrac < 0.8 {
		t.Errorf("only %.0f%% of mispredicted branches have zero slack", s.BimodalBranchFrac*100)
	}
	// And slack must vary a lot within static instructions (the paper's
	// argument for LoC over slack).
	if s.StaticStdDev < 1 {
		t.Errorf("per-PC slack stddev %v — implausibly static", s.StaticStdDev)
	}
}

// TestSummarizeSlackPinned pins whole summaries, float bits included:
// cached analyses are keyed on the run alone, so how the per-PC
// statistics are grouped and summed must never move a value.
func TestSummarizeSlackPinned(t *testing.T) {
	want := map[string]critpath.SlackSummary{
		"gcc": {MeanSlack: 157.0823794051487, ZeroFrac: 0.2781304673831542, GEFwdFrac: 0.7170207448137965,
			GE10Frac: 0.6917270682329417, MedianSlack: 117, StaticStdDev: 103.54614737511318, BimodalBranchFrac: 0.9795918367346939},
		"mcf": {MeanSlack: 747.52925, ZeroFrac: 0.19375, GEFwdFrac: 0.80625,
			GE10Frac: 0.80625, MedianSlack: 961, StaticStdDev: 218.55142410777384, BimodalBranchFrac: 0.834733893557423},
		"vpr": {MeanSlack: 106.39252149570086, ZeroFrac: 0.26939612077584485, GEFwdFrac: 0.717006598680264,
			GE10Frac: 0.6864127174565087, MedianSlack: 58, StaticStdDev: 67.17207576889359, BimodalBranchFrac: 0.9854469854469855},
	}
	for bench, w := range want {
		tr, _ := workload.Generate(bench, 20000, 1)
		m, err := machine.New(machine.NewConfig(4), tr, steer.DepBased{}, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		slack, err := critpath.ComputeSlack(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := critpath.SummarizeSlack(m, slack); got != w {
			t.Errorf("%s: summary %+v, want %+v", bench, got, w)
		}
	}
}

func TestNthSmallestMatchesSort(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 2, 3, 10, 257, 4000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(12)) // heavy duplication, like slack's zeros
			if rng.Intn(4) == 0 {
				xs[i] = int64(rng.Intn(1000))
			}
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, k := range []int{0, n / 2, n - 1} {
			if got := critpath.NthSmallest(slices.Clone(xs), k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: got %d, want %d", n, k, got, sorted[k])
			}
		}
	}
}

func TestSlackErrorsOnEmptyRun(t *testing.T) {
	tr, _ := workload.Generate("vpr", 1000, 1)
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := critpath.ComputeSlack(m); err == nil {
		t.Fatal("ComputeSlack accepted an unrun machine")
	}
}
