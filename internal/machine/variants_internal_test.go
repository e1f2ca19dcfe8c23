package machine

import (
	"runtime"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/trace"
)

// guardTrace builds a small branch-bearing trace for the guard tests.
func guardTrace(n int) *trace.Trace {
	b := trace.NewBuilder(n)
	for i := 0; i < n; i++ {
		in := isa.Inst{
			PC:  uint64(0x400 + 4*(i%16)),
			Op:  isa.IntALU,
			Dst: isa.Reg(1 + i%4),
			Src: [2]isa.Reg{isa.Reg(1 + (i+1)%4), isa.NoReg},
		}
		if i%5 == 4 {
			in.Op, in.Taken, in.Dst = isa.Branch, i%2 == 0, isa.NoReg
		}
		b.Append(in)
	}
	return b.Trace()
}

// TestFrontProfileGuard exercises the sharing guard directly: a profile
// recorded under a different gshare geometry or trace length must be
// refused, leaving the machine on its live per-variant predictor — the
// fallback SimulateVariants counts in SharingStats.BpredFallback.
func TestFrontProfileGuard(t *testing.T) {
	tr := guardTrace(200)
	cfg := NewConfig(2)
	m, err := New(cfg, tr, ageTestPolicy{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	good := newFrontProfile(tr, cfg.GshareBits)
	if !m.useFrontProfile(good) || m.profile != good {
		t.Fatal("matching profile refused")
	}
	m.profile = nil

	wrongBits := newFrontProfile(tr, cfg.GshareBits+1)
	if m.useFrontProfile(wrongBits) || m.profile != nil {
		t.Fatal("profile with mismatched GshareBits accepted")
	}
	wrongTrace := newFrontProfile(guardTrace(100), cfg.GshareBits)
	if m.useFrontProfile(wrongTrace) || m.profile != nil {
		t.Fatal("profile for a different trace accepted")
	}
	if m.useFrontProfile(nil) || m.profile != nil {
		t.Fatal("nil profile accepted")
	}
}

// TestFrontProfileMatchesLiveGshare pins that the precomputed profile
// reproduces the live predictor's per-branch outcomes exactly.
func TestFrontProfileMatchesLiveGshare(t *testing.T) {
	tr := guardTrace(400)
	cfg := NewConfig(1)
	m, err := New(cfg, tr, ageTestPolicy{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	p := newFrontProfile(tr, cfg.GshareBits)
	for s, ev := range m.Events() {
		if ev.Mispredicted != p.mispredicted(int64(s)) {
			t.Fatalf("inst %d: live mispredict=%v, profile=%v", s, ev.Mispredicted, p.mispredicted(int64(s)))
		}
	}
}

// ageTestPolicy is a minimal in-package steering policy (the steer
// package cannot be imported here — it imports machine).
type ageTestPolicy struct{}

func (ageTestPolicy) Name() string { return "age-test" }
func (ageTestPolicy) Steer(v *SteerView) Decision {
	for c := 0; c < v.Clusters(); c++ {
		if v.HasSpace(c) {
			return Decision{Cluster: c}
		}
	}
	return Decision{Cluster: 0, Stall: true}
}
func (ageTestPolicy) OnIssue(seq int64, cluster int)       {}
func (ageTestPolicy) OnCommit(seq int64, view *RetireView) {}
func (ageTestPolicy) Reset()                               {}

// kernelTestPolicy advertises the dependence-based kernel so fused runs
// steer through the inlined kernel (and attach kernel state); its own
// Steer is never consulted on that path.
type kernelTestPolicy struct{ ageTestPolicy }

func (kernelTestPolicy) Kernel() (KernelSpec, bool) {
	return KernelSpec{Score: KernelScoreNone}, true
}

// TestVariantMachinesDetachReplayState pins that a machine returned by
// SimulateVariants holds none of the replay state shared by every run
// over its trace (SoA, branch profile, kernel memos) nor the batch's
// packed working set: callers retain such machines in cache artifacts,
// and anything still attached would be pinned outside the cache's
// accounting.
func TestVariantMachinesDetachReplayState(t *testing.T) {
	tr := guardTrace(500)
	variants := []Variant{
		{Config: NewConfig(1), Pol: kernelTestPolicy{}},
		{Config: NewConfig(2), Pol: kernelTestPolicy{}, Setup: func(*Machine) {}},
		{Config: NewConfig(4), Pol: ageTestPolicy{}},
	}
	for _, opt := range []VariantsOptions{{}, {ResultOnly: true}, {Workers: 2}} {
		outs, stats, err := SimulateVariantsOpts(tr, variants, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.KernelUsed == 0 || stats.BpredShared == 0 {
			t.Fatalf("%+v: no variant ran on the shared replay state: %+v", opt, stats)
		}
		for i, o := range outs {
			m := o.M
			if m.soa != nil || m.profile != nil || m.kern != nil || m.fr != nil ||
				m.fused || m.frDeferred || m.frNoReset {
				t.Errorf("%+v: variant %d keeps replay state: soa=%v profile=%v kern=%v fr=%v fused=%v",
					opt, i, m.soa != nil, m.profile != nil, m.kern != nil, m.fr != nil, m.fused)
			}
			Recycle(m)
		}
	}
}

// bytesPerRun reports the heap bytes one call of f allocates, averaged
// over runs calls after a warm-up call, the way testing.AllocsPerRun
// counts allocations. The minimum over three rounds discards a round
// that happened to refill a pool emptied by a collection.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	best := ^uint64(0)
	var ms runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		if b := (ms.TotalAlloc - before) / uint64(runs); b < best {
			best = b
		}
	}
	return best
}

// TestOneVariantAllocGuard pins the fixed cost of the one-variant path
// every engine simulation job takes: on a warm pool, a result-only
// one-variant SimulateVariants run over a 2000-instruction trace (the
// served path's small specs) may allocate at most oneVariantSlack bytes
// and oneVariantAllocs allocations more than a solo NewPooled+Run: the
// batch's bookkeeping, nothing sized by the trace. Anything rebuilt per
// call instead of once per trace — the SoA, a branch profile and its
// 64K-entry gshare — blows through the slack.
func TestOneVariantAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const oneVariantSlack, oneVariantAllocs = 4 << 10, 16
	tr := guardTrace(2000)
	cfg := NewConfig(4)
	solo := func() {
		m, err := NewPooled(cfg, tr, kernelTestPolicy{}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		Recycle(m)
	}
	fused := func() {
		outs, _, err := SimulateVariantsOpts(tr, []Variant{{Config: cfg, Pol: kernelTestPolicy{}}},
			VariantsOptions{ResultOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		Recycle(outs[0].M)
	}
	soloBytes, fusedBytes := bytesPerRun(20, solo), bytesPerRun(20, fused)
	soloAllocs, fusedAllocs := testing.AllocsPerRun(20, solo), testing.AllocsPerRun(20, fused)
	t.Logf("per run: solo %d B in %.0f allocs, one-variant %d B in %.0f allocs",
		soloBytes, soloAllocs, fusedBytes, fusedAllocs)
	if fusedBytes > soloBytes+oneVariantSlack {
		t.Errorf("one-variant run allocates %d B/run, solo %d B/run: over the %d B slack",
			fusedBytes, soloBytes, oneVariantSlack)
	}
	if fusedAllocs > soloAllocs+oneVariantAllocs {
		t.Errorf("one-variant run makes %.0f allocations/run, solo %.0f: over the slack of %d",
			fusedAllocs, soloAllocs, oneVariantAllocs)
	}
}
