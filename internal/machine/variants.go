package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/bpred"
	"clustersim/internal/isa"
	"clustersim/internal/predictor"
	"clustersim/internal/trace"
)

// This file implements SimulateVariants: fused simulation of several
// machine configurations over one trace. The listsched package proved
// the shape for the idealized scheduler (prepare once, replay per
// variant, validate against a retained reference); this is the same
// fusion for the full machine. Three kinds of work are shared or
// specialized, each behind its own guard with a fallback counter:
//
//  1. Front-end profile (frontProfile). Fetch processes instructions
//     strictly in program order and consults gshare exactly once per
//     branch, in trace order, regardless of FetchWidth, cluster count
//     or any timing: a misprediction stalls *when* the next branch is
//     fetched, never *whether* or in what order. Branch outcomes
//     therefore depend only on the trace's branch subsequence and the
//     predictor geometry (GshareBits), so one program-order gshare pass
//     serves every variant with the same GshareBits. The L1 is
//     deliberately NOT shared: data-cache accesses happen at issue
//     time, and issue order is config-dependent, so each variant keeps
//     (and trains) its own cache. That asymmetry is the exact sharing
//     boundary; TestFrontEndSharingBoundary pins it.
//
//  2. Trace SoA (traceSoA). Dense per-instruction arrays of the facts
//     the issue loop reads per candidate (FU class, latency, op flags)
//     and the consumer adjacency, built once per trace and shared
//     read-only by every replay over it.
//
//  3. Steering kernel (kernelState). Stateless policies advertise a
//     KernelSpec; the machine then replicates their Steer decision
//     procedure inline — no SteerView, no interface calls, no per-call
//     map allocation — and skips their (no-op, per the Kernel contract)
//     OnIssue/OnCommit notifications. When the variant's hooks carry no
//     training callbacks the per-PC predictions are additionally
//     memoized per sequence number. Stateful policies fall back to the
//     interface path, counted in SharingStats.
//
// The solo wakeup loop stays behaviorally verbatim and is the oracle
// every fused run is differentially gated against (variants_test.go),
// with the retained full-scan loop (UseOracleIssue) behind both.

// Variant describes one configuration to fuse into a SimulateVariants
// call. Each variant must bring its own predictor instances in Hooks —
// predictors are trained during the run, so sharing one instance across
// variants would leak state between them (and break order invariance).
type Variant struct {
	Config Config
	Pol    SteerPolicy
	Hooks  Hooks
	// Setup, if non-nil, runs after the variant's machine is built and
	// bound but before Run — the hook point for binding a criticality
	// detector to the machine.
	Setup func(*Machine)
}

// VariantResult pairs one variant's live machine with its run summary.
// Machines come from the shared pool; the caller owns them and should
// Recycle each once its events are no longer needed.
type VariantResult struct {
	M   *Machine
	Res Result
}

// SharingStats counts, per SimulateVariants call, how many variants ran
// on each shared/fused facility and how many fell back. The fallbacks
// are correctness guards, not errors: a fallback variant still produces
// byte-identical output, just without that facility's speedup.
type SharingStats struct {
	// BpredShared counts variants that replayed the shared front-end
	// profile; BpredFallback counts variants that kept a live per-variant
	// gshare because the profile failed the sharing guard.
	BpredShared, BpredFallback int
	// KernelUsed counts variants steered by the inlined kernel;
	// KernelFallback counts variants whose policy does not advertise a
	// kernel and used the SteerPolicy interface path.
	KernelUsed, KernelFallback int
	// MemoUsed counts kernel variants with static predictors whose
	// per-instruction predictions were memoized; MemoFallback counts
	// kernel variants that kept live predictor lookups because training
	// hooks (OnEpoch/OnCommitInst) were attached.
	MemoUsed, MemoFallback int
	// GridGroups counts distinct prediction memos built for the batch
	// (one per distinct predictor state); GridShared counts memo
	// attachments served from an already-built group instead of a fresh
	// O(n) prediction pass — the forwarding-latency grid fusion win,
	// since fwd-axis variants share geometry, stack and predictor state.
	GridGroups, GridShared int
	// EventsElided counts per-instruction event-log writes skipped by
	// zero-materialization replays (VariantsOptions.ResultOnly): one per
	// instruction per elided variant.
	EventsElided int64
	// ReplayWorkers is the worker count the replay phase ran with;
	// ReplayBusyNs sums wall time spent inside per-variant replays
	// across those workers (busy / elapsed ≈ achieved parallelism).
	ReplayWorkers int
	ReplayBusyNs  int64
}

// VariantsOptions tunes how SimulateVariants replays a prepared batch.
// The zero value reproduces the serial reference path exactly.
type VariantsOptions struct {
	// Workers bounds the replay fan-out: after the shared prepare
	// (producer CSR, SoA columns, branch profiles, steering kernels),
	// per-variant replays are stolen off a shared cursor by this many
	// workers, each owning its own pooled packed-engine state. Results
	// are stitched in input order, so output is byte-identical to the
	// serial path under any worker count. <=1 means serial.
	Workers int
	// ResultOnly declares that the caller consumes only each variant's
	// Result (never Events): eligible variants skip event-log
	// materialization entirely — no allocation, no clear, no finalize
	// pass. Eligibility is per-variant and exactly the frNoReset
	// predicate; ineligible variants still materialize, so the option is
	// always safe. Elided machines return empty Events().
	ResultOnly bool
}

// SimulateVariants runs every variant over tr sequentially, sharing the
// producer index, the front-end branch profile, and the trace SoA, and
// returns the per-variant machines and results in variant order. It is
// the serial reference for SimulateVariantsOpts.
//
// Output is byte-identical to running each variant solo (New/NewPooled +
// Run): variants neither observe each other nor share mutable state, so
// permuting the variant list permutes the results and nothing else. On
// error, machines built so far are recycled and none are returned.
func SimulateVariants(tr *trace.Trace, variants []Variant) ([]VariantResult, SharingStats, error) {
	return SimulateVariantsOpts(tr, variants, VariantsOptions{})
}

// variantPrep is the serial prepare phase's output for one variant:
// everything the replay needs that is shared, deterministic, or must be
// computed in variant order (memo grouping).
type variantPrep struct {
	profile *frontProfile
	kern    *kernelState
	// noReset records, ahead of machine construction, whether the replay
	// will run fully event-log-free (the frNoReset predicate): packed
	// engine admitted, kernel steering, no training hooks, no Setup,
	// shareable branch profile. Under ResultOnly this is exactly the
	// zero-materialization eligibility.
	noReset bool
}

// SimulateVariantsOpts is SimulateVariants with a bounded parallel
// replay phase and the zero-materialization result path. The prepare
// phase (CSR, SoA, branch profiles, kernels, memo grouping) always runs
// serially in variant order, so SharingStats and all shared state are
// identical under any worker count; replays share nothing mutable, so
// results are byte-identical to the serial path regardless of Workers.
func SimulateVariantsOpts(tr *trace.Trace, variants []Variant, opt VariantsOptions) ([]VariantResult, SharingStats, error) {
	var stats SharingStats
	if tr == nil || tr.Len() == 0 {
		return nil, stats, fmt.Errorf("machine: empty trace")
	}
	if len(variants) == 0 {
		return nil, stats, nil
	}
	tr.EnsureProducerIndex()
	soa := sharedTraceSoA(tr)

	// Packed-engine admission (see fusedissue.go): batches past the
	// bounds replay on the generic fused path.
	maxClusters := 0
	for i := range variants {
		if c := variants[i].Config.Clusters; c > maxClusters {
			maxClusters = c
		}
	}
	packed := tr.Len() <= fusedMaxInsts && maxClusters <= fusedMaxClusters

	// Prepare phase: profiles per predictor geometry, kernels with
	// cross-variant memo sharing, eligibility flags — all serial.
	preps := make([]variantPrep, len(variants))
	var bank memoBank
	for i := range variants {
		v := &variants[i]
		p := sharedFrontProfile(tr, v.Config.GshareBits)
		preps[i].profile = p
		// The profile sharing guard, evaluated here so the stats are a
		// pure function of the prepare phase (useFrontProfile re-checks
		// the same predicate when attaching).
		if p.bits == v.Config.GshareBits && p.insts == tr.Len() {
			stats.BpredShared++
		} else {
			stats.BpredFallback++
		}
		preps[i].kern = buildKernel(v, tr, &stats, &bank)
		hookFree := v.Hooks.OnEpoch == nil && v.Hooks.OnCommitInst == nil && v.Setup == nil
		// The profile guard (useFrontProfile) is deterministic from the
		// config and trace alone; profiles built here always pass it.
		preps[i].noReset = packed && preps[i].kern != nil && hookFree
		if opt.ResultOnly && preps[i].noReset {
			stats.EventsElided += int64(tr.Len())
		}
	}

	workers := opt.Workers
	if workers > len(variants) {
		workers = len(variants)
	}
	if workers < 1 {
		workers = 1
	}
	stats.ReplayWorkers = workers

	out := make([]VariantResult, len(variants))
	var busy atomic.Int64
	var firstErr error
	if workers == 1 {
		// Serial replay: one packed working set serves the whole batch
		// (each Run resets it).
		var fr *fusedRun
		if packed {
			fr = getFusedRun(tr.Len(), maxClusters)
			defer putFusedRun(fr)
		}
		for i := range variants {
			start := time.Now()
			m, res, err := runVariant(tr, soa, &variants[i], &preps[i], fr, opt.ResultOnly)
			busy.Add(time.Since(start).Nanoseconds())
			if err != nil {
				firstErr = fmt.Errorf("machine: variant %d: %w", i, err)
				break
			}
			out[i] = VariantResult{M: m, Res: res}
		}
	} else {
		// Parallel fan-out: workers steal variant indices off a shared
		// cursor; each owns its own pooled packed working set. All
		// shared state (tr, soa, profiles, kernel memos) is read-only
		// during this phase; everything mutable is per-variant. The
		// lowest-index error wins, matching engine.MapCtx.
		var next atomic.Int64
		errs := make([]error, len(variants))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var fr *fusedRun
				if packed {
					fr = getFusedRun(tr.Len(), maxClusters)
					defer putFusedRun(fr)
				}
				for {
					i := int(next.Add(1)) - 1
					if i >= len(variants) {
						return
					}
					start := time.Now()
					m, res, err := runVariantSafe(tr, soa, &variants[i], &preps[i], fr, opt.ResultOnly)
					busy.Add(time.Since(start).Nanoseconds())
					if err != nil {
						errs[i] = err
						continue
					}
					out[i] = VariantResult{M: m, Res: res}
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				firstErr = fmt.Errorf("machine: variant %d: %w", i, err)
				break
			}
		}
	}
	stats.ReplayBusyNs = busy.Load()
	if firstErr != nil {
		for _, r := range out {
			Recycle(r.M)
		}
		return nil, stats, firstErr
	}
	return out, stats, nil
}

// runVariant replays one prepared variant on fr (nil outside packed
// admission) and returns its machine and result. The machine outlives
// the call; the batch-owned fr and flags are detached before returning.
func runVariant(tr *trace.Trace, soa *traceSoA, v *Variant, prep *variantPrep, fr *fusedRun, resultOnly bool) (*Machine, Result, error) {
	elide := resultOnly && prep.noReset
	m, err := newPooledOpt(v.Config, tr, v.Pol, v.Hooks, elide)
	if err != nil {
		return nil, Result{}, err
	}
	m.useFrontProfile(prep.profile)
	m.fused = true
	m.soa = soa
	m.kern = prep.kern
	if v.Setup != nil {
		v.Setup(m)
	}
	m.fr = fr
	// Defer the issue-time event writes to one sequential pass when
	// nothing can read the event log mid-run: kernel steering (no
	// SteerView), no training hooks, no Setup-bound detector.
	m.frDeferred = fr != nil && m.kern != nil &&
		v.Hooks.OnEpoch == nil && v.Hooks.OnCommitInst == nil && v.Setup == nil
	// Elide the pre-run event clear too, and with it every mid-run
	// event write: the stages keep fetch/dispatch/commit facts in the
	// fusedRun side arrays and fusedFinalize materializes each event
	// exactly once. Mispredicted is reconstructed from the shared
	// profile, which is therefore the one extra requirement.
	m.frNoReset = m.frDeferred && m.profile != nil
	res := m.Run()
	// The machine outlives the call but the replay state does not: fr
	// belongs to the batch, and the SoA, branch profile and kernel memos
	// are shared with every other run over the trace. A returned machine
	// must not pin any of it outside its owner's accounting.
	m.detachReplay()
	return m, res, nil
}

// runVariantSafe is runVariant with panic containment for the parallel
// workers: a panicking replay must surface as that variant's error, not
// crash the process from a goroutine the engine's job recovery cannot
// see. The serial path keeps the raw panic (it unwinds through the
// caller, where the engine's own containment applies).
func runVariantSafe(tr *trace.Trace, soa *traceSoA, v *Variant, prep *variantPrep, fr *fusedRun, resultOnly bool) (m *Machine, res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("machine: variant replay panicked: %v", r)
		}
	}()
	return runVariant(tr, soa, v, prep, fr, resultOnly)
}

// frontProfile is the shared front-end replay: one program-order gshare
// pass over the trace, recording which branches mispredict. Valid for
// any configuration with the same GshareBits (see the sharing-contract
// comment at the top of this file); useFrontProfile is the guard.
type frontProfile struct {
	bits  uint
	insts int
	miss  []uint64 // bitset over seq: set iff that branch mispredicted
}

// profileKey memoizes one trace's front profile per predictor geometry.
type profileKey struct{ bits uint }

// sharedFrontProfile returns tr's front profile for bits, built on first
// use and then shared by every batch over tr for the trace's lifetime.
func sharedFrontProfile(tr *trace.Trace, bits uint) *frontProfile {
	return tr.Derived(profileKey{bits}, func() any { return newFrontProfile(tr, bits) }).(*frontProfile)
}

// profileGshares recycles the predictor newFrontProfile trains: its
// 2^GshareBits-entry table is garbage once the profile is recorded, and
// a server simulating many small fresh traces would otherwise allocate
// one per trace.
var profileGshares sync.Pool

type scratchGshare struct {
	bits uint
	g    *bpred.Gshare
}

// newFrontProfile trains a fresh gshare over tr's branches in program
// order — exactly the update sequence fetch performs — and records the
// outcome per branch.
func newFrontProfile(tr *trace.Trace, bits uint) *frontProfile {
	n := tr.Len()
	p := &frontProfile{bits: bits, insts: n, miss: make([]uint64, (n+63)/64)}
	sg, _ := profileGshares.Get().(*scratchGshare)
	if sg == nil || sg.bits != bits {
		sg = &scratchGshare{bits: bits, g: bpred.NewGshare(bits)}
	} else {
		sg.g.Reset()
	}
	defer profileGshares.Put(sg)
	bp := sg.g
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if in.Op.IsBranch() {
			if correct := bp.Update(in.PC, in.Taken); !correct {
				p.miss[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return p
}

// mispredicted reports the recorded outcome for branch seq.
func (p *frontProfile) mispredicted(seq int64) bool {
	return p.miss[seq>>6]>>(uint64(seq)&63)&1 != 0
}

// useFrontProfile attaches p as m's branch-outcome source for the next
// Run. It refuses — returning false, leaving the live per-variant
// gshare in place — when p was recorded under a different predictor
// geometry or trace than m's own, i.e. when sharing would violate the
// front-end contract.
func (m *Machine) useFrontProfile(p *frontProfile) bool {
	if p == nil || p.bits != m.cfg.GshareBits || p.insts != m.tr.Len() {
		return false
	}
	m.profile = p
	return true
}

// traceSoA holds config-independent per-instruction facts in dense
// arrays so the per-variant replays read sequential bytes instead of
// striding through the AoS trace. Built once per trace (sharedTraceSoA)
// and shared read-only by every replay over it, so it lives as long as
// the trace: it keeps only what the issue loop reads per candidate, and
// fields read once per issue (the memory address) or once per batch
// (the PC) stay in the trace.
type traceSoA struct {
	fu    []uint8 // isa.FU class per seq
	lat   []uint16
	flags []uint8

	// Producer CSR (shared with the trace) plus its transpose: the
	// consumers of p are consIdx[consOff[p]:consOff[p+1]], in program
	// order. The packed engine walks consumers at issue time instead of
	// registering waiters per run — the topology is a property of the
	// trace, so it is built once here and shared by every variant.
	prodOff, prodIdx []int32
	consOff, consIdx []int32
}

const (
	soaLoad uint8 = 1 << iota
	soaStore
	soaHasDst
	soaBranch
)

// soaKey memoizes a trace's SoA on the trace itself.
type soaKey struct{}

// sharedTraceSoA returns tr's SoA. Sweeps, single runs and benchmarks
// call SimulateVariants many times over one trace, often interleaved
// with other traces on other workers, so the SoA is memoized per trace
// (and freed with it) rather than rebuilt per call.
func sharedTraceSoA(tr *trace.Trace) *traceSoA {
	return tr.Derived(soaKey{}, func() any { return newTraceSoA(tr) }).(*traceSoA)
}

func newTraceSoA(tr *trace.Trace) *traceSoA {
	n := tr.Len()
	s := &traceSoA{
		fu:    make([]uint8, n),
		lat:   make([]uint16, n),
		flags: make([]uint8, n),
	}
	for i := range tr.Insts {
		in := &tr.Insts[i]
		s.fu[i] = uint8(in.Op.FU())
		s.lat[i] = uint16(in.Op.Latency())
		var fl uint8
		if in.Op == isa.Load {
			fl |= soaLoad
		}
		if in.Op == isa.Store {
			fl |= soaStore
		}
		if in.HasDst() {
			fl |= soaHasDst
		}
		if in.Op.IsBranch() {
			fl |= soaBranch
		}
		s.flags[i] = fl
	}
	s.prodOff, s.prodIdx = tr.ProducerIndex()
	s.consOff = make([]int32, n+1)
	for _, p := range s.prodIdx {
		s.consOff[p+1]++
	}
	for i := 0; i < n; i++ {
		s.consOff[i+1] += s.consOff[i]
	}
	s.consIdx = make([]int32, len(s.prodIdx))
	fill := make([]int32, n)
	for i := 0; i < n; i++ {
		for _, p := range s.prodIdx[s.prodOff[i]:s.prodOff[i+1]] {
			s.consIdx[s.consOff[p]+fill[p]] = int32(i)
			fill[p]++
		}
	}
	return s
}

// KernelScore selects how a steering kernel scores candidate producers,
// mirroring the scoring closures of the steer package's stateless
// policies.
type KernelScore uint8

const (
	// KernelScoreNone scores every producer 0 (dependence-based
	// steering: the first outstanding producer wins).
	KernelScoreNone KernelScore = iota
	// KernelScoreBinary scores 1 when the binary predictor marks the
	// producer's PC critical (focused steering).
	KernelScoreBinary
	// KernelScoreLoC scores by the LoC predictor's level for the
	// producer's PC.
	KernelScoreLoC
)

// KernelSpec is a stateless steering policy's declarative description,
// precise enough for the machine to replicate its Steer decision
// procedure inline. A policy advertising a spec promises that
//
//   - its Steer is exactly the steer package's dependence-based
//     skeleton (pick the best-scoring outstanding producer, first
//     maximum wins; its cluster if there is space, else least-loaded
//     with space, else stall) under Score — plus, when Stall is set,
//     the stall-over-steer hold at StallThreshold, and
//   - its OnIssue, OnCommit and Reset are no-ops,
//
// so the fused path may skip the interface calls entirely. The
// differential battery enforces the promise: a spec that drifts from
// the policy's Steer breaks byte-identity with the solo run.
type KernelSpec struct {
	Score KernelScore
	// Stall enables the stall-over-steer hold: when the desired
	// producer's cluster is full and the dispatching instruction's LoC
	// fraction reaches StallThreshold, stall instead of load-balancing.
	Stall          bool
	StallThreshold float64
}

// SteerKernel is implemented by steering policies that can describe
// themselves as a KernelSpec. Kernel returns ok=false when the policy
// cannot currently be kernelized (SimulateVariants then falls back to
// the interface path for that variant).
type SteerKernel interface {
	Kernel() (spec KernelSpec, ok bool)
}

// kernelState is one variant's resolved steering kernel: the spec plus
// (when the variant's predictors are static for the whole run) per-seq
// memoized predictions serving both kernel scoring and dispatch-time
// event sampling.
type kernelState struct {
	spec     KernelSpec
	predCrit []bool  // nil: consult m.binary live
	locLevel []uint8 // nil: consult m.loc live
}

// memoBank deduplicates kernel prediction memos across a variant batch:
// the forwarding-latency grid fusion. A fwd-axis sweep varies only
// FwdLatency, so its variants carry predictors in identical states; the
// memo arrays (predCrit, locLevel) are pure functions of predictor
// state and the trace PC column, so one array serves every such
// variant. Sharing whole steering/dispatch images across the fwd axis
// would NOT be sound — FwdLatency feeds RemoteAvail, which feeds the
// outstanding-producer test inside steering itself (pinned by
// TestFwdGridSharingBoundary) — so only the prediction memos fuse.
// The guard is predictor state equality (predictor.Binary.StateEqual /
// predictor.LoC.StateEqual); memos are only built for variants with no
// training hooks, so states cannot diverge mid-batch.
type memoBank struct {
	bins []binMemo
	locs []locMemo
}

type binMemo struct {
	pred *predictor.Binary
	arr  []bool
}

type locMemo struct {
	pred *predictor.LoC
	arr  []uint8
}

// predCritFor returns the criticality memo for b, reusing a state-equal
// group's array when one exists.
func (mb *memoBank) predCritFor(b *predictor.Binary, tr *trace.Trace, stats *SharingStats) []bool {
	for i := range mb.bins {
		if mb.bins[i].pred == b || mb.bins[i].pred.StateEqual(b) {
			stats.GridShared++
			return mb.bins[i].arr
		}
	}
	arr := make([]bool, tr.Len())
	for s := range tr.Insts {
		arr[s] = b.Predict(tr.Insts[s].PC)
	}
	mb.bins = append(mb.bins, binMemo{pred: b, arr: arr})
	stats.GridGroups++
	return arr
}

// locLevelFor returns the LoC-level memo for l, reusing a state-equal
// group's array when one exists.
func (mb *memoBank) locLevelFor(l *predictor.LoC, tr *trace.Trace, stats *SharingStats) []uint8 {
	for i := range mb.locs {
		if mb.locs[i].pred == l || mb.locs[i].pred.StateEqual(l) {
			stats.GridShared++
			return mb.locs[i].arr
		}
	}
	arr := make([]uint8, tr.Len())
	for s := range tr.Insts {
		arr[s] = uint8(l.Level(tr.Insts[s].PC))
	}
	mb.locs = append(mb.locs, locMemo{pred: l, arr: arr})
	stats.GridGroups++
	return arr
}

// buildKernel resolves v's steering kernel, if any, updating stats.
// Prediction memos are only safe when nothing trains the predictors
// during the run: kernel policies never do (no-op notifications, per
// the KernelSpec contract), so the remaining writers are the hooks'
// training callbacks — any of those attached forces live lookups.
// Memos are deduplicated through bank across the batch (grid fusion).
func buildKernel(v *Variant, tr *trace.Trace, stats *SharingStats, bank *memoBank) *kernelState {
	kp, ok := v.Pol.(SteerKernel)
	if !ok {
		stats.KernelFallback++
		return nil
	}
	spec, ok := kp.Kernel()
	if !ok {
		stats.KernelFallback++
		return nil
	}
	k := &kernelState{spec: spec}
	stats.KernelUsed++
	if v.Hooks.OnEpoch != nil || v.Hooks.OnCommitInst != nil {
		stats.MemoFallback++
		return k
	}
	if v.Hooks.Binary != nil {
		k.predCrit = bank.predCritFor(v.Hooks.Binary, tr, stats)
	}
	if v.Hooks.LoC != nil {
		k.locLevel = bank.locLevelFor(v.Hooks.LoC, tr, stats)
	}
	stats.MemoUsed++
	return k
}

// compactReadyPrefix removes just-issued entries from the ready lists
// after issueMerge. The merge consumes entries only at its per-cluster
// cursors, so everything issued this cycle lies in ready[:cursors[c]];
// scanning only that prefix and sliding the untouched tail down is
// order-preserving and therefore behaviorally identical to the solo
// path's full-list scan — the full scan stays as written because the
// solo wakeup loop is the differential oracle for fused runs.
func (m *Machine) compactReadyPrefix() {
	for c := range m.clusters {
		cs := &m.clusters[c]
		cut := m.cursors[c]
		if cut == 0 {
			continue
		}
		kept := 0
		for i := 0; i < cut; i++ {
			if m.events[cs.ready[i].seq].Issue == Unset {
				cs.ready[kept] = cs.ready[i]
				kept++
			}
		}
		if kept < cut {
			n := copy(cs.ready[kept:], cs.ready[cut:])
			cs.ready = cs.ready[:kept+n]
		}
	}
}

// kernOcc is the kernel's view of cluster c's occupancy — the
// start-of-cycle snapshot under group steering, live otherwise —
// matching SteerView.Occupancy.
func (m *Machine) kernOcc(c int) int {
	if m.cfg.GroupSteering {
		return m.occSnap[c]
	}
	return m.clusters[c].occ
}

// kernLeastLoaded mirrors the steer package's leastLoadedWithSpace: the
// least-occupied cluster with window space, lowest index winning ties.
func (m *Machine) kernLeastLoaded() (int, bool) {
	best, bestOcc, found := 0, 0, false
	for c := 0; c < m.cfg.Clusters; c++ {
		occ := m.kernOcc(c)
		if occ >= m.cfg.WindowPerCluster {
			continue
		}
		if !found || occ < bestOcc {
			best, bestOcc, found = c, occ, true
		}
	}
	return best, found
}

// steerKernel is the inlined dispatch-steering fast path: it replicates
// gatherProducers' dedup, pickDesired's first-maximum scoring and tag
// derivation, the stall-over-steer hold, and steerDependence's
// placement — with no producer slice, no map, and no interface calls.
// An instruction has at most three producers (two register sources and
// a forwarding store), so dedup and the distinct-cluster (dyadic) test
// run over a fixed-size array.
func (m *Machine) steerKernel(seq int64) Decision {
	k := m.kern
	var (
		seen      [3]int64
		nseen     int
		bestScore = -1
		bestCl    int
		ok        bool
		firstCl   = -1
		multi     bool
	)
	group := m.cfg.GroupSteering
	for _, p32 := range m.tr.ProducerSpan(int(seq)) {
		p := int64(p32)
		dup := false
		for i := 0; i < nseen; i++ {
			if seen[i] == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[nseen] = p
		nseen++
		pev := &m.events[p]
		if pev.Complete != Unset && pev.RemoteAvail <= m.cycle {
			continue // not outstanding: collocation no longer matters
		}
		if group && pev.Dispatch == m.cycle {
			continue // placed this very cycle: unseen by a group-steering circuit
		}
		cl := int(pev.Cluster)
		if firstCl < 0 {
			firstCl = cl
		} else if cl != firstCl {
			multi = true
		}
		s := 0
		switch k.spec.Score {
		case KernelScoreBinary:
			if k.predCrit != nil {
				if k.predCrit[p] {
					s = 1
				}
			} else if m.binary != nil && m.binary.Predict(m.tr.Insts[p].PC) {
				s = 1
			}
		case KernelScoreLoC:
			if k.locLevel != nil {
				s = int(k.locLevel[p])
			} else if m.loc != nil {
				s = m.loc.Level(m.tr.Insts[p].PC)
			}
		}
		if s > bestScore {
			bestScore, bestCl, ok = s, cl, true
		}
	}
	tag := SteerNoPref
	if ok {
		if multi {
			tag = SteerDyadic
		} else {
			tag = SteerLocal
		}
	}

	if k.spec.Stall && ok && m.kernOcc(bestCl) >= m.cfg.WindowPerCluster {
		frac := 0.0
		if k.locLevel != nil {
			frac = float64(k.locLevel[seq]) / float64(predictor.LoCLevels-1)
		} else if m.loc != nil {
			frac = m.loc.Frac(m.tr.Insts[seq].PC)
		}
		if frac >= k.spec.StallThreshold {
			return Decision{Cluster: bestCl, Stall: true, Tag: tag}
		}
	}

	if !ok {
		lb, space := m.kernLeastLoaded()
		if !space {
			return Decision{Cluster: 0, Stall: true, Tag: SteerNoPref}
		}
		return Decision{Cluster: lb, Tag: SteerNoPref}
	}
	if m.kernOcc(bestCl) < m.cfg.WindowPerCluster {
		return Decision{Cluster: bestCl, Tag: tag}
	}
	lb, space := m.kernLeastLoaded()
	if !space {
		return Decision{Cluster: bestCl, Stall: true, Tag: tag}
	}
	return Decision{Cluster: lb, Tag: SteerLoadBalanced}
}
