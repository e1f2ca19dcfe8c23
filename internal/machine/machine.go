package machine

import (
	"fmt"
	"slices"

	"clustersim/internal/bpred"
	"clustersim/internal/cache"
	"clustersim/internal/isa"
	"clustersim/internal/predictor"
	"clustersim/internal/trace"
)

// MaxILPBucket caps the available-ILP histogram (Figure 15's x axis).
const MaxILPBucket = 24

// DefaultEpochLen is how many retirements elapse between criticality-
// detector epochs (Hooks.OnEpoch invocations).
const DefaultEpochLen = 4096

// Hooks wires optional predictors and the online criticality detector
// into a machine. All fields may be nil/zero.
type Hooks struct {
	// Binary is the Fields binary criticality predictor consulted by
	// focused steering/scheduling and trained by the detector.
	Binary *predictor.Binary
	// LoC is the likelihood-of-criticality predictor (Sections 4–6).
	LoC *predictor.LoC
	// EpochLen overrides DefaultEpochLen when positive.
	EpochLen int64
	// OnEpoch, if set, is called after every EpochLen retirements with
	// the retired range [from, to); the online detector hangs here.
	OnEpoch func(from, to int64)
	// OnCommitInst, if set, is called for every retirement, in order.
	// The token-passing detector hangs here.
	OnCommitInst func(seq int64)
}

// Machine is one simulated processor configuration bound to a trace and a
// steering policy. Call Run to simulate (it resets state itself); Reinit
// rebinds the machine to a new configuration/trace/policy while reusing
// its allocations, which is what the NewPooled/Recycle pool builds on.
//
// The scheduler is wakeup-driven: instead of rescanning every window
// entry every cycle, each dispatched instruction counts its unissued
// producers and is pushed onto its cluster's wake heap (a min-heap on
// ready cycle) the moment the last producer issues — the point at which
// its ready time, binding producer and remoteness are fixed forever.
// Matured entries move to per-cluster ready lists, and stretches of
// cycles that provably perform no work are skipped by a next-event clock
// (idleCycles). The pre-optimization full-scan loop is retained verbatim
// behind UseOracleIssue as the reference for differential testing.
type Machine struct {
	cfg    Config
	tr     *trace.Trace
	pol    SteerPolicy
	bp     *bpred.Gshare
	l1     *cache.Cache
	binary *predictor.Binary
	loc    *predictor.LoC

	epochLen     int64
	onEpoch      func(from, to int64)
	onCommitInst func(seq int64)

	events []Event

	// Global bypass broadcast slots (BypassPerCluster > 0): per-cluster
	// ring of per-cycle counts, stamped lazily.
	bcastStamp [][]int64
	bcastCount [][]int16

	// oracle selects the reference full-scan issue loop and disables the
	// next-event clock (UseOracleIssue).
	oracle bool

	// Wakeup rings, indexed by seq & ringMask. Sized to the next power of
	// two above ROBSize, so two in-flight instructions can never share a
	// slot: a slot's next occupant is at least ringMask+1 > ROBSize
	// sequence numbers younger and cannot dispatch until the current one
	// has committed (and therefore issued, clearing the slot).
	//
	// pend[s]: outstanding (unissued) producer count of the waiter in s.
	// prioRing[s]: that waiter's scheduling priority, held until wakeup.
	// waiters[s]: dispatched consumers blocked on the producer in s.
	ringMask int64
	pend     []int32
	prioRing []uint16
	waiters  [][]int32

	// Pipeline state.
	cycle          int64
	nextFetch      int64
	fetchResume    int64
	redirectFrom   int64 // branch whose resolution restarted fetch; tags the next fetch
	blockingBranch int64 // unresolved mispredicted branch gating fetch
	dispHead       int64 // next instruction to dispatch (fetched, in-order)
	commitIdx      int64 // next instruction to commit
	dispatched     int64 // count dispatched (ROB occupancy = dispatched - commitIdx)
	clusters       []clusterState
	lastIssuedFrom []int64 // last instruction to free a slot per cluster

	// Why the head of the dispatch queue failed to dispatch last time.
	havePending    bool
	pendingReason  DispatchReason
	pendingBlocker int64

	// steerPend is per-dispatch-iteration scratch: the count of the
	// steered instruction's unissued producers (raw multiplicity),
	// piggybacked on the steering walk for fusedEnqueue.
	steerPend int32

	// Statistics.
	mispredicts      int64
	branches         int64
	globalValues     int64
	steerCounts      [5]int64
	steerStallCycles int64
	ilpAvail         [MaxILPBucket + 1]int64
	ilpIssued        [MaxILPBucket + 1]int64

	// Scratch buffers.
	candBuf   []candidate
	viewBuf   SteerView
	retireBuf RetireView
	occSnap   []int // start-of-cycle occupancies (GroupSteering)
	budgets   []issueBudget
	cursors   []int // per-cluster ready-list cursors (issueMerge)

	// readyCount[c] is the number of data-ready-but-unissued entries in
	// cluster c's window as of this cycle's issue phase. Steering runs
	// after issue within the cycle, so policies may consult it as a
	// fresh view of readiness (Section 8's "global and accurate view of
	// instruction readiness").
	readyCount []int

	// Reuse bookkeeping: what the current bp/l1 were built from, so
	// Reinit can keep them when the geometry is unchanged.
	bpBits uint
	l1cfg  cache.Config

	// Fused-variant state (SimulateVariants; see variants.go). All
	// nil/false on solo runs: Reinit clears them and SimulateVariants
	// installs them between Reinit and Run. profile replaces live gshare
	// updates with the shared precomputed outcomes, soa serves hot
	// per-instruction facts from shared dense arrays, and kern replaces
	// the SteerPolicy interface calls with an inlined kernel. fused
	// additionally enables replay-only loop specializations (prefix
	// ready-list compaction) that the solo path deliberately forgoes so
	// it stays the verbatim differential oracle.
	fused   bool
	profile *frontProfile
	soa     *traceSoA
	kern    *kernelState
	// fr, when non-nil, routes the replay through the packed issue
	// engine (fusedissue.go): dense per-seq state and 8-byte wake/ready
	// keys in place of the solo loop's Event strides and 32-byte
	// entries. Owned by the SimulateVariants batch, not the machine.
	// frDeferred additionally defers the issue-time event-log writes to
	// one sequential pass after the run; it is only set when nothing
	// can read the event log mid-run (kernel steering, no hooks).
	// frNoReset further skips the pre-run event-log clear: legal when
	// every event field is rewritten unconditionally — live stages own
	// theirs, fusedFinalize owns the rest (including the conditionals
	// Mispredicted/PredCritical/LoCLevel/globalDone) — and the two
	// mid-run Fetch sentinel tests switch to the in-order fetch cursor.
	fr         *fusedRun
	frDeferred bool
	frNoReset  bool
	// elide is the zero-materialization result path: the event log is
	// never allocated, cleared, or finalized. Only legal on top of
	// frNoReset (every mid-run event read already routes to the fused
	// side arrays) for callers that consume the Result and nothing else;
	// Events() returns an empty slice. Set before Reinit via the
	// variants replay path, cleared by Recycle.
	elide bool
}

type clusterState struct {
	occ int // window occupancy (both issue modes)

	// Wakeup mode: wake is a min-heap (on ready cycle) of entries whose
	// producers have all issued; ready holds matured, unissued entries,
	// kept sorted by (prio, seq) so selection never re-sorts.
	// Entries still waiting on producers exist only in the waiter rings.
	wake  []wakeEntry
	ready []wakeEntry

	// Oracle mode: the flat window the reference loop scans per cycle.
	entries []winEntry
}

// wakeEntry is a window entry whose readiness is fully determined: every
// producer has issued, so ready/crit/remote are final.
type wakeEntry struct {
	seq    int64
	ready  int64
	crit   int64
	prio   uint16
	remote bool
}

type winEntry struct {
	seq  int64
	prio uint16
	// Cached readiness: Unset until every producer has issued (at which
	// point the ready cycle, binding producer and remoteness are fixed
	// forever, so they need computing only once).
	ready  int64
	crit   int64
	remote bool
}

type issueBudget struct{ width, integer, fp, mem int }

type candidate struct {
	seq     int64
	cluster int
	prio    uint16
	ready   int64
	crit    int64
	remote  bool
}

// New builds a machine for cfg over tr using the given steering policy.
func New(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks) (*Machine, error) {
	m := &Machine{}
	if err := m.Reinit(cfg, tr, pol, hooks); err != nil {
		return nil, err
	}
	return m, nil
}

// Reinit rebinds m to (cfg, tr, pol, hooks), reusing the event log,
// cluster state, wakeup rings and broadcast rings from previous runs
// wherever capacities allow. It leaves m in the same state New leaves a
// fresh machine in; NewPooled/Recycle build the allocation-free reuse
// path on top of it.
func (m *Machine) Reinit(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("machine: empty trace")
	}
	if pol == nil {
		return fmt.Errorf("machine: nil steering policy")
	}
	// Pre-build the shared producer index outside the hot loop (also
	// makes sharing tr across concurrent machines safe).
	tr.EnsureProducerIndex()

	m.cfg, m.tr, m.pol = cfg, tr, pol
	m.binary, m.loc = hooks.Binary, hooks.LoC
	m.epochLen = hooks.EpochLen
	if m.epochLen <= 0 {
		m.epochLen = DefaultEpochLen
	}
	m.onEpoch, m.onCommitInst = hooks.OnEpoch, hooks.OnCommitInst
	m.oracle = false
	m.detachReplay()

	if m.elide {
		// Zero-materialization replay: nothing reads the event log, so
		// it is never allocated (cold machines) or resliced to length
		// (warm ones) — the guarded stages index it only when non-elided.
		m.events = m.events[:0]
	} else if n := tr.Len(); cap(m.events) >= n {
		m.events = m.events[:n]
	} else {
		m.events = make([]Event, n)
	}
	if m.bp == nil || m.bpBits != cfg.GshareBits {
		m.bp, m.bpBits = bpred.NewGshare(cfg.GshareBits), cfg.GshareBits
	}
	if m.l1 == nil || m.l1cfg != cfg.L1 {
		m.l1, m.l1cfg = cache.New(cfg.L1), cfg.L1
	}
	if cap(m.clusters) >= cfg.Clusters {
		m.clusters = m.clusters[:cfg.Clusters]
	} else {
		cl := make([]clusterState, cfg.Clusters)
		copy(cl, m.clusters[:cap(m.clusters)]) // keep recycled per-cluster slices
		m.clusters = cl
	}
	m.lastIssuedFrom = resize(m.lastIssuedFrom, cfg.Clusters)
	m.occSnap = resize(m.occSnap, cfg.Clusters)
	m.readyCount = resize(m.readyCount, cfg.Clusters)
	m.budgets = resize(m.budgets, cfg.Clusters)
	m.cursors = resize(m.cursors, cfg.Clusters)

	ring := 1
	for ring <= cfg.ROBSize {
		ring <<= 1
	}
	if len(m.pend) < ring {
		m.pend = make([]int32, ring)
		m.prioRing = make([]uint16, ring)
		m.waiters = make([][]int32, ring)
	}
	m.ringMask = int64(len(m.pend)) - 1

	if cfg.BypassPerCluster > 0 {
		for len(m.bcastStamp) < cfg.Clusters {
			m.bcastStamp = append(m.bcastStamp, make([]int64, bcastRing))
			m.bcastCount = append(m.bcastCount, make([]int16, bcastRing))
		}
	}
	return nil
}

// resize returns s with length n, reallocating only when capacity is
// short. Contents are unspecified; every user fully rewrites them.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// UseOracleIssue switches m to the pre-optimization reference scheduler:
// a per-cycle full scan over every window entry, with no cycle skipping.
// It exists for the differential and golden tests (the wakeup-driven
// loop must be cycle-exact against it) and must be called before Run.
func (m *Machine) UseOracleIssue(on bool) { m.oracle = on }

// bcastRing sizes the broadcast-slot ring; broadcasts are scheduled at
// most a few cycles past completion, far below this bound.
const bcastRing = 4096

// broadcastSlot reserves the earliest global-bypass slot at or after
// cycle t for a value produced in cluster c, and returns that cycle.
func (m *Machine) broadcastSlot(c int, t int64) int64 {
	limit := int16(m.cfg.BypassPerCluster)
	for {
		i := t % bcastRing
		if m.bcastStamp[c][i] != t {
			m.bcastStamp[c][i] = t
			m.bcastCount[c][i] = 0
		}
		if m.bcastCount[c][i] < limit {
			m.bcastCount[c][i]++
			return t
		}
		t++
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Trace returns the trace the machine executes.
func (m *Machine) Trace() *trace.Trace { return m.tr }

// Events returns the per-instruction event records. Valid after Run,
// except on zero-materialization replays (VariantsOptions.ResultOnly),
// which never materialize the log and return an empty slice.
func (m *Machine) Events() []Event { return m.events }

// Result summarizes one run.
type Result struct {
	ConfigName  string
	PolicyName  string
	Cycles      int64
	Insts       int64
	Branches    int64
	Mispredicts int64
	L1Accesses  uint64
	L1MissRate  float64
	// GlobalValues counts produced values consumed by at least one other
	// cluster (Section 2.1 reports these per instruction).
	GlobalValues int64
	// SteerCounts tallies dispatches by steering outcome, indexed by
	// SteerTag (nopref/local/loadbal/dyadic/proactive).
	SteerCounts [5]int64
	// SteerStallCycles counts cycles on which dispatch was blocked at the
	// steering stage (window full or a deliberate stall-over-steer hold).
	SteerStallCycles int64
	// ILPAvail[k] counts cycles on which k instructions were ready
	// across all clusters; ILPIssued[k] sums instructions issued on
	// those cycles (Figure 15).
	ILPAvail  [MaxILPBucket + 1]int64
	ILPIssued [MaxILPBucket + 1]int64
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 { return float64(r.Cycles) / float64(r.Insts) }

// IPC returns instructions per cycle.
func (r Result) IPC() float64 { return float64(r.Insts) / float64(r.Cycles) }

// GlobalValuesPerInst returns inter-cluster values per instruction.
func (r Result) GlobalValuesPerInst() float64 {
	return float64(r.GlobalValues) / float64(r.Insts)
}

// MispredictRate returns the fraction of branches gshare mispredicted.
func (r Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// Run simulates the whole trace and returns the run summary.
func (m *Machine) Run() Result {
	m.reset()
	n := int64(m.tr.Len())
	for m.commitIdx < n {
		m.commit()
		m.issue()
		m.dispatch()
		m.fetch()
		m.cycle++
		if !m.oracle && m.commitIdx < n {
			if skip := m.idleCycles(); skip > 0 {
				// The reference loop would burn these cycles with an empty
				// issue phase; mirror its available-ILP accounting (the
				// in-flight/undispatched condition cannot change while no
				// stage does work).
				if m.dispatched > m.commitIdx || m.dispHead < n {
					m.ilpAvail[0] += skip
				}
				m.cycle += skip
			}
		}
	}
	if m.frDeferred && !m.elide {
		m.fusedFinalize()
	}
	missRate, accesses := m.l1.MissRate()
	return Result{
		ConfigName:       m.cfg.Name(),
		PolicyName:       m.pol.Name(),
		Cycles:           m.cycle,
		Insts:            n,
		Branches:         m.branches,
		Mispredicts:      m.mispredicts,
		L1Accesses:       accesses,
		L1MissRate:       missRate,
		GlobalValues:     m.globalValues,
		SteerCounts:      m.steerCounts,
		SteerStallCycles: m.steerStallCycles,
		ILPAvail:         m.ilpAvail,
		ILPIssued:        m.ilpIssued,
	}
}

// idleCycles returns how many cycles starting at m.cycle provably perform
// no pipeline work, so Run's next-event clock can skip them. Soundness
// rests on one rule: any cycle on which the steering stage would be
// consulted (dispatch head delivered and the ROB has room) is never
// skipped, because steering reads time-dependent state (a producer stays
// Outstanding only until its value becomes globally visible) and policies
// may mutate their own state per Steer call. Everything else — front-end
// delivery bubbles, ROB-full stalls (whose pending-reason bookkeeping is
// idempotent), post-misprediction fetch holds and in-flight latency
// waits — replays identically cycle after cycle until the next event.
func (m *Machine) idleCycles() int64 {
	t := m.cycle
	n := int64(m.tr.Len())
	next := int64(-1)
	consider := func(c int64) {
		if next == -1 || c < next {
			next = c
		}
	}

	// Commit: the head retires on the first cycle strictly after its
	// completion. An unissued head is bounded by the issue conditions.
	// Deferred replays read completion from the packed state, the only
	// place it lives before fusedFinalize.
	var headComplete int64
	if m.frDeferred {
		headComplete = Unset // undispatched: packed record is last run's
		if m.commitIdx < m.dispHead {
			headComplete = int64(m.fr.st[m.commitIdx].complete)
		}
	} else {
		headComplete = m.events[m.commitIdx].Complete
	}
	if c := headComplete; c != Unset {
		if c+1 <= t {
			return 0
		}
		consider(c + 1)
	}

	// Issue: matured-but-unissued entries guarantee work next cycle (the
	// first sorted candidate of a cluster always fits the issue budget);
	// otherwise the earliest pending wake maturation bounds the skip.
	// The packed engine tracks that minimum exactly per cluster
	// (wringMin/wfarMin), so the bound is as tight as the solo heap's.
	if m.fr != nil {
		for c := range m.clusters {
			if len(m.fr.ready[c]) > int(m.fr.rdHead[c]) {
				return 0
			}
			if r := m.fr.wringMin[c]; r != wakeNone {
				if r <= t {
					return 0
				}
				consider(r)
			}
			if r := m.fr.wfarMin[c]; r != wakeNone {
				if r <= t {
					return 0
				}
				consider(r)
			}
		}
	} else {
		for c := range m.clusters {
			cs := &m.clusters[c]
			if len(cs.ready) > 0 {
				return 0
			}
			if len(cs.wake) > 0 {
				if r := cs.wake[0].ready; r <= t {
					return 0
				} else {
					consider(r)
				}
			}
		}
	}

	// Dispatch/steering.
	if m.dispHead < n {
		// With the event clear skipped, "has the head been fetched" comes
		// from the in-order fetch cursor (equivalent: fetch sets Fetch in
		// strict seq order) and the side-array fetch cycle.
		headFetch := Unset
		if m.frNoReset {
			if m.dispHead < m.nextFetch {
				headFetch = int64(m.fr.fetchC[m.dispHead])
			}
		} else {
			headFetch = m.events[m.dispHead].Fetch
		}
		if headFetch != Unset {
			delivered := headFetch + int64(m.cfg.PipelineDepth)
			switch {
			case delivered > t:
				consider(delivered)
			case m.dispatched-m.commitIdx < int64(m.cfg.ROBSize):
				return 0 // steering would run: never skip
			}
			// Delivered but ROB-full: stalled until the next commit,
			// which the commit condition above already bounds.
		}
	}

	// Fetch: blocked on an unresolved branch, it resumes only via an
	// issue event (bounded above); otherwise fetchResume bounds it.
	if m.nextFetch < n && m.fetchResume != fetchBlocked {
		if m.fetchResume <= t {
			return 0
		}
		consider(m.fetchResume)
	}

	if next <= t {
		return 0 // no future event: don't skip (matches the scan loop)
	}
	return next - t
}

func (m *Machine) reset() {
	if m.frNoReset {
		// Every field is rewritten before anyone reads it (see the field
		// comment); clearing 112 bytes per instruction here would be pure
		// memory traffic.
	} else {
		for i := range m.events {
			m.events[i].reset()
		}
	}
	if m.fr != nil {
		m.fr.reset()
	}
	m.cycle = 0
	m.nextFetch = 0
	m.fetchResume = 0
	m.redirectFrom = Unset
	m.blockingBranch = Unset
	m.dispHead = 0
	m.commitIdx = 0
	m.dispatched = 0
	for c := range m.clusters {
		cs := &m.clusters[c]
		cs.occ = 0
		cs.entries = cs.entries[:0]
		cs.wake = cs.wake[:0]
		cs.ready = cs.ready[:0]
		m.lastIssuedFrom[c] = Unset
	}
	for i := range m.pend {
		m.pend[i] = 0
	}
	for i := range m.waiters {
		m.waiters[i] = m.waiters[i][:0]
	}
	// A pooled machine may carry broadcast stamps from a previous run
	// whose cycle numbers could collide with this run's.
	if m.cfg.BypassPerCluster > 0 {
		for c := 0; c < m.cfg.Clusters; c++ {
			clear(m.bcastStamp[c])
			clear(m.bcastCount[c])
		}
	}
	m.havePending = false
	m.mispredicts = 0
	m.branches = 0
	m.globalValues = 0
	m.steerCounts = [5]int64{}
	m.steerStallCycles = 0
	m.ilpAvail = [MaxILPBucket + 1]int64{}
	m.ilpIssued = [MaxILPBucket + 1]int64{}
	if m.profile == nil {
		// With a shared front-end profile attached the live gshare is
		// never consulted, so its state is irrelevant to the run.
		m.bp.Reset()
	}
	m.l1.Reset()
	m.pol.Reset()
}

// commit retires completed instructions in order, up to CommitWidth per
// cycle, and fires detector epochs.
func (m *Machine) commit() {
	n := int64(m.tr.Len())
	for w := 0; w < m.cfg.CommitWidth && m.commitIdx < n; w++ {
		if m.frDeferred {
			// The dispatch-cursor guard keeps this off packed records the
			// run has not initialized yet (st is not cleared between runs).
			if m.commitIdx >= m.dispHead {
				break
			}
			if c := m.fr.st[m.commitIdx].complete; c < 0 || int64(c) >= m.cycle {
				break
			}
		} else {
			ev := &m.events[m.commitIdx]
			if ev.Complete == Unset || ev.Complete >= m.cycle {
				break
			}
		}
		if m.frNoReset {
			m.fr.commitC[m.commitIdx] = int32(m.cycle)
		} else {
			m.events[m.commitIdx].Commit = m.cycle
		}
		if m.kern == nil {
			// Kernel policies declare OnCommit a no-op (KernelSpec
			// contract), so the fused path skips the interface call.
			m.retireBuf.m, m.retireBuf.seq = m, m.commitIdx
			m.pol.OnCommit(m.commitIdx, &m.retireBuf)
		}
		if m.onCommitInst != nil {
			m.onCommitInst(m.commitIdx)
		}
		m.commitIdx++
		if m.onEpoch != nil && m.commitIdx%m.epochLen == 0 {
			m.onEpoch(m.commitIdx-m.epochLen, m.commitIdx)
		}
	}
}

// readyAt computes the cycle at which window entry seq has all operands
// available at its cluster, or Unset if some producer has not issued.
// It also reports the last-arriving producer and whether that operand
// crossed clusters. Once every producer has issued the answer is fixed
// forever, which is what lets the wakeup path compute it exactly once.
func (m *Machine) readyAt(seq int64) (ready, crit int64, remote bool) {
	ev := &m.events[seq]
	ready = ev.Dispatch + 1
	crit = Unset
	for _, p32 := range m.tr.ProducerSpan(int(seq)) {
		p := int64(p32)
		pev := &m.events[p]
		if pev.Complete == Unset {
			return Unset, Unset, false
		}
		avail := pev.Complete
		rem := pev.Cluster != ev.Cluster
		if rem {
			avail = pev.RemoteAvail
		}
		if avail > ready || (avail == ready && crit == Unset) {
			ready = avail
			crit = p
			remote = rem
		}
	}
	return ready, crit, remote
}

// issue selects and issues ready instructions at every cluster, subject
// to per-cluster issue width and functional-unit mix. The wakeup path
// only touches entries whose readiness changed: wake-heap tops that
// matured this cycle are binary-inserted into their cluster's ready list
// (kept sorted by scheduling priority, then age), so selection is a
// k-way merge over pre-sorted lists instead of the reference loop's
// gather-everything-and-sort. The visited candidate order is identical
// to the reference loop's sorted order by construction — (prio, seq) is
// a total order — so the two paths issue exactly the same instructions.
func (m *Machine) issue() {
	if m.oracle {
		m.issueScan()
		return
	}
	if m.fr != nil {
		m.fusedIssue()
		return
	}
	avail := 0
	for c := range m.clusters {
		cs := &m.clusters[c]
		for len(cs.wake) > 0 && cs.wake[0].ready <= m.cycle {
			cs.insertReady(cs.popWake())
		}
		m.readyCount[c] = len(cs.ready)
		avail += len(cs.ready)
	}
	if avail == 0 {
		if m.dispatched > m.commitIdx || m.dispHead < int64(m.tr.Len()) {
			m.ilpAvail[0]++
		}
		return
	}
	issued := m.issueMerge()
	if issued > 0 {
		if m.fused {
			m.compactReadyPrefix()
		} else {
			for c := range m.clusters {
				cs := &m.clusters[c]
				kept := cs.ready[:0]
				for _, e := range cs.ready {
					if m.events[e.seq].Issue == Unset {
						kept = append(kept, e)
					}
				}
				cs.ready = kept
			}
		}
	}
	bucket := avail
	if bucket > MaxILPBucket {
		bucket = MaxILPBucket
	}
	m.ilpAvail[bucket]++
	m.ilpIssued[bucket] += int64(issued)
}

// issueMerge walks the per-cluster sorted ready lists in global
// (prio, seq) order — always advancing the smallest head among clusters
// with issue width left — applying the same width and FU budgets as the
// reference selection, and stops early once every cluster's width is
// spent. Skipping a width-exhausted cluster's remaining entries wholesale
// is exactly what the reference loop's per-candidate width check does to
// them one by one.
func (m *Machine) issueMerge() int {
	budgets := m.budgets
	widthLeft := 0
	for c := range budgets {
		budgets[c] = issueBudget{m.cfg.IssuePerCluster, m.cfg.IntPerCluster, m.cfg.FPPerCluster, m.cfg.MemPerCluster}
		widthLeft += m.cfg.IssuePerCluster
		m.cursors[c] = 0
	}
	issued := 0
	for widthLeft > 0 {
		best := -1
		var bestPrio uint16
		var bestSeq int64
		for c := range m.clusters {
			if budgets[c].width == 0 {
				continue
			}
			cur := m.cursors[c]
			rl := m.clusters[c].ready
			if cur >= len(rl) {
				continue
			}
			e := &rl[cur]
			if best == -1 || e.prio < bestPrio || (e.prio == bestPrio && e.seq < bestSeq) {
				best, bestPrio, bestSeq = c, e.prio, e.seq
			}
		}
		if best == -1 {
			break
		}
		e := &m.clusters[best].ready[m.cursors[best]]
		m.cursors[best]++
		b := &budgets[best]
		var fu isa.FU
		if m.soa != nil {
			fu = isa.FU(m.soa.fu[e.seq])
		} else {
			fu = m.tr.Insts[e.seq].Op.FU()
		}
		switch fu {
		case isa.FUInt:
			if b.integer == 0 {
				continue
			}
			b.integer--
		case isa.FUFP:
			if b.fp == 0 {
				continue
			}
			b.fp--
		case isa.FUMem:
			if b.mem == 0 {
				continue
			}
			b.mem--
		}
		b.width--
		widthLeft--
		cd := candidate{seq: e.seq, cluster: best, prio: e.prio, ready: e.ready, crit: e.crit, remote: e.remote}
		m.issueOne(&cd)
		issued++
	}
	return issued
}

// issueSelect issues from the gathered candidates (oldest-first within
// priority class, subject to per-cluster width and FU budgets), keeps the
// available/issued ILP histograms, and returns how many issued. Both
// issue paths share it, so the selection function is identical by
// construction.
func (m *Machine) issueSelect() int {
	avail := len(m.candBuf)
	if avail == 0 {
		if m.dispatched > m.commitIdx || m.dispHead < int64(m.tr.Len()) {
			m.ilpAvail[0]++
		}
		return 0
	}
	slices.SortFunc(m.candBuf, func(a, b candidate) int {
		if a.prio != b.prio {
			return int(a.prio) - int(b.prio)
		}
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})

	budgets := m.budgets
	for c := range budgets {
		budgets[c] = issueBudget{m.cfg.IssuePerCluster, m.cfg.IntPerCluster, m.cfg.FPPerCluster, m.cfg.MemPerCluster}
	}

	issued := 0
	for i := range m.candBuf {
		cd := &m.candBuf[i]
		b := &budgets[cd.cluster]
		if b.width == 0 {
			continue
		}
		in := &m.tr.Insts[cd.seq]
		switch in.Op.FU() {
		case isa.FUInt:
			if b.integer == 0 {
				continue
			}
			b.integer--
		case isa.FUFP:
			if b.fp == 0 {
				continue
			}
			b.fp--
		case isa.FUMem:
			if b.mem == 0 {
				continue
			}
			b.mem--
		}
		b.width--
		m.issueOne(cd)
		issued++
	}
	bucket := avail
	if bucket > MaxILPBucket {
		bucket = MaxILPBucket
	}
	m.ilpAvail[bucket]++
	m.ilpIssued[bucket] += int64(issued)
	return issued
}

// issueOne executes one instruction: fixes its timestamps, accesses the
// cache for memory operations, wakes its consumers, resolves blocking
// branches, and counts global values.
func (m *Machine) issueOne(cd *candidate) {
	seq := cd.seq
	ev := &m.events[seq]

	ev.Ready = cd.ready
	ev.Issue = m.cycle
	ev.CritProducer = cd.crit
	ev.CritProducerRemote = cd.remote

	// Per-instruction facts come from the shared SoA on fused runs (the
	// AoS trace record is then only touched for memory addresses) and
	// from the trace record itself on solo runs; the values are
	// identical by construction.
	var (
		lat             int64
		isLoad, isStore bool
		hasOut          bool // writes a register or drains a store value
	)
	if m.soa != nil {
		fl := m.soa.flags[seq]
		lat = int64(m.soa.lat[seq])
		isLoad = fl&soaLoad != 0
		isStore = fl&soaStore != 0
		hasOut = fl&(soaHasDst|soaStore) != 0
	} else {
		in := &m.tr.Insts[seq]
		lat = int64(in.Op.Latency())
		isLoad = in.Op == isa.Load
		isStore = in.Op == isa.Store
		hasOut = in.HasDst() || isStore
	}
	if isLoad {
		accessLat, hit := m.l1.Access(m.tr.Insts[seq].Addr)
		if !hit {
			ev.L1Miss = true
		}
		// Address generation plus the cache's reported access time, so a
		// non-default L1.HitCycles changes hit latency too (identical to
		// the ISA latency on the default geometry).
		lat = loadAgenCycles + int64(accessLat)
	} else if isStore {
		m.l1.Access(m.tr.Insts[seq].Addr) // write-allocate; latency hidden by commit
	}
	ev.Complete = m.cycle + lat
	// The value becomes visible to other clusters after the forwarding
	// latency — waiting for a broadcast slot first if the global bypass
	// network's bandwidth is limited.
	if m.cfg.Clusters > 1 && hasOut {
		bcast := ev.Complete
		if m.cfg.BypassPerCluster > 0 {
			bcast = m.broadcastSlot(cd.cluster, bcast)
		}
		ev.RemoteAvail = bcast + int64(m.cfg.FwdLatency)
	} else {
		ev.RemoteAvail = ev.Complete + int64(m.cfg.FwdLatency)
	}

	// Count global values: a producer's value becomes "global" the first
	// time any consumer in another cluster reads it.
	for _, p32 := range m.tr.ProducerSpan(int(seq)) {
		pev := &m.events[p32]
		if pev.Cluster != ev.Cluster && !pev.globalCounted() {
			pev.markGlobalCounted()
			m.globalValues++
		}
	}

	// Complete and RemoteAvail are final: wake the consumers waiting on
	// this producer.
	if !m.oracle {
		m.wakeConsumers(seq)
	}

	if seq == m.blockingBranch {
		m.fetchResume = ev.Complete + 1
		m.redirectFrom = seq
		m.blockingBranch = Unset
	}
	m.clusters[cd.cluster].occ--
	m.lastIssuedFrom[cd.cluster] = seq
	if m.kern == nil {
		// Kernel policies declare OnIssue a no-op (KernelSpec contract).
		m.pol.OnIssue(seq, cd.cluster)
	}
}

// wakeConsumers decrements the outstanding-producer count of every
// consumer waiting on seq; consumers reaching zero have their (now
// final) readiness computed and join their cluster's wake heap. A
// consumer naming seq twice (both operands) is in the list twice and is
// decremented twice, mirroring the double count taken at dispatch.
func (m *Machine) wakeConsumers(seq int64) {
	slot := seq & m.ringMask
	ws := m.waiters[slot]
	if len(ws) == 0 {
		return
	}
	for _, w := range ws {
		wseq := int64(w)
		wslot := wseq & m.ringMask
		m.pend[wslot]--
		if m.pend[wslot] == 0 {
			ready, crit, remote := m.readyAt(wseq)
			m.clusters[m.events[wseq].Cluster].pushWake(wakeEntry{
				seq: wseq, ready: ready, crit: crit,
				prio: m.prioRing[wslot], remote: remote,
			})
		}
	}
	m.waiters[slot] = ws[:0]
}

// enqueue registers a freshly dispatched instruction with the wakeup
// machinery: it either starts waiting on its unissued producers or, when
// every producer has already issued, goes straight onto its cluster's
// wake heap with its (already final) ready time.
func (m *Machine) enqueue(seq int64, cluster int, prio uint16) {
	pend := int32(0)
	for _, p := range m.tr.ProducerSpan(int(seq)) {
		if m.events[p].Complete == Unset {
			pslot := int64(p) & m.ringMask
			m.waiters[pslot] = append(m.waiters[pslot], int32(seq))
			pend++
		}
	}
	if pend == 0 {
		ready, crit, remote := m.readyAt(seq)
		m.clusters[cluster].pushWake(wakeEntry{
			seq: seq, ready: ready, crit: crit, prio: prio, remote: remote,
		})
		return
	}
	slot := seq & m.ringMask
	m.pend[slot] = pend
	m.prioRing[slot] = prio
}

// pushWake adds e to the cluster's min-heap of maturing entries.
// insertReady adds a matured entry to the ready list, preserving the
// (prio, seq) order that issue selection consumes.
func (cs *clusterState) insertReady(e wakeEntry) {
	lo, hi := 0, len(cs.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := &cs.ready[mid]
		if r.prio < e.prio || (r.prio == e.prio && r.seq < e.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	cs.ready = append(cs.ready, wakeEntry{})
	copy(cs.ready[lo+1:], cs.ready[lo:])
	cs.ready[lo] = e
}

func (cs *clusterState) pushWake(e wakeEntry) {
	cs.wake = append(cs.wake, e)
	i := len(cs.wake) - 1
	for i > 0 {
		p := (i - 1) / 2
		if cs.wake[p].ready <= cs.wake[i].ready {
			break
		}
		cs.wake[p], cs.wake[i] = cs.wake[i], cs.wake[p]
		i = p
	}
}

// popWake removes and returns the earliest-maturing entry.
func (cs *clusterState) popWake() wakeEntry {
	top := cs.wake[0]
	last := len(cs.wake) - 1
	cs.wake[0] = cs.wake[last]
	cs.wake = cs.wake[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		c := l
		if r := l + 1; r < last && cs.wake[r].ready < cs.wake[l].ready {
			c = r
		}
		if cs.wake[i].ready <= cs.wake[c].ready {
			break
		}
		cs.wake[i], cs.wake[c] = cs.wake[c], cs.wake[i]
		i = c
	}
	return top
}

// hasSpace reports real (not snapshot) window availability.
func (m *Machine) hasSpace(c int) bool {
	return m.clusters[c].occ < m.cfg.WindowPerCluster
}

// dispatch steers fetched instructions, in order, into cluster windows.
func (m *Machine) dispatch() {
	n := int64(m.tr.Len())
	if m.cfg.GroupSteering {
		// The whole dispatch group steers against start-of-cycle state
		// (Section 8: a realistic steering circuit cannot serially
		// account for intra-cycle placements).
		for c := range m.clusters {
			m.occSnap[c] = m.clusters[c].occ
		}
	}
	for w := 0; w < m.cfg.DispatchWidth && m.dispHead < n; w++ {
		seq := m.dispHead
		// Reset-elided replays never touch the event log here (it may not
		// even be allocated under elide): the fetched test uses the
		// in-order fetch cursor and the side-array fetch cycle, and the
		// fetch cycle for the pipeline-latency test below comes from the
		// same side array.
		var fetchC int64
		if m.frNoReset {
			if seq >= m.nextFetch {
				break
			}
			fetchC = int64(m.fr.fetchC[seq])
		} else {
			fetchC = m.events[seq].Fetch
		}
		if fetchC == Unset || fetchC+int64(m.cfg.PipelineDepth) > m.cycle {
			break // not yet delivered by the front end
		}
		if m.dispatched-m.commitIdx >= int64(m.cfg.ROBSize) {
			m.setPending(DispROB, seq-int64(m.cfg.ROBSize))
			break
		}

		var dec Decision
		if m.kern != nil {
			switch {
			case m.fr == nil:
				dec = m.steerKernel(seq)
			case m.cfg.Clusters == 1:
				dec = m.steerKernelMono(seq)
			default:
				dec = m.steerKernelPacked(seq)
			}
		} else {
			view := &m.viewBuf
			view.m = m
			view.seq = seq
			view.snapOcc = nil
			if m.cfg.GroupSteering {
				view.snapOcc = m.occSnap
			}
			view.producers = m.gatherProducers(seq, view.producers[:0])
			dec = m.pol.Steer(view)
		}
		if dec.Stall || !m.hasSpace(dec.Cluster) {
			blocker := Unset
			if dec.Cluster >= 0 && dec.Cluster < m.cfg.Clusters {
				blocker = m.lastIssuedFrom[dec.Cluster]
			}
			m.setPending(DispWindow, blocker)
			m.steerStallCycles++
			break
		}

		// Dispatch for real.
		if int(dec.Tag) < len(m.steerCounts) {
			m.steerCounts[dec.Tag]++
		}
		// Dispatch-time prediction sampling. Fused runs with static
		// predictors read the per-seq memos — the same values the live
		// lookups would produce, without the PC load or hash.
		var memoCrit []bool
		var memoLoC []uint8
		if m.kern != nil {
			memoCrit, memoLoC = m.kern.predCrit, m.kern.locLevel
		}
		predCrit := false
		if m.binary != nil {
			if memoCrit != nil {
				predCrit = memoCrit[seq]
			} else {
				predCrit = m.binary.Predict(m.tr.Insts[seq].PC)
			}
		}
		lvl := 0
		if m.loc != nil {
			if memoLoC != nil {
				lvl = int(memoLoC[seq])
			} else {
				lvl = m.loc.Level(m.tr.Insts[seq].PC)
			}
		}
		var prio uint16
		switch m.cfg.SchedMode {
		case SchedBinaryCritical:
			if !predCrit {
				prio = 1
			}
		case SchedLoC:
			prio = uint16(predictor.LoCLevels - 1 - lvl)
		}

		reason, blocker := DispWidth, seq-1
		switch {
		case m.cycle == fetchC+int64(m.cfg.PipelineDepth):
			reason, blocker = DispPipeline, Unset
		case m.havePending:
			reason, blocker = m.pendingReason, m.pendingBlocker
		}
		m.havePending = false

		if m.frNoReset {
			// Reset-elided replay: all dispatch facts ride in the fusedRun
			// side arrays (cycle, cluster and priority via fusedEnqueue's
			// packed state) until fusedFinalize writes the event whole.
			m.fr.steerTg[seq] = uint8(dec.Tag)
			m.fr.dispRsn[seq] = uint8(reason)
			m.fr.dispBlk[seq] = int32(blocker)
		} else {
			ev := &m.events[seq]
			ev.Dispatch = m.cycle
			ev.Cluster = int16(dec.Cluster)
			ev.SteerTag = dec.Tag
			ev.PredCritical = predCrit
			ev.LoCLevel = uint8(lvl)
			ev.DispatchReason = reason
			ev.DispatchBlocker = blocker
		}

		if m.oracle {
			m.clusters[dec.Cluster].entries = append(m.clusters[dec.Cluster].entries,
				winEntry{seq: seq, prio: prio, ready: Unset, crit: Unset})
		} else if m.fr != nil {
			m.fusedEnqueue(seq, dec.Cluster, prio)
		} else {
			m.enqueue(seq, dec.Cluster, prio)
		}
		m.clusters[dec.Cluster].occ++
		m.dispHead++
		m.dispatched++
	}
}

// setPending remembers why the dispatch head is blocked, for attribution
// when it finally dispatches.
func (m *Machine) setPending(reason DispatchReason, blocker int64) {
	m.havePending = true
	m.pendingReason = reason
	m.pendingBlocker = blocker
}

// gatherProducers builds the steering view's producer list: one entry per
// distinct producer of the dispatching instruction's operands.
func (m *Machine) gatherProducers(seq int64, dst []ProducerInfo) []ProducerInfo {
	pend := int32(0)
	for _, p32 := range m.tr.ProducerSpan(int(seq)) {
		p := int64(p32)
		pev := &m.events[p]
		// Piggybacked dispatch-pend count (raw multiplicity) for
		// fusedEnqueue on generic fused runs; dead weight on solo runs.
		if pev.Complete == Unset {
			pend++
		}
		dup := false
		for i := range dst {
			if dst[i].Seq == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		outstanding := pev.Complete == Unset || pev.RemoteAvail > m.cycle
		cluster := int(pev.Cluster)
		if m.cfg.GroupSteering && pev.Dispatch == m.cycle {
			// Steered earlier this very cycle: a group-steering circuit
			// has not seen its placement yet.
			cluster = -1
		}
		dst = append(dst, ProducerInfo{
			Seq:         p,
			PC:          m.tr.Insts[p].PC,
			Cluster:     cluster,
			Outstanding: outstanding,
		})
	}
	m.steerPend = pend
	return dst
}

// fetch advances the front end: up to FetchWidth instructions per cycle,
// blocking at gshare mispredictions until the branch resolves.
func (m *Machine) fetch() {
	if m.frNoReset {
		m.fusedFetch()
		return
	}
	n := int64(m.tr.Len())
	if m.nextFetch >= n || m.cycle < m.fetchResume {
		return
	}
	// Every instruction in the first fetch cycle after a redirect is
	// gated by the misprediction, not by fetch bandwidth; tag the whole
	// batch so critical-path attribution charges the branch.
	redirect := m.redirectFrom
	m.redirectFrom = Unset
	for w := 0; w < m.cfg.FetchWidth && m.nextFetch < n; w++ {
		seq := m.nextFetch
		ev := &m.events[seq]
		ev.Fetch = m.cycle
		if redirect != Unset {
			ev.FetchReason = FetchRedirect
			ev.FetchBlocker = redirect
		} else {
			ev.FetchReason = FetchBW
			if seq >= int64(m.cfg.FetchWidth) {
				ev.FetchBlocker = seq - int64(m.cfg.FetchWidth)
			} else {
				ev.FetchBlocker = Unset
			}
		}
		m.nextFetch++
		in := &m.tr.Insts[seq]
		if in.Op.IsBranch() {
			m.branches++
			// The shared front-end profile replays the outcome this
			// machine's own gshare would produce (fetch consults the
			// predictor once per branch, in program order, so outcomes are
			// config-independent up to GshareBits; see variants.go).
			var correct bool
			if m.profile != nil {
				correct = !m.profile.mispredicted(seq)
			} else {
				correct = m.bp.Update(in.PC, in.Taken)
			}
			if !correct {
				ev.Mispredicted = true
				m.mispredicts++
				m.blockingBranch = seq
				m.fetchResume = fetchBlocked
				return
			}
		}
	}
}
