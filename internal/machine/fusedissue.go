package machine

import (
	"sync"

	"clustersim/internal/isa"
	"clustersim/internal/predictor"
)

// This file is the packed issue engine for fused replays. The solo
// wakeup loop (machine.go) walks 112-byte Event records and 32-byte
// wakeEntry lists; profiling the fused sweep shows the issue machinery
// dominated by exactly those random-access strides. Replays under
// SimulateVariants therefore run on dense per-sequence state instead:
//
//   - fseq: a 32-byte record of the fields the wakeup/steering paths
//     read at random (completion, remote availability, dispatch cycle,
//     cluster, readiness, pending-producer count) — two instructions
//     per cache line instead of ~0.5, with shift-add addressing.
//   - producer and consumer adjacency come from the trace's CSR index
//     and its transpose (built once per trace in traceSoA): issue walks
//     the static consumer list and only touches consumers that have
//     dispatched, replacing the solo path's per-run waiter registration
//     rings with shared read-only arrays.
//   - wake heaps and ready lists hold packed 8-byte keys. The heap key
//     is ready<<32|seq ordered by the full word: that is (ready, seq)
//     order, a refinement of the solo heap's ready-only order, and any
//     order among equal ready cycles is behaviorally identical because
//     the ready list re-sorts matured entries by (prio, seq). The ready
//     list key is prio<<32|seq, whose uint64 order IS the solo list's
//     (prio, seq) order, so the k-way merge compares one word.
//
// Every event the solo path records is still written to m.events at the
// same point with the same value — the packed arrays only change where
// the hot loops *read* — so fused output stays byte-identical, which
// the differential battery (variants_test.go, FuzzSimulateVariants and
// the bench-json gate) enforces against the untouched solo oracle.

// fusedMaxInsts and fusedMaxClusters bound traces the packed engine
// accepts: cycle values are stored in int32 (with fusedCycleCap slack),
// clusters in uint8, and the merge keeps per-cluster cursors in stack
// arrays of fusedMaxClusters. Larger runs — far past the paper's 8x1w
// widest geometry — fall back to the generic fused path, which has no
// such bounds.
const (
	fusedMaxInsts    = 1 << 24
	fusedMaxClusters = 16
	fusedCycleCap    = int64(1) << 30
)

// fseq flag bits.
const (
	fGlobalCounted uint8 = 1 << iota // value already charged as inter-cluster
	fCritRemote                      // binding producer was in another cluster
	fIssued                          // instruction has issued
	fL1Miss                          // load missed in the L1
)

// fseq is the packed per-instruction state of one fused replay. Cycle
// fields are -1 until the event happens, mirroring Unset.
type fseq struct {
	complete    int32
	remoteAvail int32
	dispatch    int32
	ready       int32 // data-ready cycle, fixed at wakeup
	crit        int32 // binding producer, -1 when bounded by dispatch
	issue       int32
	pend        int32 // producers unissued at dispatch, not yet issued
	prio        uint16
	cluster     uint8
	flags       uint8
}

// fusedRun is the packed engine's working set, shared by every variant
// of one SimulateVariants batch (variants run sequentially) and pooled
// across batches.
type fusedRun struct {
	// st is NOT cleared between runs: fusedEnqueue writes a record whole
	// on first touch, dispatch is in order, and every reader of a record
	// sits behind a dispatch-cursor guard (or reads producers, which
	// dispatch before their consumers), so stale state from the previous
	// run is unreachable.
	st []fseq
	// Calendar wake ring: wring[c][ready&(fusedWakeRingSize-1)] holds the
	// seqs of cluster c maturing at cycle ready. Within a run every push
	// lands at least one cycle ahead and less than fusedWakeRingSize
	// cycles out (longer waits overflow to wfar), and the drain at cycle
	// t empties every bucket with ready <= t before any push of cycle t
	// lands, so two pending entries can never share a bucket with
	// different ready cycles. wringMin[c]/wfarMin[c] are the exact
	// earliest pending maturation (wakeNone when empty) — idleCycles
	// relies on exactness to bound its skips.
	wring    [][][]uint32
	wringCnt []int32
	wringMin []int64
	wfar     [][]uint64 // rare far-future wakes, keyed ready<<32|seq, unsorted
	wfarMin  []int64
	ready    [][]uint64 // per-cluster sorted list keyed prio<<32|seq
	// rdHead[c] is the start of cluster c's live ready window within
	// ready[c]: issued prefixes are dropped by advancing it (and
	// right-compacting rare FU-blocked survivors) instead of sliding
	// the whole tail left every cycle.
	rdHead []int32

	// Front-end, dispatch and commit facts a reset-elided (frNoReset)
	// replay keeps out of the event log until fusedFinalize. Each entry
	// is written exactly once per run before finalize reads it — every
	// instruction fetches, dispatches and commits before Run returns —
	// so none of these need clearing between runs.
	fetchC   []int32 // fetch cycle
	fetchBlk []int32 // FetchBlocker (-1 = Unset)
	fetchRsn []uint8 // FetchReason
	dispRsn  []uint8 // DispatchReason
	dispBlk  []int32 // DispatchBlocker (-1 = Unset)
	steerTg  []uint8 // SteerTag
	commitC  []int32 // commit cycle

	// Persistent merge scratch — written for [0:clusters) before use
	// every call, kept across calls so the arrays are never re-zeroed.
	mergeBudgets [fusedMaxClusters]issueBudget
	mergeLists   [fusedMaxClusters][]uint64
	mergeHeads   [fusedMaxClusters]uint64
}

var fusedRunPool = sync.Pool{New: func() any { return new(fusedRun) }}

// getFusedRun returns a pooled fusedRun sized for n instructions and
// the batch's widest cluster count; putFusedRun returns it.
func getFusedRun(n, clusters int) *fusedRun {
	fr := fusedRunPool.Get().(*fusedRun)
	if cap(fr.st) < n {
		fr.st = make([]fseq, n)
		fr.fetchC = make([]int32, n)
		fr.fetchBlk = make([]int32, n)
		fr.fetchRsn = make([]uint8, n)
		fr.dispRsn = make([]uint8, n)
		fr.dispBlk = make([]int32, n)
		fr.steerTg = make([]uint8, n)
		fr.commitC = make([]int32, n)
	} else {
		fr.st = fr.st[:n]
		fr.fetchC = fr.fetchC[:n]
		fr.fetchBlk = fr.fetchBlk[:n]
		fr.fetchRsn = fr.fetchRsn[:n]
		fr.dispRsn = fr.dispRsn[:n]
		fr.dispBlk = fr.dispBlk[:n]
		fr.steerTg = fr.steerTg[:n]
		fr.commitC = fr.commitC[:n]
	}
	for cap(fr.wring) < clusters {
		fr.wring = append(fr.wring[:cap(fr.wring)], nil)
		fr.wringCnt = append(fr.wringCnt[:cap(fr.wringCnt)], 0)
		fr.wringMin = append(fr.wringMin[:cap(fr.wringMin)], 0)
		fr.wfar = append(fr.wfar[:cap(fr.wfar)], nil)
		fr.wfarMin = append(fr.wfarMin[:cap(fr.wfarMin)], 0)
		fr.ready = append(fr.ready[:cap(fr.ready)], nil)
		fr.rdHead = append(fr.rdHead[:cap(fr.rdHead)], 0)
	}
	fr.wring = fr.wring[:clusters]
	fr.wringCnt = fr.wringCnt[:clusters]
	fr.wringMin = fr.wringMin[:clusters]
	fr.wfar = fr.wfar[:clusters]
	fr.wfarMin = fr.wfarMin[:clusters]
	fr.ready = fr.ready[:clusters]
	fr.rdHead = fr.rdHead[:clusters]
	for c := range fr.wring {
		// Slots appended (or first exposed by the reslice) above start as
		// zero values; reset() establishes the list state and the
		// wringMin/wfarMin sentinels, but the bucket array must exist.
		if fr.wring[c] == nil {
			fr.wring[c] = make([][]uint32, fusedWakeRingSize)
		}
	}
	return fr
}

func putFusedRun(fr *fusedRun) {
	if fr != nil {
		fusedRunPool.Put(fr)
	}
}

// reset restores the pre-run state: just the per-cluster lists — the
// packed records are first-touch initialized at dispatch (fusedEnqueue)
// instead of bulk-cleared, which saves streaming the whole array twice
// per run.
func (fr *fusedRun) reset() {
	for c := range fr.wring {
		if fr.wringCnt[c] != 0 {
			// Only reachable after an aborted run: a completed run
			// drains every bucket (and resets the mins) on its own.
			ring := fr.wring[c]
			for b := range ring {
				ring[b] = ring[b][:0]
			}
			fr.wringCnt[c] = 0
		}
		fr.wringMin[c] = wakeNone
		fr.wfar[c] = fr.wfar[c][:0]
		fr.wfarMin[c] = wakeNone
		fr.ready[c] = fr.ready[c][:0]
		fr.rdHead[c] = 0
	}
}

// fusedWakeRingSize is the calendar ring span in cycles; it must exceed
// the longest single wake distance (bounded by agen + L1 miss + the
// inter-cluster broadcast delay, all far below this) — pushes further
// out fall back to the wfar overflow list.
const fusedWakeRingSize = 256

// wakeNone is the "no pending maturation" sentinel for wringMin/wfarMin
// (above any reachable cycle; fusedCycleCap bounds real cycles).
const wakeNone = int64(1) << 62

// fusedPushWake adds seq (maturing at ready) to cluster c's wake ring.
func (m *Machine) fusedPushWake(c int, ready, seq int64) {
	fr := m.fr
	if ready-m.cycle < fusedWakeRingSize {
		b := ready & (fusedWakeRingSize - 1)
		fr.wring[c][b] = append(fr.wring[c][b], uint32(seq))
		fr.wringCnt[c]++
		if ready < fr.wringMin[c] {
			fr.wringMin[c] = ready
		}
		return
	}
	fr.wfar[c] = append(fr.wfar[c], uint64(ready)<<32|uint64(uint32(seq)))
	if ready < fr.wfarMin[c] {
		fr.wfarMin[c] = ready
	}
}

// fusedDrainWake matures every cluster-c wake entry with ready <= t into
// the ready list. Bucket order is push order, not seq order like the old
// heap pop — sound because fusedInsertReady builds the same sorted list
// (unique keys) from any insertion order.
func (m *Machine) fusedDrainWake(c int, t int64) {
	fr := m.fr
	st := fr.st
	for fr.wringMin[c] <= t {
		cyc := fr.wringMin[c]
		b := cyc & (fusedWakeRingSize - 1)
		bucket := fr.wring[c][b]
		for _, seq := range bucket {
			m.fusedInsertReady(c, uint64(st[seq].prio)<<32|uint64(seq))
		}
		fr.wringCnt[c] -= int32(len(bucket))
		fr.wring[c][b] = bucket[:0]
		if fr.wringCnt[c] == 0 {
			fr.wringMin[c] = wakeNone
			break
		}
		// Pending entries all mature within fusedWakeRingSize cycles of
		// their push, so the next occupied bucket is at most a full lap
		// away and this scan terminates.
		for {
			cyc++
			if len(fr.wring[c][cyc&(fusedWakeRingSize-1)]) != 0 {
				break
			}
		}
		fr.wringMin[c] = cyc
	}
	if fr.wfarMin[c] <= t {
		far := fr.wfar[c]
		kept := far[:0]
		min := wakeNone
		for _, k := range far {
			if r := int64(k >> 32); r > t {
				if r < min {
					min = r
				}
				kept = append(kept, k)
				continue
			}
			seq := uint32(k)
			m.fusedInsertReady(c, uint64(st[seq].prio)<<32|uint64(seq))
		}
		fr.wfar[c] = kept
		fr.wfarMin[c] = min
	}
}

// fusedInsertReady inserts key into cluster c's sorted ready window
// (ready[c][rdHead[c]:]), shifting whichever side is cheaper: the gap
// the compacted prefix leaves below rdHead takes left-shifts for free.
func (m *Machine) fusedInsertReady(c int, key uint64) {
	fr := m.fr
	head := int(fr.rdHead[c])
	rl := fr.ready[c]
	act := rl[head:]
	lo, hi := 0, len(act)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if act[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if head > 0 && lo <= len(act)-lo {
		copy(rl[head-1:], rl[head:head+lo])
		rl[head-1+lo] = key
		fr.rdHead[c] = int32(head - 1)
		return
	}
	rl = append(rl, 0)
	act = rl[head:]
	copy(act[lo+1:], act[lo:])
	act[lo] = key
	fr.ready[c] = rl
}

// fusedIssue is issue() on the packed structures: mature wake-heap
// entries into the ready lists, merge-select, compact issued prefixes.
func (m *Machine) fusedIssue() {
	fr := m.fr
	avail := 0
	for c := range m.clusters {
		if fr.wringMin[c] <= m.cycle || fr.wfarMin[c] <= m.cycle {
			m.fusedDrainWake(c, m.cycle)
		}
		rlen := len(fr.ready[c]) - int(fr.rdHead[c])
		if m.kern == nil {
			// Only SteerView consumers read readyCount; kernel-steered
			// replays never construct a view.
			m.readyCount[c] = rlen
		}
		avail += rlen
	}
	if avail == 0 {
		if m.dispatched > m.commitIdx || m.dispHead < int64(m.tr.Len()) {
			m.ilpAvail[0]++
		}
		return
	}
	var issued int
	if len(m.clusters) == 1 {
		issued = m.fusedIssueMergeMono()
	} else {
		issued = m.fusedIssueMerge(avail)
	}
	if issued > 0 {
		m.fusedCompactReadyPrefix()
	}
	bucket := avail
	if bucket > MaxILPBucket {
		bucket = MaxILPBucket
	}
	m.ilpAvail[bucket]++
	m.ilpIssued[bucket] += int64(issued)
}

// fusedIssueMerge is issueMerge over packed keys: one uint64 compare
// replaces the (prio, seq) pair compare, with identical order and the
// same width/FU budget behavior (an FU-blocked head is skipped with the
// cursor advanced and its width slot preserved, exactly as the solo
// merge does).
func (m *Machine) fusedIssueMerge(avail int) int {
	fr := m.fr
	nc := len(m.clusters)
	// Persistent merge scratch (nc <= fusedMaxClusters by admission):
	// heads[c] caches cluster c's next key, or noHead once the cluster is
	// out of candidates or width, so the selection scan is compare-only.
	const noHead = ^uint64(0) // above any real key (prio<<32|seq < 2^48)
	budgets := &fr.mergeBudgets
	lists := &fr.mergeLists
	heads := &fr.mergeHeads
	var cursors [fusedMaxClusters]int32
	widthLeft := 0
	for c := 0; c < nc; c++ {
		budgets[c] = issueBudget{m.cfg.IssuePerCluster, m.cfg.IntPerCluster, m.cfg.FPPerCluster, m.cfg.MemPerCluster}
		widthLeft += m.cfg.IssuePerCluster
		lists[c] = fr.ready[c][fr.rdHead[c]:]
		heads[c] = noHead
		if len(lists[c]) > 0 && budgets[c].width > 0 {
			heads[c] = lists[c][0]
		}
	}
	fu := m.soa.fu
	issued := 0
	for widthLeft > 0 && avail > 0 {
		best, bestKey := -1, noHead
		for c := 0; c < nc; c++ {
			if k := heads[c]; k < bestKey {
				best, bestKey = c, k
			}
		}
		if best == -1 {
			break
		}
		cur := int(cursors[best]) + 1
		cursors[best] = int32(cur)
		if cur < len(lists[best]) {
			heads[best] = lists[best][cur]
		} else {
			heads[best] = noHead
		}
		avail-- // consumed from the merge's view, issued or FU-blocked
		seq := int64(uint32(bestKey))
		b := &budgets[best]
		switch isa.FU(fu[seq]) {
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
		if b.width == 0 {
			heads[best] = noHead
		}
		m.fusedIssueOne(seq, best)
		issued++
	}
	for c := 0; c < nc; c++ {
		m.cursors[c] = int(cursors[c])
	}
	return issued
}

// fusedIssueMergeMono is the merge for a single cluster: the global
// (prio, seq) minimum is simply the next entry of the one sorted list,
// so selection is a linear walk under the same width and FU budgets.
func (m *Machine) fusedIssueMergeMono() int {
	rl := m.fr.ready[0][m.fr.rdHead[0]:]
	fu := m.soa.fu
	b := issueBudget{m.cfg.IssuePerCluster, m.cfg.IntPerCluster, m.cfg.FPPerCluster, m.cfg.MemPerCluster}
	issued, cur := 0, 0
	for cur < len(rl) && b.width > 0 {
		seq := int64(uint32(rl[cur]))
		cur++
		switch isa.FU(fu[seq]) {
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
		m.fusedIssueOne(seq, 0)
		issued++
	}
	m.cursors[0] = cur
	return issued
}

// fusedIssueOne is issueOne reading packed state. Event-record fields
// are written through at the same point as the solo path — or, for
// deferred variants (frDeferred: a steering kernel and no mid-run event
// readers), only recorded in the packed state and emitted once by
// fusedFinalize's sequential pass, which removes the loop's only
// scattered event-log writes. Either way the final log is byte-identical
// to a solo run.
func (m *Machine) fusedIssueOne(seq int64, cluster int) {
	fr := m.fr
	fs := &fr.st[seq]

	fl := m.soa.flags[seq]
	lat := int64(m.soa.lat[seq])
	l1miss := false
	if fl&soaLoad != 0 {
		accessLat, hit := m.l1.Access(m.tr.Insts[seq].Addr)
		if !hit {
			l1miss = true
		}
		lat = loadAgenCycles + int64(accessLat)
	} else if fl&soaStore != 0 {
		m.l1.Access(m.tr.Insts[seq].Addr) // write-allocate; latency hidden by commit
	}
	complete := m.cycle + lat
	var remoteAvail int64
	if m.cfg.Clusters > 1 && fl&(soaHasDst|soaStore) != 0 {
		bcast := complete
		if m.cfg.BypassPerCluster > 0 {
			bcast = m.broadcastSlot(cluster, bcast)
		}
		remoteAvail = bcast + int64(m.cfg.FwdLatency)
	} else {
		remoteAvail = complete + int64(m.cfg.FwdLatency)
	}
	if remoteAvail >= fusedCycleCap {
		// Unreachable under the fusedMaxInsts admission bound; a panic
		// beats silently truncating a cycle into an int32.
		panic("machine: fused issue engine cycle overflow")
	}
	fs.complete = int32(complete)
	fs.remoteAvail = int32(remoteAvail)
	fs.issue = int32(m.cycle)
	fs.flags |= fIssued
	if l1miss {
		fs.flags |= fL1Miss
	}
	if !m.frDeferred {
		ev := &m.events[seq]
		ev.Ready = int64(fs.ready)
		ev.Issue = m.cycle
		ev.CritProducer = int64(fs.crit) // -1 is Unset
		ev.CritProducerRemote = fs.flags&fCritRemote != 0
		ev.Complete = complete
		ev.RemoteAvail = remoteAvail
		if l1miss {
			ev.L1Miss = true
		}
	}

	if m.cfg.Clusters > 1 {
		// Global-value counting: a no-op on mono geometries (producer and
		// consumer clusters always match), so the walk is skipped there.
		myCl := fs.cluster
		off := m.soa.prodOff
		for _, p32 := range m.soa.prodIdx[off[seq]:off[seq+1]] {
			ps := &fr.st[p32]
			if ps.cluster != myCl && ps.flags&fGlobalCounted == 0 {
				ps.flags |= fGlobalCounted
				if !m.frDeferred {
					m.events[p32].markGlobalCounted()
				}
				m.globalValues++
			}
		}
	}

	m.fusedWakeConsumers(seq)

	if seq == m.blockingBranch {
		m.fetchResume = complete + 1
		m.redirectFrom = seq
		m.blockingBranch = Unset
	}
	m.clusters[cluster].occ--
	m.lastIssuedFrom[cluster] = seq
	if m.kern == nil {
		m.pol.OnIssue(seq, cluster)
	}
}

// fusedFinalize emits the issue-time event fields a deferred replay
// kept only in packed state: one sequential pass over two dense arrays,
// writing exactly what the live write-through would have written. Under
// frNoReset (where NO stage touched the event log at all) it instead
// materializes every event whole.
func (m *Machine) fusedFinalize() {
	if m.frNoReset {
		m.fusedFinalizeFull()
		return
	}
	fr := m.fr
	for i := range m.events {
		ev := &m.events[i]
		fs := &fr.st[i]
		ev.Ready = int64(fs.ready)
		ev.Issue = int64(fs.issue)
		ev.Complete = int64(fs.complete)
		ev.RemoteAvail = int64(fs.remoteAvail)
		ev.CritProducer = int64(fs.crit)
		ev.CritProducerRemote = fs.flags&fCritRemote != 0
		ev.L1Miss = fs.flags&fL1Miss != 0
		ev.globalDone = fs.flags&fGlobalCounted != 0
	}
}

// fusedFinalizeFull writes the entire event log in one streaming pass.
// Under frNoReset the pipeline stages never touch m.events: fetch,
// dispatch and commit facts live in the fusedRun side arrays, issue
// facts in the packed fseq state, and the conditionally-written fields
// are reconstructed — Mispredicted from the shared front-end profile
// (fetch only ever set it when true; the reset used to supply the
// false) and PredCritical/LoCLevel from the kernel memos, which
// frDeferred guarantees exist whenever the respective predictor hook
// does (buildKernel's memo condition is implied by frDeferred's). Each
// event is stored exactly once as a whole struct, so nothing from the
// elided pre-run clear can leak through.
func (m *Machine) fusedFinalizeFull() {
	fr := m.fr
	st := fr.st
	flags := m.soa.flags
	memoCrit, memoLoC := m.kern.predCrit, m.kern.locLevel
	hasCrit := m.binary != nil
	hasLoC := m.loc != nil
	for i := range m.events {
		fs := &st[i]
		ev := &m.events[i]
		ev.Fetch = int64(fr.fetchC[i])
		ev.Dispatch = int64(fs.dispatch)
		ev.Ready = int64(fs.ready)
		ev.Issue = int64(fs.issue)
		ev.Complete = int64(fs.complete)
		ev.Commit = int64(fr.commitC[i])
		ev.RemoteAvail = int64(fs.remoteAvail)
		ev.CritProducer = int64(fs.crit)
		ev.CritProducerRemote = fs.flags&fCritRemote != 0
		ev.DispatchBlocker = int64(fr.dispBlk[i])
		ev.FetchBlocker = int64(fr.fetchBlk[i])
		ev.Cluster = int16(fs.cluster)
		ev.DispatchReason = DispatchReason(fr.dispRsn[i])
		ev.FetchReason = FetchReason(fr.fetchRsn[i])
		ev.SteerTag = SteerTag(fr.steerTg[i])
		ev.Mispredicted = flags[i]&soaBranch != 0 && m.profile.mispredicted(int64(i))
		ev.L1Miss = fs.flags&fL1Miss != 0
		ev.PredCritical = hasCrit && memoCrit[i]
		ev.LoCLevel = 0
		if hasLoC {
			ev.LoCLevel = memoLoC[i]
		}
		ev.globalDone = fs.flags&fGlobalCounted != 0
	}
}

// fusedFetch is fetch for reset-elided replays: per-instruction facts
// go to the fusedRun side arrays instead of the event log, and the
// branch test reads the dense soa flag byte instead of the 64-byte
// trace record (the shared profile already holds the outcome).
func (m *Machine) fusedFetch() {
	n := int64(m.tr.Len())
	if m.nextFetch >= n || m.cycle < m.fetchResume {
		return
	}
	fr := m.fr
	flags := m.soa.flags
	redirect := m.redirectFrom
	m.redirectFrom = Unset
	cyc := int32(m.cycle)
	for w := 0; w < m.cfg.FetchWidth && m.nextFetch < n; w++ {
		seq := m.nextFetch
		fr.fetchC[seq] = cyc
		if redirect != Unset {
			fr.fetchRsn[seq] = uint8(FetchRedirect)
			fr.fetchBlk[seq] = int32(redirect)
		} else {
			fr.fetchRsn[seq] = uint8(FetchBW)
			if seq >= int64(m.cfg.FetchWidth) {
				fr.fetchBlk[seq] = int32(seq - int64(m.cfg.FetchWidth))
			} else {
				fr.fetchBlk[seq] = -1
			}
		}
		m.nextFetch++
		if flags[seq]&soaBranch != 0 {
			m.branches++
			if m.profile.mispredicted(seq) {
				m.mispredicts++
				m.blockingBranch = seq
				m.fetchResume = fetchBlocked
				return
			}
		}
	}
}

// fusedWakeConsumers mirrors wakeConsumers on the packed state, walking
// the trace's static consumer list instead of a per-run waiter ring. A
// consumer not yet dispatched is skipped — its enqueue will see this
// producer's completion and not count it — and a dispatched consumer
// counted this producer in pend, because issue (phase order) precedes
// dispatch within a cycle; the two bookkeeping schemes are therefore
// exactly equivalent.
func (m *Machine) fusedWakeConsumers(seq int64) {
	fr := m.fr
	off := m.soa.consOff
	dispHead := int32(m.dispHead)
	for _, w := range m.soa.consIdx[off[seq]:off[seq+1]] {
		if w >= dispHead {
			// Not yet in a window — and since consumer lists are in
			// program order and dispatch is in order, neither is any
			// later consumer (their packed records are still last
			// run's, another reason not to look).
			break
		}
		ws := &fr.st[w]
		ws.pend--
		if ws.pend == 0 {
			m.fusedWake(int64(w))
		}
	}
}

// fusedWake computes seq's now-final readiness (readyAt on the packed
// state — every producer has issued when this runs) and pushes it onto
// its cluster's wake heap.
func (m *Machine) fusedWake(seq int64) {
	fr := m.fr
	fs := &fr.st[seq]
	ready := fs.dispatch + 1
	crit := int32(-1)
	remote := false
	myCl := fs.cluster
	off := m.soa.prodOff
	for _, p32 := range m.soa.prodIdx[off[seq]:off[seq+1]] {
		ps := &fr.st[p32]
		avail := ps.complete
		rem := ps.cluster != myCl
		if rem {
			avail = ps.remoteAvail
		}
		if avail > ready || (avail == ready && crit < 0) {
			ready, crit, remote = avail, int32(p32), rem
		}
	}
	fs.ready, fs.crit = ready, crit
	if remote {
		fs.flags |= fCritRemote
	}
	m.fusedPushWake(int(myCl), int64(ready), seq)
}

// fusedEnqueue mirrors enqueue: it also records the dispatch-time facts
// (cycle, cluster, priority) in the packed state, which replaces the
// prio ring — priorities live per sequence number here. No waiters are
// registered: fusedWakeConsumers walks the static consumer lists. The
// pend count comes from the steering walk of this same dispatch
// iteration (m.steerPend) — every fused steering path records it, and
// no issue can intervene between steer and enqueue.
func (m *Machine) fusedEnqueue(seq int64, cluster int, prio uint16) {
	fr := m.fr
	fs := &fr.st[seq]
	// First touch of this record in the run: write it whole (st carries
	// the previous run's state; see the fusedRun.st comment).
	*fs = fseq{complete: -1, remoteAvail: -1, dispatch: int32(m.cycle),
		ready: -1, crit: -1, issue: -1, prio: prio, cluster: uint8(cluster)}
	if m.steerPend == 0 {
		m.fusedWake(seq)
		return
	}
	fs.pend = m.steerPend
}

// fusedCompactReadyPrefix removes just-issued keys from the ready-window
// prefixes the merge consumed (compactReadyPrefix on packed keys). The
// consumed prefix is dropped by advancing rdHead; FU-blocked survivors
// are right-compacted into the prefix end (order-preserving), so the
// untouched tail never moves.
func (m *Machine) fusedCompactReadyPrefix() {
	fr := m.fr
	st := fr.st
	for c := range m.clusters {
		cut := m.cursors[c]
		if cut == 0 {
			continue
		}
		head := int(fr.rdHead[c])
		rl := fr.ready[c]
		w := head + cut
		for i := w - 1; i >= head; i-- {
			if st[uint32(rl[i])].flags&fIssued == 0 {
				w--
				rl[w] = rl[i]
			}
		}
		fr.rdHead[c] = int32(w)
	}
}

// steerKernelPacked is steerKernel reading producer state from the
// packed arrays instead of the event log. Producers are always
// dispatched before their consumer reaches the steering stage (dispatch
// is in order), so every packed field it reads is valid.
func (m *Machine) steerKernelPacked(seq int64) Decision {
	if m.cfg.Clusters == 1 {
		return m.steerKernelMono(seq)
	}
	k := m.kern
	fr := m.fr
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
	pend := int32(0)
	off := m.soa.prodOff
	for _, p32 := range m.soa.prodIdx[off[seq]:off[seq+1]] {
		p := int64(p32)
		ps := &fr.st[p]
		// Piggyback the dispatch-pend count (unissued producers, raw
		// multiplicity like the waiter scheme's) on this walk so
		// fusedEnqueue need not redo it; no issue happens between the
		// steer and enqueue of one instruction, so the count is the one
		// enqueue would see.
		if ps.complete < 0 {
			pend++
		}
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
		if ps.complete >= 0 && int64(ps.remoteAvail) <= m.cycle {
			continue // not outstanding: collocation no longer matters
		}
		if group && int64(ps.dispatch) == m.cycle {
			continue // placed this very cycle: unseen by a group-steering circuit
		}
		cl := int(ps.cluster)
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
	m.steerPend = pend
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

// steerKernelMono is the single-cluster kernel: with one cluster the
// score cannot change the placement (every producer lives in cluster 0
// and dyadic spread is impossible), so the decision reduces to whether
// any producer is still outstanding (the tag) and whether the window
// has space (the stall) — plus the stall-over-steer hold, which with a
// full window returns the same stall decision either way. This is
// provably the generic kernel's output for Clusters == 1; the
// differential battery checks it on every 1-cluster fused variant.
func (m *Machine) steerKernelMono(seq int64) Decision {
	fr := m.fr
	group := m.cfg.GroupSteering
	outstanding := false
	pend := int32(0)
	off := m.soa.prodOff
	for _, p32 := range m.soa.prodIdx[off[seq]:off[seq+1]] {
		ps := &fr.st[p32]
		// Same piggybacked pend count as steerKernelPacked: one walk
		// serves both the steering question and fusedEnqueue.
		if ps.complete < 0 {
			pend++
		}
		if outstanding {
			continue
		}
		if ps.complete >= 0 && int64(ps.remoteAvail) <= m.cycle {
			continue
		}
		if group && int64(ps.dispatch) == m.cycle {
			continue
		}
		outstanding = true
	}
	m.steerPend = pend
	tag := SteerNoPref
	if outstanding {
		tag = SteerLocal
	}
	if m.kernOcc(0) < m.cfg.WindowPerCluster {
		return Decision{Cluster: 0, Tag: tag}
	}
	// Window full: the generic kernel stalls here no matter whether the
	// stall-over-steer hold fires (least-loaded has no space either).
	return Decision{Cluster: 0, Stall: true, Tag: tag}
}
