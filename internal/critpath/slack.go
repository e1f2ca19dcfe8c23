package critpath

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"clustersim/internal/machine"
)

// Slack analysis (Fields, Bodik & Hill, ISCA'02), which Section 4 of the
// paper contrasts with likelihood of criticality: global slack is the
// number of cycles an instruction's completion could be delayed without
// lengthening the whole execution. The paper argues slack is hard to use
// as a *static* property because different dynamic instances of one
// instruction have wildly different slack (a branch has zero slack when
// mispredicted and window-sized slack otherwise); the statistics below
// quantify exactly that.

// ComputeSlack returns the global slack, in cycles, of every committed
// instruction of a finished run: lct(E(i)) − complete(i), where lct is
// the latest completion time that would not delay the final commit,
// computed by a backward relaxation over the full recorded constraint
// graph (all dependence, pipeline, window and misprediction edges — not
// just the last-arriving ones).
func ComputeSlack(m *machine.Machine) ([]int64, error) {
	ev := m.Events()
	n := len(ev)
	if n == 0 {
		return nil, fmt.Errorf("critpath: empty run")
	}
	if ev[n-1].Commit <= 0 {
		return nil, fmt.Errorf("critpath: run not complete")
	}
	cfg := m.Config()
	tr := m.Trace()

	const inf = int64(math.MaxInt64 / 4)
	lctD := make([]int64, n)
	lctE := make([]int64, n)
	lctC := make([]int64, n)
	for i := range lctD {
		lctD[i] = inf
		lctE[i] = inf
		lctC[i] = inf
	}
	lctC[n-1] = ev[n-1].Commit

	relax := func(target *int64, v int64) {
		if v < *target {
			*target = v
		}
	}

	// Each node contributes two kinds of in-edges to the relaxation:
	// structural edges with minimal weights (dataflow, pipeline depth,
	// in-order constraints — what *must* hold in any execution), and the
	// node's recorded last-arriving edge with its exact observed weight.
	// The latter keeps the true critical chain tight (zero slack along
	// it, matching the walker), while the former lets off-path work show
	// its real tolerance.
	var prodBuf []int32
	for i := n - 1; i >= 0; i-- {
		e := &ev[i]

		// In-edges of C(i).
		relax(&lctE[i], lctC[i]-1) // commit >= complete + 1
		if i > 0 {
			relax(&lctC[i-1], lctC[i]) // in-order commit (structural)
			if e.Commit != e.Complete+1 {
				// Last-arriving: blocked behind the previous commit.
				relax(&lctC[i-1], lctC[i]-(e.Commit-ev[i-1].Commit))
			}
		}

		// In-edges of E(i).
		lat := e.Complete - e.Issue
		relax(&lctD[i], lctE[i]-1-lat) // complete >= dispatch + 1 + lat (structural)
		prodBuf = tr.Producers(i, prodBuf[:0])
		for _, p := range prodBuf {
			w := lat
			if ev[p].Cluster != e.Cluster {
				w += ev[p].RemoteAvail - ev[p].Complete
			}
			relax(&lctE[p], lctE[i]-w)
		}
		if e.CritProducer != machine.Unset {
			// Last-arriving operand, exact (includes contention wait).
			relax(&lctE[e.CritProducer], lctE[i]-(e.Complete-ev[e.CritProducer].Complete))
		} else {
			relax(&lctD[i], lctE[i]-(e.Complete-e.Dispatch))
		}

		// In-edges of D(i).
		if i > 0 {
			relax(&lctD[i-1], lctD[i]) // in-order dispatch (structural)
		}
		if e.FetchReason == machine.FetchRedirect && e.FetchBlocker != machine.Unset {
			// branch resolve -> refetch -> dispatch PipelineDepth later
			relax(&lctE[e.FetchBlocker], lctD[i]-int64(cfg.PipelineDepth)-1)
		}
		if i >= cfg.FetchWidth {
			relax(&lctD[i-cfg.FetchWidth], lctD[i]-1) // fetch bandwidth
		}
		if i >= cfg.ROBSize {
			relax(&lctC[i-cfg.ROBSize], lctD[i]) // ROB recycling
		}
		// Last-arriving dispatch edge, exact.
		switch e.DispatchReason {
		case machine.DispPipeline:
			if e.FetchReason == machine.FetchRedirect && e.FetchBlocker != machine.Unset {
				relax(&lctE[e.FetchBlocker], lctD[i]-(e.Dispatch-ev[e.FetchBlocker].Complete))
			} else if e.FetchBlocker != machine.Unset {
				relax(&lctD[e.FetchBlocker], lctD[i]-(e.Dispatch-ev[e.FetchBlocker].Dispatch))
			}
		case machine.DispWidth:
			if e.DispatchBlocker >= 0 {
				relax(&lctD[e.DispatchBlocker], lctD[i]-(e.Dispatch-ev[e.DispatchBlocker].Dispatch))
			}
		case machine.DispROB:
			if e.DispatchBlocker >= 0 {
				relax(&lctC[e.DispatchBlocker], lctD[i]-(e.Dispatch-ev[e.DispatchBlocker].Commit))
			}
		case machine.DispWindow:
			if e.DispatchBlocker >= 0 {
				b := e.DispatchBlocker
				relax(&lctE[b], lctD[i]-(e.Dispatch-ev[b].Issue)-(ev[b].Complete-ev[b].Issue))
			}
		}
	}

	slack := make([]int64, n)
	for i := range slack {
		s := lctE[i] - ev[i].Complete
		if s < 0 {
			s = 0 // rounding of approximated edges; clamp
		}
		if s > inf/2 {
			s = inf / 2
		}
		slack[i] = s
	}
	return slack, nil
}

// SlackBuckets labels HistogramSlack's bins.
var SlackBuckets = [8]string{"0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64+"}

// HistogramSlack bins slack values into power-of-two buckets (see
// SlackBuckets) — a compact, cacheable view of the distribution.
func HistogramSlack(slack []int64) [8]int64 {
	var h [8]int64
	for _, s := range slack {
		b := bits.Len64(uint64(s))
		if b > 7 {
			b = 7
		}
		h[b]++
	}
	return h
}

// SlackSummary aggregates a run's slack distribution and its per-static-
// instruction variability.
type SlackSummary struct {
	MeanSlack   float64
	ZeroFrac    float64 // slack == 0: the critical and near-critical core
	GEFwdFrac   float64 // slack >= the forwarding latency: tolerates one hop
	GE10Frac    float64 // slack >= 10 cycles: tolerates several hops
	MedianSlack int64

	// StaticStdDev is the dynamic-instance-weighted mean, over static
	// instructions, of the per-PC slack standard deviation — the paper's
	// reason slack resists a static summary.
	StaticStdDev float64
	// BimodalBranchFrac is the fraction of mispredicted-branch instances
	// with zero slack (the paper: "branches, when mispredicted, have no
	// slack; when predicted correctly their slack is very large").
	BimodalBranchFrac float64
}

// SummarizeSlack computes SlackSummary for a finished run.
func SummarizeSlack(m *machine.Machine, slack []int64) SlackSummary {
	ev := m.Events()
	tr := m.Trace()
	cfg := m.Config()
	n := len(slack)
	var s SlackSummary
	if n == 0 {
		return s
	}

	s.MedianSlack = nthSmallest(slices.Clone(slack), n/2)

	// Number the static instructions in first-seen order: slot[i] is
	// instance i's, count[k] how many instances static k has.
	slotOf := map[uint64]int32{}
	var pcs []uint64
	var count []int32
	slot := make([]int32, n)
	var sum float64
	var zero, geFwd, ge10 int
	var misBr, misBrZero int
	for i := 0; i < n; i++ {
		sum += float64(slack[i])
		if slack[i] == 0 {
			zero++
		}
		if slack[i] >= int64(cfg.FwdLatency) {
			geFwd++
		}
		if slack[i] >= 10 {
			ge10++
		}
		pc := tr.Insts[i].PC
		k, ok := slotOf[pc]
		if !ok {
			k = int32(len(pcs))
			slotOf[pc] = k
			pcs = append(pcs, pc)
			count = append(count, 0)
		}
		slot[i] = k
		count[k]++
		if ev[i].Mispredicted {
			misBr++
			if slack[i] == 0 {
				misBrZero++
			}
		}
	}
	s.MeanSlack = sum / float64(n)
	s.ZeroFrac = float64(zero) / float64(n)
	s.GEFwdFrac = float64(geFwd) / float64(n)
	s.GE10Frac = float64(ge10) / float64(n)
	if misBr > 0 {
		s.BimodalBranchFrac = float64(misBrZero) / float64(misBr)
	}

	// Lay the slack values out grouped by static instruction, PCs
	// ascending and each PC's values in program order, then sum in that
	// order: in any other order the float sums, and so the cached
	// summary, would differ between runs in their last bits.
	byPC := make([]int32, len(pcs))
	for k := range byPC {
		byPC[k] = int32(k)
	}
	slices.SortFunc(byPC, func(a, b int32) int { return cmp.Compare(pcs[a], pcs[b]) })
	next := make([]int32, len(pcs))
	var off int32
	for _, k := range byPC {
		next[k] = off
		off += count[k]
	}
	grouped := make([]int64, n)
	for i, k := range slot {
		grouped[next[k]] = slack[i]
		next[k]++
	}
	var weighted, weight float64
	off = 0
	for _, k := range byPC {
		xs := grouped[off : off+count[k]]
		off += count[k]
		if len(xs) < 8 {
			continue
		}
		var mean float64
		for _, x := range xs {
			mean += float64(x)
		}
		mean /= float64(len(xs))
		var varsum float64
		for _, x := range xs {
			d := float64(x) - mean
			varsum += d * d
		}
		sd := math.Sqrt(varsum / float64(len(xs)))
		weighted += sd * float64(len(xs))
		weight += float64(len(xs))
	}
	if weight > 0 {
		s.StaticStdDev = weighted / weight
	}
	return s
}

// nthSmallest returns the k-th smallest of xs (0-based), reordering xs.
// It is a quickselect with three-way partitioning, so the long runs of
// equal values slack distributions have (zero above all) cost one pass.
func nthSmallest(xs []int64, k int) int64 {
	lo, hi := 0, len(xs)
	for {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c)) // median of three
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
}
