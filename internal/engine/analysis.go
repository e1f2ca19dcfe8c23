package engine

import (
	"context"
	"fmt"

	"clustersim/internal/critpath"
	"clustersim/internal/machine"
)

// analysisVersion versions the derived-analysis schema. It is folded into
// the analysis cache key (alongside schemaVersion), so changing what a
// CritSummary contains — or how critpath computes it — invalidates cached
// analyses without touching the simulation artifacts they derive from.
const analysisVersion = 1

// CritSummary is the cacheable critical-path analysis of one simulation:
// the Figure 5 breakdown, the Figure 6 event counters, the full
// interaction-cost lattice, and the slack distribution. It is a pure
// value derived deterministically from the run, so it is cached alongside
// the run's own artifacts (memory and disk) and shared by every driver
// that needs any part of it — Figure 5, Figure 6, the icost table and the
// slack study stop recomputing each other's walks.
type CritSummary struct {
	Breakdown critpath.Breakdown

	// Figure 6 event counts from the walk.
	ContentionCritical int64
	ContentionOther    int64
	FwdLoadBal         int64
	FwdDyadic          int64
	FwdOther           int64

	// Matrix is the full 2^4 interaction-cost lattice (one fused replay).
	Matrix critpath.InteractionMatrix

	// Slack summarizes the global-slack distribution; SlackHist bins it
	// (see critpath.SlackBuckets).
	Slack     critpath.SlackSummary
	SlackHist [8]int64
}

// Interaction returns the legacy forwarding/contention pairwise analysis.
func (cs *CritSummary) Interaction() critpath.InteractionCosts {
	return cs.Matrix.Interaction()
}

// analysisCanon derives the analysis cache key from the simulation key.
func analysisCanon(key SimKey) string {
	return fmt.Sprintf("%s|analysis=v%d", key.String(), analysisVersion)
}

// Analysis returns the critical-path analysis for key's run, computing it
// at most once per process (and at most once per CacheDir across
// processes). On a full miss it simulates key with run inside the key's
// simulation flight — shared with any concurrent Sim submission — and
// analyzes the live machine with a pooled critpath.Analyzer before the
// machine is recycled. The run's result is published as a result-only
// artifact, so a later NeedResult submission of key hits. run must
// return the live machine with its event log.
//
// The analysis is a value: a cached CritSummary never pins the
// machine's event log in memory.
func (e *Engine) Analysis(key SimKey, run func() (Run, error)) (CritSummary, error) {
	return e.AnalysisCtx(nil, key, run)
}

// AnalysisCtx is Analysis with a per-submission context: once ctx is
// cancelled this submission's misses fail fast without simulating or
// analyzing, while other submissions of the same engine are untouched. A
// nil ctx means no per-submission cancellation (the engine-wide
// SetContext still applies).
func (e *Engine) AnalysisCtx(ctx context.Context, key SimKey, run func() (Run, error)) (CritSummary, error) {
	canon := analysisCanon(key)
	for attempt := 0; ; attempt++ {
		cs, err := e.analysisOnce(ctx, canon, key, run)
		if err != nil {
			// A cancellation inherited from a foreign singleflight leader
			// must not fail this live submission (see SimCtx).
			if isCancellation(err) && e.checkCtx(ctx) == nil && attempt < maxForeignCancelRetries {
				continue
			}
			return CritSummary{}, err
		}
		return cs, nil
	}
}

// analysisOnce is one lookup-or-compute attempt of AnalysisCtx.
func (e *Engine) analysisOnce(ctx context.Context, canon string, key SimKey, run func() (Run, error)) (CritSummary, error) {
	e.mu.Lock()
	if ent := e.mem.get(canon); ent != nil && ent.crit != nil {
		fromJournal := ent.journal
		e.mu.Unlock()
		e.cAnaHit.Inc()
		if fromJournal {
			e.cResumeHit.Inc()
		}
		return *ent.crit, nil
	}
	e.mu.Unlock()

	v, err := e.doOnce(canon, e.cAnaHit, func() (any, error) {
		if e.diskAvailable() {
			if cs, ok := e.disk.loadAnalysis(canon); ok {
				e.cAnaDiskHit.Inc()
				e.mu.Lock()
				e.mem.putAnalysis(canon, cs)
				e.mu.Unlock()
				e.journalAnalysis(canon, cs)
				return cs, nil
			}
		}
		if err := e.checkCtx(ctx); err != nil {
			return nil, err
		}
		e.cAnaMiss.Inc()
		f, err := e.simFlight(ctx, key, needAnalysis, run)
		if err != nil {
			return nil, err
		}
		return f.crit, nil
	})
	if err != nil {
		return CritSummary{}, err
	}
	return *v.(*CritSummary), nil
}

// computeCritSummary runs every analysis pass over a finished machine
// with one pooled analyzer: the backward walk, the fused 16-scenario
// interaction replay, and the slack relaxation.
func computeCritSummary(m *machine.Machine) (*CritSummary, error) {
	az := critpath.NewAnalyzer()
	defer az.Recycle()
	a, err := az.AnalyzeRun(m)
	if err != nil {
		return nil, err
	}
	cs := &CritSummary{
		Breakdown:          a.Breakdown,
		ContentionCritical: a.ContentionCritical,
		ContentionOther:    a.ContentionOther,
		FwdLoadBal:         a.FwdLoadBal,
		FwdDyadic:          a.FwdDyadic,
		FwdOther:           a.FwdOther,
	}
	if cs.Matrix, err = az.InteractionMatrix(m); err != nil {
		return nil, err
	}
	slack, err := critpath.ComputeSlack(m)
	if err != nil {
		return nil, err
	}
	cs.Slack = critpath.SummarizeSlack(m, slack)
	cs.SlackHist = critpath.HistogramSlack(slack)
	return cs, nil
}
