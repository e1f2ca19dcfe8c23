package engine

import (
	"fmt"
	"time"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
)

// Run is one finished simulation as a job hands it to the engine: the
// live machine, its Result summary and, for TrackExact keys, the exact
// criticality tracker. The engine derives from M whatever the key's
// submitters asked for and then recycles M into the machine pool, so no
// cache entry and no Artifact ever holds a machine.
type Run struct {
	M     *machine.Machine
	Res   machine.Result
	Exact *predictor.Exact
}

// Artifact is what the engine keeps of one simulation: derived values
// only. Every artifact carries the Result summary; a TrackExact run also
// carries its exact criticality tracker, and a run submitted with
// NeedHarvest carries the list scheduler's input harvested from its
// event log. Artifacts are immutable once published, so drivers share
// them freely.
type Artifact struct {
	Res machine.Result

	exact   *predictor.Exact
	harvest *listsched.Input
}

// storedArtifact rebuilds an artifact from a disk-cache entry or a
// resume-journal record: the result and, when one was stored, the exact
// tracker's table.
func storedArtifact(res machine.Result, table *[][3]uint64) (*Artifact, error) {
	a := &Artifact{Res: res}
	if table != nil {
		x, err := predictor.ExactFromTable(*table)
		if err != nil {
			return nil, err
		}
		a.exact = x
	}
	return a, nil
}

// exactTable is what storedArtifact reads back: the exact tracker's
// table, nil without one.
func (a *Artifact) exactTable() *[][3]uint64 {
	if a.exact == nil {
		return nil
	}
	t := a.exact.Table()
	return &t
}

// Exact returns the unlimited-precision criticality tracker (nil unless
// the job's key set TrackExact; an entry stored before trackers were
// persisted carries none and is re-simulated for NeedExact).
func (a *Artifact) Exact() *predictor.Exact { return a.exact }

// Harvest returns the list scheduler's input harvested from the run
// (nil unless the artifact was published for a NeedHarvest submission).
// It shares the trace with the engine's trace cache; treat it as
// read-only.
func (a *Artifact) Harvest() *listsched.Input { return a.harvest }

// satisfies reports whether the artifact can serve every requested need.
func (a *Artifact) satisfies(need Need) bool {
	return (need&NeedHarvest == 0 || a.harvest != nil) &&
		(need&NeedExact == 0 || a.exact != nil)
}

// settle turns one finished run into the derived values need asks for —
// the harvested scheduler input for NeedHarvest, the critical-path
// summary for needAnalysis — and recycles the machine. Critical-path
// time is observed on the analysis timer, apart from simulation time.
func (e *Engine) settle(key SimKey, need Need, r Run) (*Artifact, *CritSummary, error) {
	defer machine.Recycle(r.M)
	if need&NeedExact != 0 && r.Exact == nil {
		return nil, nil, fmt.Errorf("engine: run for %s returned no exact tracker", key)
	}
	if need&derived != 0 && (r.M == nil || len(r.M.Events()) == 0) {
		return nil, nil, fmt.Errorf("engine: run for %s recorded no event log to derive %s from", key, need&derived)
	}
	a := &Artifact{Res: r.Res, exact: r.Exact}
	if need&NeedHarvest != 0 {
		in := listsched.FromMachineRun(r.M)
		a.harvest = &in
	}
	var cs *CritSummary
	if need&needAnalysis != 0 {
		start := time.Now()
		var err error
		if cs, err = computeCritSummary(r.M); err != nil {
			return nil, nil, err
		}
		e.tAna.Observe(time.Since(start))
	}
	return a, cs, nil
}

// Cost accounting for the memory cache, in bytes. Derived summaries and
// result-only artifacts are charged a flat baseCost; harvests and exact
// trackers are charged what they hold.
const (
	bytesPerInst = 64   // trace record plus dependence annotations
	baseCost     = 4096 // map entry, Result, bookkeeping
	// bytesPerExactPC is one static instruction in the exact tracker: an
	// entry in each of its two uint64→uint64 maps with table slack.
	bytesPerExactPC = 64
)

// artifactCost measures an artifact's resident size. A harvest is
// charged its four per-instruction slices; its trace belongs to (and is
// charged in) the trace cache.
func artifactCost(a *Artifact) int64 {
	cost := int64(baseCost)
	if in := a.harvest; in != nil {
		cost += 8*int64(len(in.Release)+len(in.Latency)+len(in.Complete)) + int64(len(in.Mispredicted))
	}
	if a.exact != nil {
		cost += bytesPerExactPC * int64(len(a.exact.PCs()))
	}
	return cost
}

func traceCost(insts int) int64 { return baseCost + int64(insts)*bytesPerInst }
