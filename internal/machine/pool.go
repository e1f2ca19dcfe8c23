package machine

import (
	"sync"

	"clustersim/internal/trace"
)

// pool recycles Machine allocation backbones (event log, cluster state,
// wakeup and broadcast rings) across runs. A simulation at paper scale
// allocates megabytes of per-instruction event records; engine jobs churn
// through thousands of such runs, so reusing them removes the dominant
// allocation source from the experiment hot path.
var pool = sync.Pool{New: func() any { return new(Machine) }}

// NewPooled is New drawing its storage from a process-wide pool: the
// returned machine's slices are recycled from earlier runs when their
// capacities fit. Call Recycle when done with the machine and everything
// reachable from it (Events, Trace).
func NewPooled(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks) (*Machine, error) {
	return newPooledOpt(cfg, tr, pol, hooks, false)
}

// newPooledOpt is NewPooled with the zero-materialization switch: when
// elide is set the machine never allocates its event log (Reinit keeps
// it empty). Only the variants replay path sets it, and only for
// variants whose whole run is proven event-log-free (frNoReset).
func newPooledOpt(cfg Config, tr *trace.Trace, pol SteerPolicy, hooks Hooks, elide bool) (*Machine, error) {
	m := pool.Get().(*Machine)
	m.elide = elide
	if err := m.Reinit(cfg, tr, pol, hooks); err != nil {
		m.elide = false
		pool.Put(m)
		return nil, err
	}
	return m, nil
}

// detachReplay drops the fused-replay state SimulateVariants attaches
// for one run: the batch's packed working set and the SoA, branch
// profile and kernel memos shared by every run over the trace. None of
// it is read after Run returns, and a machine that kept it would pin
// per-trace megabytes wherever the machine itself is retained.
func (m *Machine) detachReplay() {
	m.fused, m.profile, m.soa, m.kern = false, nil, nil, nil
	m.fr, m.frDeferred, m.frNoReset = nil, false, false
}

// Recycle returns m to the pool. The caller must drop every reference
// into m — including Events() slices and anything retaining them — before
// calling: a recycled machine may be rebound and rerun by any later
// NewPooled. Recycling a machine that did not come from NewPooled is
// allowed (the pool only grows). Recycle(nil) is a no-op.
func Recycle(m *Machine) {
	if m == nil {
		return
	}
	// Unpin everything the pool should not keep alive.
	m.tr = nil
	m.pol = nil
	m.binary, m.loc = nil, nil
	m.onEpoch, m.onCommitInst = nil, nil
	m.viewBuf = SteerView{producers: m.viewBuf.producers[:0]}
	m.detachReplay()
	m.elide = false
	pool.Put(m)
}
