package main

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/experiments"
	"clustersim/internal/metrics"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans of one traced run share the run's clock origin.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps a traced run's spans in memory; they are written out with
// the result when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span and returns its duration. A nil tracer
// records nothing, which is how the untraced reference runs call the
// same code.
func (t *tracer) do(name, parent string, fn func()) time.Duration {
	s := time.Now()
	fn()
	e := time.Now()
	if t == nil {
		return e.Sub(s)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent,
		Start: s.Sub(t.t0).Seconds(), End: e.Sub(t.t0).Seconds()})
	return e.Sub(s)
}

// uncovered is the share of [from, to] (seconds since t0) that no span
// covers.
func (t *tracer) uncovered(from, to float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	iv := make([][2]float64, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > from && s.Start < to {
			iv = append(iv, [2]float64{max(s.Start, from), min(s.End, to)})
		}
	}
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	covered, reach := 0.0, from
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		covered += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return 1 - covered/(to-from)
}

// driver is one experiment of `clustersim all`: run computes the result
// and returns the call that renders it.
type driver struct {
	name string
	run  func(experiments.Options) (func(io.Writer), error)
}

func renderer[T interface{ Render(io.Writer) }](f func(experiments.Options) (T, error)) func(experiments.Options) (func(io.Writer), error) {
	return func(o experiments.Options) (func(io.Writer), error) {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		return r.Render, nil
	}
}

// allDrivers lists `clustersim all` in its order, calling the same
// drivers and Render methods the CLI does (fig6 renders fig5's result).
func allDrivers() []driver {
	var fig5 *experiments.Figure5Result
	fig5Run := func(o experiments.Options) (*experiments.Figure5Result, error) {
		if fig5 != nil {
			return fig5, nil
		}
		r, err := experiments.Figure5(o)
		fig5 = r
		return r, err
	}
	return []driver{
		{"config", func(experiments.Options) (func(io.Writer), error) { return experiments.ConfigTable, nil }},
		{"fig2", renderer(experiments.Figure2)},
		{"fig2-attrib", renderer(experiments.AttributeFigure2)},
		{"fig4", renderer(experiments.Figure4)},
		{"fig5", renderer(fig5Run)},
		{"fig6", func(o experiments.Options) (func(io.Writer), error) {
			r, err := fig5Run(o)
			if err != nil {
				return nil, err
			}
			return r.RenderFigure6, nil
		}},
		{"fig8", renderer(experiments.Figure8)},
		{"fig14", renderer(experiments.Figure14)},
		{"fig15", renderer(experiments.Figure15)},
		{"loc-oracle", renderer(experiments.LoCOracle)},
		{"consumers", renderer(experiments.Consumers)},
		{"fwd-sweep", renderer(experiments.FwdSweep)},
		{"stall-sweep", renderer(experiments.StallSweep)},
		{"slack", renderer(experiments.SlackStudy)},
		{"detector-compare", renderer(experiments.DetectorCompare)},
		{"window-sweep", renderer(experiments.WindowSweep)},
		{"bandwidth-sweep", renderer(experiments.BandwidthSweep)},
		{"replication", renderer(experiments.Replication)},
		{"icost", renderer(experiments.ICost)},
		{"group-steer", renderer(experiments.GroupSteer)},
		{"predictor-sweep", renderer(experiments.PredictorSweep)},
		{"workloads", renderer(experiments.Characterize)},
		{"future-work", renderer(experiments.FutureWork)},
	}
}

// addSummary accumulates the delta between two engine summaries.
func (e *engineBusy) addSummary(a, b engine.Summary) {
	e.SimJobs += b.SimJobs - a.SimJobs
	e.TraceJobs += b.TraceJobs - a.TraceJobs
	e.AnaJobs += b.AnaJobs - a.AnaJobs
	e.SchedJobs += b.SchedJobs - a.SchedJobs
	e.SimCPU += float64(b.SimWallNs-a.SimWallNs) / 1e9
	e.TraceCPU += float64(b.TraceWallNs-a.TraceWallNs) / 1e9
	e.AnaCPU += float64(b.AnaWallNs-a.AnaWallNs) / 1e9
	e.SchedCPU += float64(b.SchedWallNs-a.SchedWallNs) / 1e9
	e.ReplayBusy += float64(b.ReplayBusyNs-a.ReplayBusyNs) / 1e9
	e.SimInsts += b.SimInsts - a.SimInsts
	e.SimHits += b.SimHits - a.SimHits
	e.SimDiskHits += b.SimDiskHits - a.SimDiskHits
	e.SimMisses += b.SimMisses - a.SimMisses
	e.AnaHits += b.AnaHits - a.AnaHits
	e.AnaDiskHits += b.AnaDiskHits - a.AnaDiskHits
	e.AnaMisses += b.AnaMisses - a.AnaMisses
	e.SchedHits += b.SchedHits - a.SchedHits
	e.SchedDiskHits += b.SchedDiskHits - a.SchedDiskHits
	e.SchedMisses += b.SchedMisses - a.SchedMisses
	e.Evictions += b.Evictions - a.Evictions
	e.DiskErrors += b.DiskErrors - a.DiskErrors
	e.ResidentMiB = float64(b.CacheBytes) / (1 << 20)
	if e.SimCPU > 0 {
		e.MinstPerCPUs = float64(e.SimInsts) / 1e6 / e.SimCPU
	}
}

// tracedReproResult is one in-process `all` run with a span per
// experiment and a child span per Render call.
type tracedReproResult struct {
	Wall    time.Duration
	Output  []byte // normalized: what the CLI prints minus `[took]` lines
	Busy    engineBusy
	ExpSelf map[string]float64 // experiment span minus its render child, seconds
	RenderS float64
}

// tracedRepro runs every experiment of `all` in this process on an
// engine configured like the CLI's, against cacheDir; with a nil tracer
// it is the untraced reference the tracing overhead is measured against.
func tracedRepro(t *tracer, seed uint64, cacheDir string) (tracedReproResult, error) {
	res := tracedReproResult{ExpSelf: map[string]float64{}}
	eng := engine.New(engine.Config{
		Workers:       runtime.GOMAXPROCS(0),
		CacheDir:      cacheDir,
		MaxCacheBytes: reproCacheMiB << 20,
		Metrics:       metrics.NewRegistry(),
	})
	opts := experiments.Options{Insts: reproInsts, Seed: seed, Fwd: 2, Engine: eng}
	var out bytes.Buffer
	start := time.Now()
	for _, d := range allDrivers() {
		name := "experiments." + d.name
		var err error
		before := eng.Summary()
		var render time.Duration
		total := t.do(name, "", func() {
			var r func(io.Writer)
			if r, err = d.run(opts); err != nil {
				return
			}
			render = t.do("experiments.render", name, func() { r(&out) })
			out.WriteString("\n") // the blank line the CLI prints after `[<exp> took]`
		})
		if err != nil {
			return res, err
		}
		res.Busy.addSummary(before, eng.Summary())
		res.ExpSelf[d.name] = (total - render).Seconds()
		res.RenderS += render.Seconds()
	}
	res.Wall = time.Since(start)
	res.Output = out.Bytes()
	return res, nil
}
