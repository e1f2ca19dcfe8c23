// Package experiments contains one driver per table and figure of the
// paper's evaluation, built on the simulator, the critical-path analyzer
// and the idealized list scheduler. Every driver returns a structured
// result (for tests and benchmarks) that knows how to render itself as a
// terminal table mirroring the figure.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Figure2   — idealized list scheduling vs monolithic
//	Figure4   — focused steering & scheduling slowdowns
//	Figure5   — critical-path CPI breakdown
//	Figure6   — contention-stall and forwarding-delay event breakdowns
//	Figure8   — distribution of LoC values
//	Figure14  — the three policies (l, s, p bars) and their breakdown
//	Figure15  — achieved vs available ILP on 8x1w
//	LoCOracle — Section 4's list-scheduler priority-knowledge study
//	Consumers — Section 6's producer/consumer criticality statistics
package experiments

import (
	"context"
	"sync"

	"clustersim/internal/engine"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Benchmarks to run; nil means the paper's full twelve.
	Benchmarks []string
	// Insts is the dynamic instruction count per benchmark (the paper
	// uses 3×100M samples; the default here keeps the full suite
	// tractable on a laptop while preserving every trend).
	Insts int
	// Seed makes runs reproducible.
	Seed uint64
	// Fwd is the inter-cluster forwarding latency (the paper reports 2).
	Fwd int
	// EpochLen overrides the criticality-detector epoch.
	EpochLen int64
	// Engine executes and caches this run's jobs. Drivers sharing an
	// engine share traces and simulations: Figures 4, 5 and 14 all
	// submit the focused stack on the clustered configurations, and the
	// engine simulates each (benchmark, config, stack) exactly once.
	// Nil uses a process-wide default engine.
	Engine *engine.Engine
	// Ctx, when non-nil, is this run's per-submission context: once it
	// is cancelled the drivers' pending engine work fails fast, without
	// affecting other runs sharing the same engine (one tenant's job on
	// a server engine cancels alone). Nil means no per-run cancellation;
	// the engine-wide context from engine.SetContext still applies.
	Ctx context.Context
	// ReplayWorkers overrides the engine's intra-job variant fan-out
	// bound for this run (machine.SimulateVariantsOpts workers); <=0
	// uses engine.ReplayWorkers(). Results are byte-identical under any
	// value — this is purely a throughput/scheduling knob, which is why
	// it never enters cache keys.
	ReplayWorkers int
}

// defaultEngine serves Options with no explicit engine, so library
// callers and tests share work without any wiring.
var (
	defaultEngineOnce sync.Once
	defaultEngine     *engine.Engine
)

// engine returns the options' engine, falling back to the default.
func (o Options) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	defaultEngineOnce.Do(func() { defaultEngine = engine.New(engine.Config{}) })
	return defaultEngine
}

func (o Options) withDefaults() Options {
	if o.Benchmarks == nil {
		o.Benchmarks = workload.Names()
	}
	if o.Insts <= 0 {
		o.Insts = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Fwd <= 0 {
		o.Fwd = 2
	}
	return o
}

// Stack names a cumulative policy configuration from Figure 14.
type Stack string

const (
	// StackFocused is the baseline: Fields et al.'s focused steering and
	// scheduling with the binary criticality predictor.
	StackFocused Stack = "focused"
	// StackLoC adds LoC-based scheduling and steering (the "l" bars).
	StackLoC Stack = "l"
	// StackStall adds stall-over-steer (the "s" bars).
	StackStall Stack = "s"
	// StackProactive adds proactive load-balancing (the "p" bars).
	StackProactive Stack = "p"
	// StackDepBased is plain dependence-based steering with the default
	// scheduler and no criticality machinery: the constraint-harvesting
	// run behind the idealized list-scheduling studies (Figure 2 and
	// friends) and the workload characterization baseline.
	StackDepBased Stack = "depbased"
)

// Stacks returns the Figure 14 progression in order.
func Stacks() []Stack { return []Stack{StackFocused, StackLoC, StackStall, StackProactive} }

// seedFor derives a per-(benchmark, use) deterministic seed.
func seedFor(base uint64, bench string, use string) uint64 {
	h := base
	for _, c := range bench + "/" + use {
		h = h*1099511628211 + uint64(c)
	}
	return h
}

// genTrace returns the benchmark trace for opts via the engine's
// content-addressed trace cache; every driver submitting the same
// (bench, insts, seed) shares one generation.
func genTrace(opts Options, bench string) (*trace.Trace, error) {
	return loadTrace(opts, engine.TraceKey{Bench: bench, Insts: opts.Insts, Seed: opts.Seed})
}

// loadTrace returns the trace for key via the engine's trace cache.
func loadTrace(opts Options, key engine.TraceKey) (*trace.Trace, error) {
	return opts.engine().TraceCtx(opts.Ctx, key, func() (*trace.Trace, error) {
		return workload.Generate(key.Bench, key.Insts, key.Seed)
	})
}

// parBench runs fn once per benchmark on the engine's bounded worker
// pool and returns the results in benchmark order. Every benchmark's
// work is seeded independently, so parallel and serial runs produce
// identical results. The lowest-indexed error wins; a panicking fn is
// recovered and surfaced as an error instead of deadlocking the pool.
func parBench[T any](opts Options, fn func(bench string) (T, error)) ([]T, error) {
	return engine.MapCtx(opts.Ctx, opts.engine(), opts.Benchmarks, func(_ int, bench string) (T, error) {
		return fn(bench)
	})
}

// simKey builds the content-addressed job key for one simulation.
func simKey(opts Options, bench string, clusters int, stack Stack, trackExact bool) engine.SimKey {
	return engine.SimKey{
		Bench:      bench,
		Insts:      opts.Insts,
		Seed:       opts.Seed,
		Fwd:        opts.Fwd,
		EpochLen:   opts.EpochLen,
		Clusters:   clusters,
		Stack:      string(stack),
		TrackExact: trackExact,
	}
}

// sim submits one (benchmark, clusters, stack) simulation job to the
// engine. need declares which artifacts the caller reads — NeedResult
// alone lets disk-cached summaries satisfy the job without simulating.
// Identical jobs submitted by different figures simulate once.
func sim(opts Options, bench string, clusters int, stack Stack, trackExact bool, need engine.Need) (*engine.Artifact, error) {
	key := simKey(opts, bench, clusters, stack, trackExact)
	return opts.engine().SimCtx(opts.Ctx, key, need, func() (*engine.Artifact, error) {
		return simulateOne(opts, key, need&engine.NeedMachine != 0)
	})
}

// analysis submits one (benchmark, clusters, stack) run to the engine and
// returns its cached critical-path analysis (breakdown, interaction
// lattice, slack). Figure 5, Figure 6, the icost table and the slack
// study all resolve to the same analysis keys, so the walk, the fused
// 16-scenario replay and the slack relaxation each happen once per run —
// in any process with a warm disk cache, zero times.
func analysis(opts Options, bench string, clusters int, stack Stack) (engine.CritSummary, error) {
	key := simKey(opts, bench, clusters, stack, false)
	return opts.engine().AnalysisCtx(opts.Ctx, key, func() (*engine.Artifact, error) {
		return simulateOne(opts, key, true)
	})
}

// simulateOne runs one key as a one-variant batch (see simulate).
func simulateOne(opts Options, key engine.SimKey, keepMachine bool) (*engine.Artifact, error) {
	arts, err := simulate(opts, []engine.SimKey{key}, keepMachine)
	if err != nil {
		return nil, err
	}
	return arts[0], nil
}
