// Command perfbench is clustersim's end-to-end benchmark. It measures
// the paper reproduction (`clustersim all`, cold and warm disk cache)
// and the served path (`clustersim serve` under an open-loop sweep),
// checks that every output is byte-for-byte what the program produced
// when the benchmark was defined, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds both
// binaries from source:
//
//	bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh compare A.json B.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics. METRICS.md lists every
// metric, its unit, its layer and what it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSet maps a metric name to its value.
type metricSet map[string]float64

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
// Latency is measured on every run too, but its run-to-run spread on a
// shared 2-vCPU box (serve-open: up to 0.45 of the median between runs
// of one commit) is wider than any useful regression bound, so it is
// reported with the per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{{"lat_p50_ms", "ms"}, {"lat_tail_ms", "ms"}}
	for _, d := range allDrivers() {
		defs = append(defs, metricDef{"experiments." + d.name + "_s", "s"})
	}
	return append(defs, []metricDef{
		{"experiments.render_s", "s"},
		{"machine.sim_cpu_s", "s"},
		{"machine.sim_jobs", "count"},
		{"machine.minst_per_cpu_s", "Minst/s"},
		{"machine.replay_busy_s", "s"},
		{"machine.variants_ns_per_inst", "ns"},
		{"listsched.cpu_s", "s"},
		{"listsched.batches", "count"},
		{"listsched.variants_ns_per_inst", "ns"},
		{"critpath.cpu_s", "s"},
		{"critpath.jobs", "count"},
		{"critpath.analyze_ns_per_inst", "ns"},
		{"critpath.matrix_ns_per_inst", "ns"},
		{"workload.gen_cpu_s", "s"},
		{"workload.gen_jobs", "count"},
		{"workload.generate_ns_per_inst", "ns"},
		{"trace.store_write_ns_per_inst", "ns"},
		{"trace.store_scan_ns_per_inst", "ns"},
		{"engine.sim_hit_rate", "fraction"},
		{"engine.analysis_hit_rate", "fraction"},
		{"engine.sched_hit_rate", "fraction"},
		{"engine.sim_disk_hits", "count"},
		{"engine.evictions", "count"},
		{"engine.resident_mib", "MiB"},
		{"engine.disk_errors", "count"},
		{"unattributed_cpu_frac", "fraction"},
		{"unspanned_wall_frac", "fraction"},
		{"server.submit_ms.p50", "ms"},
		{"server.submit_ms.tail", "ms"},
		{"server.queue_wait_ms.p50", "ms"},
		{"server.queue_wait_ms.tail", "ms"},
		{"server.service_ms.p50", "ms"},
		{"server.service_ms.tail", "ms"},
		{"server.result_ms.p50", "ms"},
		{"server.reject_frac", "fraction"},
		{"serve.hit_share", "fraction"},
		{"serve.lat_p50_ms.low", "ms"},
		{"serve.lat_tail_ms.low", "ms"},
		{"serve.max_ok_rate_jobs_per_s", "jobs/s"},
		{"loadgen.lag_ms.tail", "ms"},
		{"trace_overhead_frac", "fraction"},
	}...)
}

var workloads = []string{"repro-cold", "repro-warm", "serve-open"}

// runTimeout bounds one workload's run; child processes still running
// past it are killed and the run fails.
const runTimeout = 170 * time.Second

// bench is one invocation's configuration.
type bench struct {
	workload   string
	seed       uint64
	seconds    time.Duration
	trace      bool
	clustersim string // the binary under test
	work       string // scratch space: caches, job logs, results
	root       string // the source tree the binary was built from
	gate       *gate
}

// result is what one run produced.
type result struct {
	Env       envStamp        `json:"env"`
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Trace     bool            `json:"trace"`
	Attempted int             `json:"attempted"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   metricSet       `json:"metrics"`
	Dists     map[string]dist `json:"dists,omitempty"`
	Spans     []span          `json:"spans,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	b := &bench{}
	record := false
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&b.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	fs.Uint64Var(&b.seed, "seed", 1, "workload seed")
	secs := fs.Int("seconds", 30, "how long one run measures")
	traced := fs.Int("trace", 0, "1: a traced run reporting per-layer metrics")
	fs.StringVar(&b.clustersim, "clustersim", "", "clustersim binary under test")
	fs.StringVar(&b.work, "work", "", "work directory")
	fs.StringVar(&b.root, "root", ".", "source tree the binary was built from")
	fs.BoolVar(&record, "record", false, "record the output and simulated-statistics digests of seeds 0..--seed under the work directory, then exit")
	fs.Parse(os.Args[1:])
	b.seconds, b.trace = time.Duration(*secs)*time.Second, *traced == 1
	if b.clustersim == "" || b.work == "" || *secs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -clustersim, -work and --seconds >= 1 are required (use run.sh)")
		os.Exit(2)
	}
	list := []string{b.workload}
	if b.workload == "all" {
		list = workloads
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var err error
	if b.gate, err = newGate(b.work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if record {
		if err := recordDigests(b); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, w := range list {
		b.workload = w
		if err := runOne(b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
	}
}

// runOne measures one workload and prints its metrics and result line.
func runOne(b *bench) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res := &result{Workload: b.workload, Seed: b.seed, Seconds: b.seconds.Seconds(), Trace: b.trace,
		Env: stampEnv(b.root, b.work)}
	var err error
	switch {
	case b.workload != "repro-cold" && b.workload != "repro-warm" && b.workload != "serve-open":
		return fmt.Errorf("unknown workload (want %s or all)", strings.Join(workloads, ", "))
	case b.trace:
		err = tracedRun(ctx, b, res)
	case b.workload == "serve-open":
		var sr serveResult
		if sr, err = measureServe(ctx, b, nil); err == nil {
			res.Metrics, res.Dists = serveMetrics(sr)
			res.Attempted, res.Failures = len(sr.Outs), serveFailures(sr.Outs)
		}
	default:
		var rr reproResult
		if rr, err = measureRepro(ctx, b, b.workload == "repro-warm"); err == nil {
			res.Metrics, res.Dists = reproMetrics(rr)
			res.Attempted, res.Failures = len(rr.Runs)+len(rr.Setup), rr.Fails
			if b.workload == "repro-cold" {
				res.Attempted = len(rr.Runs)
			}
		}
	}
	if err != nil {
		return err
	}
	return report(b, res)
}

// tracedRun makes the traced run of b.workload: an untraced reference
// measurement, the same work with spans recorded around each call into
// the program, and the layer pass.
func tracedRun(ctx context.Context, b *bench, res *result) error {
	t := newTracer()
	m := metricSet{}
	for _, d := range perLayer() {
		m[d.name] = 0
	}
	var untraced, traced float64
	var from, to float64 // the traced interval on the tracer clock
	switch b.workload {
	case "serve-open":
		ref, err := measureServe(ctx, b, nil)
		if err != nil {
			return err
		}
		refM, _ := serveMetrics(ref)
		from = time.Since(t.t0).Seconds()
		sr, err := measureServe(ctx, b, t)
		if err != nil {
			return err
		}
		to = time.Since(t.t0).Seconds()
		em, dists := serveMetrics(sr)
		untraced, traced = refM["lat_p50_ms"], em["lat_p50_ms"]
		m["lat_p50_ms"], m["lat_tail_ms"] = refM["lat_p50_ms"], refM["lat_tail_ms"]
		for k, v := range engineMetrics(sr.Engine) {
			m[k] = v
		}
		for k, v := range serveLayerMetrics(sr, dists) {
			m[k] = v
		}
		m["unattributed_cpu_frac"] = 1 - share(sr.Engine.attributedCPU(), sr.CPU.Seconds())
		res.Dists = dists
		res.Attempted = len(ref.Outs) + len(sr.Outs)
		res.Failures = append(serveFailures(ref.Outs), serveFailures(sr.Outs)...)
	default:
		warm := b.workload == "repro-warm"
		dir, err := freshDir(filepath.Join(b.work, "cache"))
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		key := digestKey("repro", reproInsts, b.seed)
		fail := func(err error) {
			if err != nil {
				res.Failures = append(res.Failures, err.Error())
			}
		}
		if warm { // set-up: one cold run fills the disk cache
			_, err := runChild(ctx, b.clustersim, reproArgs(b.seed, dir))
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fail(err)
		}
		ref, err := runChild(ctx, b.clustersim, reproArgs(b.seed, dir))
		if ctx.Err() != nil {
			return ctx.Err()
		}
		fail(err)
		if err == nil {
			fail(b.gate.check(key, digest(normalizeOutput(ref.Stdout))))
			busy, err := parseSummary(ref.Stderr)
			fail(err)
			m["unattributed_cpu_frac"] = 1 - share(busy.attributedCPU(), ref.CPU.Seconds())
			refM, _ := reproMetrics(reproResult{Runs: []childRun{ref}})
			m["lat_p50_ms"], m["lat_tail_ms"] = refM["lat_p50_ms"], refM["lat_tail_ms"]
		}
		// The tracing overhead compares in-process runs with and without
		// spans, so process start-up and pipe I/O do not count as tracing;
		// untraced runs on both sides of the traced one cancel the
		// process warming up across runs.
		inProcess := func(spans *tracer) (tracedReproResult, error) {
			if !warm {
				if _, err := freshDir(dir); err != nil {
					return tracedReproResult{}, err
				}
			}
			r, err := tracedRepro(spans, b.seed, dir)
			if err == nil {
				fail(b.gate.check(key, digest(r.Output)))
			}
			return r, err
		}
		before, err := inProcess(nil)
		if err != nil {
			return err
		}
		from = time.Since(t.t0).Seconds()
		tr, err := inProcess(t)
		if err != nil {
			return err
		}
		to = time.Since(t.t0).Seconds()
		after, err := inProcess(nil)
		if err != nil {
			return err
		}
		untraced, traced = (before.Wall+after.Wall).Seconds()/2, tr.Wall.Seconds()
		for k, v := range engineMetrics(tr.Busy) {
			m[k] = v
		}
		for name, s := range tr.ExpSelf {
			m["experiments."+name+"_s"] = s
		}
		m["experiments.render_s"] = tr.RenderS
		res.Attempted = 4 + len(tr.ExpSelf)
		if warm {
			res.Attempted++
		}
	}
	lp, err := layerPass(t, b.seed)
	if err != nil {
		return err
	}
	for k, v := range lp.NsPerInst {
		m[k] = v
	}
	res.Attempted += lp.Calls
	if err := b.gate.check(digestKey("layer", reproInsts, b.seed), lp.SimDigest); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	m["unspanned_wall_frac"] = t.uncovered(from, to)
	m["trace_overhead_frac"] = share(traced, untraced) - 1
	res.Metrics, res.Spans = m, t.spans
	return nil
}

// share is a/b, or 1 when b is 0 (a run that failed before measuring).
func share(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// report prints the metrics for a reader, saves the full result under
// the work directory and prints the result line last.
func report(b *bench, res *result) error {
	defs := endToEnd
	if b.trace {
		defs = perLayer()
	}
	e := res.Env
	fmt.Printf("env: commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q kernel=%s cache_fs=%s\n",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Kernel, e.CacheFS)
	fmt.Printf("workload %s seed=%d seconds=%g trace=%v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	names := make([]string, 0, len(res.Dists))
	for k := range res.Dists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d := res.Dists[k]
		fmt.Printf("  dist %-14s n=%d median=%.4g tail=%.4g (p%.1f)\n", k, d.N, d.Median, d.Tail, d.TailP)
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	failFrac := float64(len(res.Failures)) / float64(max(res.Attempted, 1))
	fmt.Printf("  %-34s %14.6g failed/attempted (%d/%d)\n", "fail_frac", failFrac, len(res.Failures), res.Attempted)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	if err := saveResult(b, res); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.Failures) == 0,
		"attempted": max(res.Attempted, 1),
		"failed":    len(res.Failures),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func saveResult(b *bench, res *result) error {
	dir := filepath.Join(b.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if res.Trace {
		trace = 1
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, trace))
	return os.WriteFile(path, js, 0o644)
}

// recordDigests runs one cold `clustersim all` and one layer pass for
// each seed from 0 to b.seed and records their digests in the work
// directory's digest file, from which digests.json is made.
func recordDigests(b *bench) error {
	ctx := context.Background()
	for seed := uint64(0); seed <= b.seed; seed++ {
		dir, err := freshDir(filepath.Join(b.work, "cache"))
		if err != nil {
			return err
		}
		r, err := runChild(ctx, b.clustersim, reproArgs(seed, dir))
		if err != nil {
			return err
		}
		if err := b.gate.check(digestKey("repro", reproInsts, seed), digest(normalizeOutput(r.Stdout))); err != nil {
			return err
		}
		lp, err := layerPass(newTracer(), seed)
		if err != nil {
			return err
		}
		if err := b.gate.check(digestKey("layer", reproInsts, seed), lp.SimDigest); err != nil {
			return err
		}
		fmt.Println("recorded seed", seed)
	}
	return os.RemoveAll(filepath.Join(b.work, "cache"))
}

// compareMain prints the per-metric ratio of two saved results, after
// refusing results measured on different machines or toolchains.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var rs [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
	}
	if err := comparable(rs[0], rs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing:", err)
		return 1
	}
	names := make([]string, 0, len(rs[0].Metrics))
	for k := range rs[0].Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, ok := rs[1].Metrics[k]
		if !ok {
			continue
		}
		fmt.Printf("%-34s %14.6g %14.6g  x%.4f\n", k, rs[0].Metrics[k], a, a/rs[0].Metrics[k])
	}
	return 0
}

// comparable rejects two results that differ in environment, workload
// or run settings.
func comparable(a, b result) error {
	if d := sameMachine(a.Env, b.Env); len(d) > 0 {
		return errors.New("environments differ: " + strings.Join(d, "; "))
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("runs differ: %s/%gs/trace=%v vs %s/%gs/trace=%v",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	return nil
}
