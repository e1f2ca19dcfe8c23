package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// reproInsts and reproCacheMiB size the repro workloads. The in-memory
// cache budget is the CLI default (1024 MiB at -n 50000) scaled with -n,
// so the cold run stays under the same memory-cache pressure.
const (
	reproInsts    = 20000
	reproCacheMiB = 400
	// warmFills is how many cold runs repro-warm's set-up makes; set-up
	// time is their median.
	warmFills = 3
	// minReps is the fewest measured runs a repro workload makes,
	// however short --seconds is.
	minReps = 3
)

// reproArgs is the `clustersim all` invocation both repro workloads use.
func reproArgs(seed uint64, cacheDir string) []string {
	return []string{"-n", strconv.Itoa(reproInsts), "-seed", strconv.FormatUint(seed, 10),
		"-cache-mem", strconv.Itoa(reproCacheMiB), "-cache-dir", cacheDir, "all"}
}

// childRun is one measured `clustersim all` process.
type childRun struct {
	Wall      time.Duration
	FirstByte time.Duration   // process start to the first stdout byte: set-up before the first experiment
	FigureAt  []time.Duration // process start to each experiment's `[<exp> took]` line: when its figure is out
	CPU       time.Duration   // user+sys from the child's rusage
	MaxRSSMiB float64
	Stdout    []byte
	Stderr    []byte
}

// runChild runs bin with args to completion, timestamping stdout lines
// as they arrive.
func runChild(ctx context.Context, bin string, args []string) (childRun, error) {
	var r childRun
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	var out bytes.Buffer
	br := bufio.NewReader(pipe)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			if out.Len() == 0 {
				r.FirstByte = now.Sub(start)
			}
			out.Write(line)
			if tookLine.Match(bytes.TrimRight(line, "\n")) {
				r.FigureAt = append(r.FigureAt, now.Sub(start))
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			cmd.Wait()
			return r, err
		}
	}
	werr := cmd.Wait()
	r.Wall = time.Since(start)
	r.Stdout, r.Stderr = out.Bytes(), stderr.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.CPU = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
		r.MaxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if werr != nil {
		return r, fmt.Errorf("%s: %v: %s", filepath.Base(bin), werr, lastLine(r.Stderr))
	}
	return r, nil
}

func lastLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}

// reproResult is the untraced measurement of a repro workload.
type reproResult struct {
	Setup []float64 // seconds
	Runs  []childRun
	Fails []string
}

// freshDir returns an empty directory at path.
func freshDir(path string) (string, error) {
	if err := os.RemoveAll(path); err != nil {
		return "", err
	}
	return path, os.MkdirAll(path, 0o755)
}

// measureRepro runs the untraced repro workload: warm selects repro-warm
// (set-up fills a disk cache with cold runs; measured runs reuse it).
// Every run's output goes through the gate.
func measureRepro(ctx context.Context, b *bench, warm bool) (reproResult, error) {
	var res reproResult
	check := func(r childRun, err error) {
		if err == nil {
			err = b.gate.check(digestKey("repro", reproInsts, b.seed), digest(normalizeOutput(r.Stdout)))
		}
		if err != nil {
			res.Fails = append(res.Fails, err.Error())
		}
	}
	cacheDir := filepath.Join(b.work, "cache")
	if warm {
		for i := 0; i < warmFills; i++ {
			dir, err := freshDir(cacheDir)
			if err != nil {
				return res, err
			}
			r, err := runChild(ctx, b.clustersim, reproArgs(b.seed, dir))
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			check(r, err)
			res.Setup = append(res.Setup, r.Wall.Seconds())
		}
	}
	start := time.Now()
	for len(res.Runs) < minReps || time.Since(start) < b.seconds {
		dir := cacheDir
		if !warm {
			var err error
			if dir, err = freshDir(cacheDir); err != nil {
				return res, err
			}
		}
		if !warm {
			// A start-only launch before each measured run doubles the
			// set-up samples, spread over the whole run.
			d, err := firstLine(ctx, b.clustersim, reproArgs(b.seed, dir))
			if err != nil {
				return res, err
			}
			res.Setup = append(res.Setup, d.Seconds())
			if dir, err = freshDir(cacheDir); err != nil {
				return res, err
			}
		}
		r, err := runChild(ctx, b.clustersim, reproArgs(b.seed, dir))
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		check(r, err)
		res.Runs = append(res.Runs, r)
		if !warm {
			res.Setup = append(res.Setup, r.FirstByte.Seconds())
		}
	}
	return res, os.RemoveAll(cacheDir)
}

// firstLine starts bin with args, returns the time to its first stdout
// line (as runChild's FirstByte), then kills it and waits for it to exit.
func firstLine(ctx context.Context, bin string, args []string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(pipe).ReadBytes('\n')
	d := time.Since(start)
	cmd.Process.Kill()
	cmd.Wait()
	if len(line) == 0 {
		return 0, fmt.Errorf("%s printed nothing: %v", filepath.Base(bin), err)
	}
	return d, nil
}

// reproMetrics derives the run's metrics (the end-to-end ones and the
// figure arrival latency) from an untraced repro measurement.
func reproMetrics(res reproResult) (metricSet, map[string]dist) {
	var wall, cpu, rss, lat []float64
	for _, r := range res.Runs {
		wall = append(wall, r.Wall.Seconds())
		cpu = append(cpu, r.CPU.Seconds())
		rss = append(rss, r.MaxRSSMiB)
		for _, d := range r.FigureAt {
			lat = append(lat, float64(d)/1e6)
		}
	}
	dists := map[string]dist{
		"setup_s": summarize(res.Setup), "wall_s": summarize(wall), "cpu_s": summarize(cpu),
		"peak_rss_mib": summarize(rss), "lat": summarize(lat),
	}
	m := metricSet{
		"setup_s":      dists["setup_s"].Median,
		"wall_s":       dists["wall_s"].Median,
		"cpu_s":        dists["cpu_s"].Median,
		"peak_rss_mib": dists["peak_rss_mib"].Median,
		"lat_p50_ms":   dists["lat"].Median,
		"lat_tail_ms":  dists["lat"].Tail,
	}
	return m, dists
}

// engineBusy is the part of an engine summary the benchmark attributes
// host time with. It comes either from engine.Summary deltas (in-process
// runs) or from the summary a child prints on exit (parseSummary).
type engineBusy struct {
	SimJobs, TraceJobs, AnaJobs, SchedJobs         int64
	SimCPU, TraceCPU, AnaCPU, SchedCPU, ReplayBusy float64 // seconds
	SimInsts                                       int64
	MinstPerCPUs                                   float64
	SimHits, SimDiskHits, SimMisses                int64
	AnaHits, AnaDiskHits, AnaMisses                int64
	SchedHits, SchedDiskHits, SchedMisses          int64
	Evictions, DiskErrors                          int64
	ResidentMiB                                    float64
}

func (e engineBusy) attributedCPU() float64 {
	return e.SimCPU + e.TraceCPU + e.AnaCPU + e.SchedCPU
}

func rate(hit, miss int64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

var (
	reRow    = regexp.MustCompile(`(?m)^(sim|analysis|sched)\s+([0-9.]+)\s+([0-9.]+)\s+([0-9.]+)\s+[0-9.]+$`)
	reJobs   = regexp.MustCompile(`sim jobs run: (\d+) \(([0-9.]+) cpu-s, ([0-9.]+) Minst/s\); traces generated: (\d+) \(([0-9.]+) cpu-s\); analyses run: (\d+) \(([0-9.]+) cpu-s\); schedule batches: (\d+) \(([0-9.]+) cpu-s\)`)
	reCache  = regexp.MustCompile(`cache: \d+ entries, ([0-9.]+) MiB resident, (\d+) evictions`)
	reReplay = regexp.MustCompile(`replay: \d+ workers/job, ([0-9.]+) cpu-s busy`)
	reDisk   = regexp.MustCompile(`disk cache errors \(non-fatal\): (\d+)`)
)

// parseSummary reads the engine summary a clustersim process writes to
// stderr when it finishes.
func parseSummary(stderr []byte) (engineBusy, error) {
	var e engineBusy
	s := string(stderr)
	m := reJobs.FindStringSubmatch(s)
	if m == nil {
		return e, fmt.Errorf("no engine summary in stderr: %q", lastLine(stderr))
	}
	i := func(x string) int64 { v, _ := strconv.ParseInt(x, 10, 64); return v }
	f := func(x string) float64 { v, _ := strconv.ParseFloat(x, 64); return v }
	e.SimJobs, e.SimCPU, e.MinstPerCPUs = i(m[1]), f(m[2]), f(m[3])
	e.TraceJobs, e.TraceCPU = i(m[4]), f(m[5])
	e.AnaJobs, e.AnaCPU = i(m[6]), f(m[7])
	e.SchedJobs, e.SchedCPU = i(m[8]), f(m[9])
	for _, row := range reRow.FindAllStringSubmatch(s, -1) {
		h, d, ms := int64(f(row[2])), int64(f(row[3])), int64(f(row[4]))
		switch row[1] {
		case "sim":
			e.SimHits, e.SimDiskHits, e.SimMisses = h, d, ms
		case "analysis":
			e.AnaHits, e.AnaDiskHits, e.AnaMisses = h, d, ms
		case "sched":
			e.SchedHits, e.SchedDiskHits, e.SchedMisses = h, d, ms
		}
	}
	if m := reCache.FindStringSubmatch(s); m != nil {
		e.ResidentMiB, e.Evictions = f(m[1]), i(m[2])
	}
	if m := reReplay.FindStringSubmatch(s); m != nil {
		e.ReplayBusy = f(m[1])
	}
	if m := reDisk.FindStringSubmatch(s); m != nil {
		e.DiskErrors = i(m[1])
	}
	return e, nil
}

// engineMetrics are the machine/listsched/critpath/workload/engine
// layer metrics of one engine's work.
func engineMetrics(e engineBusy) metricSet {
	return metricSet{
		"machine.sim_cpu_s":        e.SimCPU,
		"machine.sim_jobs":         float64(e.SimJobs),
		"machine.minst_per_cpu_s":  e.MinstPerCPUs,
		"machine.replay_busy_s":    e.ReplayBusy,
		"listsched.cpu_s":          e.SchedCPU,
		"listsched.batches":        float64(e.SchedJobs),
		"critpath.cpu_s":           e.AnaCPU,
		"critpath.jobs":            float64(e.AnaJobs),
		"workload.gen_cpu_s":       e.TraceCPU,
		"workload.gen_jobs":        float64(e.TraceJobs),
		"engine.sim_hit_rate":      rate(e.SimHits+e.SimDiskHits, e.SimMisses),
		"engine.analysis_hit_rate": rate(e.AnaHits+e.AnaDiskHits, e.AnaMisses),
		"engine.sched_hit_rate":    rate(e.SchedHits+e.SchedDiskHits, e.SchedMisses),
		"engine.sim_disk_hits":     float64(e.SimDiskHits),
		"engine.evictions":         float64(e.Evictions),
		"engine.resident_mib":      e.ResidentMiB,
		"engine.disk_errors":       float64(e.DiskErrors),
	}
}
