package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/server"
	"clustersim/internal/workload"
)

// The serve-open traffic: a seeded Poisson arrival schedule stepped
// through a fixed ladder of rates, each step taking its share of
// --seconds. 40% of the jobs repeat a spec already sent in the run
// (engine hits and singleflight); the rest use fresh workload seeds and
// take the full miss path.
var (
	ladder    = []float64{10, 20, 40} // jobs/s
	stepShare = []float64{0.2, 0.2, 0.6}
	// lowStep and highStep index the ladder rates the latency metrics
	// are reported at.
	lowStep, highStep = 0, 2
	serveExps         = []string{"fig2", "fig4", "fig5", "fig8", "loc-oracle", "icost", "slack", "consumers"}
)

const (
	serveInsts = 2000
	// repeatShare keeps the median job a miss: at exactly one half the
	// median would sit between the hit and miss latency modes and jump
	// between them from seed to seed.
	repeatShare = 0.4
	// latencyLimitMs is the limit a ladder rate's tail latency must meet
	// for that rate to count toward max_ok_rate_jobs_per_s.
	latencyLimitMs = 100
	// failedMs stands in for the latency of a failed or refused job: it
	// misses any limit.
	failedMs = 1e6
	// serveSetups is how many extra times a run starts and stops the
	// server, half before the sweep and half after it on an emptied job
	// log, so the set-up samples span the run rather than its first
	// moments. Set-up time is the median over these and the sweep
	// server's own start.
	serveSetups = 16
	jobDeadline = 30 * time.Second
)

// serveChild is a running `clustersim serve`.
type serveChild struct {
	cmd    *exec.Cmd
	base   string
	stderr *syncBuffer
}

// syncBuffer is a bytes.Buffer safe for one writer and concurrent
// readers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

var reListen = regexp.MustCompile(`listening on (http://\S+) `)

// startServer launches the server on an ephemeral port and returns once
// /healthz answers, with the time that took. The server keeps its cache
// in memory only: with -cache-dir every miss also writes the disk cache,
// and those writes, not the served path, dominated the latency spread.
func startServer(ctx context.Context, bin, dir string) (*serveChild, time.Duration, error) {
	s := &serveChild{stderr: &syncBuffer{}}
	s.cmd = exec.CommandContext(ctx, bin, "serve", "-addr", "127.0.0.1:0",
		"-job-log", filepath.Join(dir, "jobs.log"), "-job-deadline", jobDeadline.String())
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	hc := &http.Client{Timeout: time.Second}
	for time.Since(start) < 20*time.Second {
		if s.base == "" {
			if m := reListen.FindSubmatch(s.stderr.Bytes()); m != nil {
				s.base = string(m[1])
			}
		}
		if s.base != "" {
			if resp, err := hc.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(start), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("server not healthy after 20s: %s", lastLine(s.stderr.Bytes()))
}

// stop sends SIGTERM (graceful drain), waits for exit and returns the
// server's rusage.
func (s *serveChild) stop() (cpu time.Duration, maxRSSMiB float64, err error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	err = s.cmd.Wait()
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
		maxRSSMiB = float64(ru.Maxrss) / 1024
	}
	return cpu, maxRSSMiB, err
}

// plannedJob is one arrival of the schedule.
type plannedJob struct {
	Step   int
	Due    time.Duration // offset from the step's start
	Spec   server.Spec
	Repeat bool
}

// schedule derives the whole arrival schedule from the workload seed.
// Each step gets exactly rate x length arrivals at uniformly random
// times, which is a Poisson process conditioned on its count, and
// exactly repeatShare of all jobs repeat an earlier spec; fresh specs
// walk seeded permutations of every (experiment, benchmark) pair. So
// every run carries the same amount and mix of work, and the seed
// varies only arrival times, order and which specs repeat.
func schedule(seed uint64, total time.Duration) []plannedJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	type pair struct{ exp, bench string }
	var pairs []pair
	for _, e := range serveExps {
		for _, b := range workload.Names() {
			pairs = append(pairs, pair{e, b})
		}
	}
	var jobs []plannedJob
	for step, r := range ladder {
		stepLen := time.Duration(stepShare[step] * float64(total))
		dues := make([]time.Duration, int(math.Round(r*stepLen.Seconds())))
		for i := range dues {
			dues[i] = time.Duration(rng.Int63n(int64(stepLen)))
		}
		sort.Slice(dues, func(i, k int) bool { return dues[i] < dues[k] })
		for _, at := range dues {
			jobs = append(jobs, plannedJob{Step: step, Due: at})
		}
	}
	repeats := int(math.Round(repeatShare * float64(len(jobs))))
	// Shuffle which jobs repeat; job 0 has nothing to repeat yet.
	isRepeat := make([]bool, len(jobs))
	for _, i := range rng.Perm(len(jobs) - 1)[:repeats] {
		isRepeat[i+1] = true
	}
	var order []int
	var sent []server.Spec
	fresh := seed*1_000_003 + 1000
	for i := range jobs {
		if isRepeat[i] {
			jobs[i].Spec, jobs[i].Repeat = sent[rng.Intn(len(sent))], true
			continue
		}
		if len(order) == 0 {
			order = rng.Perm(len(pairs))
		}
		p := pairs[order[0]]
		order = order[1:]
		fresh++
		jobs[i].Spec = server.Spec{Tenant: "default", Experiments: []string{p.exp},
			Benchmarks: []string{p.bench}, Insts: serveInsts, Seed: fresh}
		sent = append(sent, jobs[i].Spec)
	}
	return jobs
}

// jobOutcome is what the generator observed for one job.
type jobOutcome struct {
	plannedJob
	DueAt     time.Time
	LagMs     float64 // how late the submit was sent
	SubmitMs  float64 // POST to 202 (includes the job-log fsync)
	Code      int
	ID        string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	ResultMs  float64
	Artifacts []server.ResultArtifact
	Err       string
}

func (o *jobOutcome) failed() bool { return o.Err != "" }

// latencyMs is the job's latency from its scheduled send time to its
// finished_at, or failedMs for a failed job.
func (o *jobOutcome) latencyMs() float64 {
	if o.failed() {
		return failedMs
	}
	return float64(o.Finished.Sub(o.DueAt)) / 1e6
}

type jobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
}

// oneConnClient is an HTTP client limited to a single connection.
func oneConnClient() *http.Client {
	return &http.Client{Timeout: jobDeadline + 30*time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// sweep drives the open-loop schedule against the server. One
// goroutine submits on one connection at the scheduled times, so a slow
// submit delays every later one and shows as lag; another reads each
// job's status (long-polling to its terminal state) and result on a
// second connection. Each ladder step starts once the previous one has
// fully drained.
func sweep(ctx context.Context, base string, plan []plannedJob, t *tracer) []*jobOutcome {
	out := make([]*jobOutcome, len(plan))
	sub, col := oneConnClient(), oneConnClient()
	defer sub.CloseIdleConnections()
	defer col.CloseIdleConnections()
	i := 0
	for step := range ladder {
		first := i
		for i < len(plan) && plan[i].Step == step {
			i++
		}
		accepted := make(chan *jobOutcome, i-first) // one send per job of the step
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range accepted {
				t.do("server.status", "", func() { collect(ctx, col, base, o) })
			}
		}()
		start := time.Now()
		for k := first; k < i; k++ {
			o := &jobOutcome{plannedJob: plan[k], DueAt: start.Add(plan[k].Due)}
			out[k] = o
			if d := time.Until(o.DueAt); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil {
				o.Err = ctx.Err().Error()
				continue
			}
			sent := time.Now()
			o.LagMs = float64(sent.Sub(o.DueAt)) / 1e6
			t.do("server.submit", "", func() { submitJob(sub, base, o) })
			o.SubmitMs = float64(time.Since(sent)) / 1e6
			if o.Err == "" {
				accepted <- o
			}
		}
		close(accepted)
		wg.Wait()
	}
	return out
}

func submitJob(hc *http.Client, base string, o *jobOutcome) {
	body, _ := json.Marshal(o.Spec)
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.Err = "submit: " + err.Error()
		return
	}
	defer resp.Body.Close()
	o.Code = resp.StatusCode
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		o.Err = fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		o.Err = "submit: " + err.Error()
		return
	}
	o.ID = st.ID
}

// collect waits for the job's terminal state and fetches its result.
func collect(ctx context.Context, hc *http.Client, base string, o *jobOutcome) {
	var st jobStatus
	for st.FinishedAt == nil {
		if ctx.Err() != nil {
			o.Err = ctx.Err().Error()
			return
		}
		if err := getJSON(hc, base+"/v1/jobs/"+o.ID+"?wait=20s", &st); err != nil {
			o.Err = "status: " + err.Error()
			return
		}
	}
	o.Submitted, o.Finished = st.SubmittedAt, *st.FinishedAt
	if st.StartedAt != nil {
		o.Started = *st.StartedAt
	}
	if st.State != string(server.StateDone) {
		o.Err = fmt.Sprintf("job %s ended %s: %s", o.ID, st.State, st.Error)
		return
	}
	t := time.Now()
	var res struct {
		Artifacts []server.ResultArtifact `json:"artifacts"`
	}
	if err := getJSON(hc, base+"/v1/jobs/"+o.ID+"/result", &res); err != nil {
		o.Err = "result: " + err.Error()
		return
	}
	o.ResultMs = float64(time.Since(t)) / 1e6
	o.Artifacts = res.Artifacts
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// verifyServed byte-compares every served result with server.RunLocal
// on a separate engine, marking divergent jobs failed.
func verifyServed(outs []*jobOutcome) error {
	eng := engine.New(engine.Config{Workers: runtime.GOMAXPROCS(0)})
	want := map[string][]server.ResultArtifact{}
	for _, o := range outs {
		if o.failed() {
			continue
		}
		key := o.Spec.Key()
		w, ok := want[key]
		if !ok {
			var err error
			if w, err = server.RunLocal(o.Spec, eng); err != nil {
				return fmt.Errorf("local run of %s: %w", key, err)
			}
			want[key] = w
		}
		if !artifactsEqual(o.Artifacts, w) {
			o.Err = fmt.Sprintf("job %s: served result differs from a local run", o.ID)
		}
	}
	return nil
}

func artifactsEqual(got, want []server.ResultArtifact) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// serveResult is one serve-open measurement.
type serveResult struct {
	Setup     []float64 // seconds, server start to /healthz
	Outs      []*jobOutcome
	Wall      time.Duration // first scheduled send to the last result read
	CPU       time.Duration // server user+sys
	MaxRSSMiB float64
	Engine    engineBusy   // the server's engine summary at exit
	Stats     server.Stats // /v1/stats after the sweep
}

// measureServe starts the server serveSetups/2 times for set-up, then
// once more to run the sweep against a fresh cache and job log, then
// serveSetups/2 times more on an emptied job log.
func measureServe(ctx context.Context, b *bench, t *tracer) (serveResult, error) {
	var res serveResult
	dir, err := freshDir(filepath.Join(b.work, "serve"))
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	setups := func() error {
		for i := 0; i < serveSetups/2; i++ {
			s, d, err := startServer(ctx, b.clustersim, dir)
			if err != nil {
				return err
			}
			res.Setup = append(res.Setup, d.Seconds())
			if _, _, err := s.stop(); err != nil {
				return fmt.Errorf("server exit: %w", err)
			}
		}
		return nil
	}
	if err := setups(); err != nil {
		return res, err
	}
	s, d, err := startServer(ctx, b.clustersim, dir)
	if err != nil {
		return res, err
	}
	res.Setup = append(res.Setup, d.Seconds())
	plan := schedule(b.seed, b.seconds)
	start := time.Now()
	res.Outs = sweep(ctx, s.base, plan, t)
	res.Wall = time.Since(start)
	statsErr := getJSON(oneConnClient(), s.base+"/v1/stats", &res.Stats)
	cpu, rss, err := s.stop()
	if err != nil {
		return res, fmt.Errorf("server exit: %w", err)
	}
	if statsErr != nil {
		return res, fmt.Errorf("stats: %w", statsErr)
	}
	res.CPU, res.MaxRSSMiB = cpu, rss
	if res.Engine, err = parseSummary(s.stderr.Bytes()); err != nil {
		return res, err
	}
	if _, err := freshDir(dir); err != nil {
		return res, err
	}
	if err := setups(); err != nil {
		return res, err
	}
	return res, verifyServed(res.Outs)
}

// stepLatencies returns the latencies (ms) of one ladder step's jobs.
func stepLatencies(outs []*jobOutcome, step int) []float64 {
	var lat []float64
	for _, o := range outs {
		if o.Step == step {
			lat = append(lat, o.latencyMs())
		}
	}
	return lat
}

// stepOK reports whether a ladder step met the latency limit without a
// growing backlog: its tail latency is within the limit and the median
// queue wait of its last quarter of jobs is not more than twice that of
// its first quarter plus 5 ms.
func stepOK(outs []*jobOutcome, step int) bool {
	var jobs []*jobOutcome
	for _, o := range outs {
		if o.Step == step {
			if o.failed() {
				return false
			}
			jobs = append(jobs, o)
		}
	}
	if len(jobs) < 8 || summarize(stepLatencies(outs, step)).Tail > latencyLimitMs {
		return false
	}
	q := len(jobs) / 4
	wait := func(js []*jobOutcome) float64 {
		var w []float64
		for _, o := range js {
			w = append(w, float64(o.Started.Sub(o.Submitted))/1e6)
		}
		return summarize(w).Median
	}
	return wait(jobs[len(jobs)-q:]) <= 2*wait(jobs[:q])+5
}

// serveMetrics derives the run's metrics (the end-to-end ones and the
// job latency at the highest rate) and the server-side distributions
// from one serve-open measurement.
func serveMetrics(res serveResult) (metricSet, map[string]dist) {
	high := summarize(stepLatencies(res.Outs, highStep))
	low := summarize(stepLatencies(res.Outs, lowStep))
	var submit, queue, service, result, lag []float64
	for _, o := range res.Outs {
		lag = append(lag, o.LagMs)
		if o.Code != 0 {
			submit = append(submit, o.SubmitMs)
		}
		if !o.Finished.IsZero() && !o.Started.IsZero() {
			queue = append(queue, float64(o.Started.Sub(o.Submitted))/1e6)
			service = append(service, float64(o.Finished.Sub(o.Started))/1e6)
		}
		if o.ResultMs > 0 {
			result = append(result, o.ResultMs)
		}
	}
	dists := map[string]dist{
		"setup_s": summarize(res.Setup), "lat.high": high, "lat.low": low,
		"submit": summarize(submit), "queue": summarize(queue), "service": summarize(service),
		"result": summarize(result), "lag": summarize(lag),
	}
	m := metricSet{
		"setup_s":      dists["setup_s"].Median,
		"wall_s":       res.Wall.Seconds(),
		"cpu_s":        res.CPU.Seconds(),
		"peak_rss_mib": res.MaxRSSMiB,
		"lat_p50_ms":   high.Median,
		"lat_tail_ms":  high.Tail,
	}
	return m, dists
}

// serveLayerMetrics are the server and load-generator layer metrics.
func serveLayerMetrics(res serveResult, dists map[string]dist) metricSet {
	rejected := 0
	for _, o := range res.Outs {
		if o.Code == http.StatusTooManyRequests || o.Code >= 500 {
			rejected++
		}
	}
	maxOK := 0.0
	for step, r := range ladder {
		if stepOK(res.Outs, step) {
			maxOK = r
		}
	}
	st := res.Stats
	return metricSet{
		"server.submit_ms.p50":         dists["submit"].Median,
		"server.submit_ms.tail":        dists["submit"].Tail,
		"server.queue_wait_ms.p50":     dists["queue"].Median,
		"server.queue_wait_ms.tail":    dists["queue"].Tail,
		"server.service_ms.p50":        dists["service"].Median,
		"server.service_ms.tail":       dists["service"].Tail,
		"server.result_ms.p50":         dists["result"].Median,
		"server.reject_frac":           float64(rejected) / math.Max(1, float64(len(res.Outs))),
		"serve.hit_share":              rate(st.SimHits+st.SimDiskHits, st.SimMisses),
		"serve.lat_p50_ms.low":         dists["lat.low"].Median,
		"serve.lat_tail_ms.low":        dists["lat.low"].Tail,
		"serve.max_ok_rate_jobs_per_s": maxOK,
		"loadgen.lag_ms.tail":          dists["lag"].Tail,
	}
}

// serveFailures lists the failed jobs' errors.
func serveFailures(outs []*jobOutcome) []string {
	var f []string
	for _, o := range outs {
		if o.failed() {
			f = append(f, o.Err)
		}
	}
	return f
}
