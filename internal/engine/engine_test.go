package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

const testInsts = 300

func testTraceKey(seed uint64) TraceKey {
	return TraceKey{Bench: "gzip", Insts: testInsts, Seed: seed}
}

func testSimKey(seed uint64) SimKey {
	return SimKey{Bench: "gzip", Insts: testInsts, Seed: seed,
		Fwd: 2, EpochLen: 1024, Clusters: 1, Stack: "depbased"}
}

// runTiny executes a real miniature simulation and hands over the live
// machine with its event log, as production jobs do.
func runTiny(seed uint64) (Run, error) {
	tr, err := workload.Generate("gzip", testInsts, seed)
	if err != nil {
		return Run{}, err
	}
	m, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		return Run{}, err
	}
	return Run{M: m, Res: m.Run()}, nil
}

func TestTraceCaching(t *testing.T) {
	e := New(Config{Workers: 2})
	var gens atomic.Int64
	gen := func() (*trace.Trace, error) {
		gens.Add(1)
		return workload.Generate("gzip", testInsts, 1)
	}
	tr1, err := e.Trace(testTraceKey(1), gen)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := e.Trace(testTraceKey(1), gen)
	if err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 1 {
		t.Errorf("generator ran %d times, want 1", gens.Load())
	}
	if tr1 != tr2 {
		t.Error("cached trace is not the same object")
	}
	if s := e.Summary(); s.TraceHits != 1 || s.TraceMisses != 1 {
		t.Errorf("trace hits/misses = %d/%d, want 1/1", s.TraceHits, s.TraceMisses)
	}
	// A different key is a separate job.
	if _, err := e.Trace(testTraceKey(2), gen); err != nil {
		t.Fatal(err)
	}
	if gens.Load() != 2 {
		t.Errorf("distinct key did not generate (gens=%d)", gens.Load())
	}
}

func TestSimCacheHitMissAccounting(t *testing.T) {
	e := New(Config{Workers: 2})
	var runs atomic.Int64
	run := func() (Run, error) {
		runs.Add(1)
		return runTiny(1)
	}
	var art *Artifact
	for i := 0; i < 3; i++ {
		a, err := e.Sim(testSimKey(1), NeedResult, run)
		if err != nil {
			t.Fatal(err)
		}
		art = a
	}
	if runs.Load() != 1 {
		t.Fatalf("sim ran %d times, want 1", runs.Load())
	}
	s := e.Summary()
	if s.SimHits != 2 || s.SimMisses != 1 {
		t.Errorf("sim hits/misses = %d/%d, want 2/1", s.SimHits, s.SimMisses)
	}
	if s.SimJobs != 1 || s.SimInsts != art.Res.Insts {
		t.Errorf("sim jobs/insts = %d/%d, want 1/%d", s.SimJobs, s.SimInsts, art.Res.Insts)
	}
	if s.HitRate() < 0.6 || s.HitRate() > 0.7 {
		t.Errorf("hit rate = %v, want 2/3", s.HitRate())
	}
}

// TestSimConcurrentDedup is the cross-figure sharing property: many
// concurrent submissions of one key simulate exactly once.
func TestSimConcurrentDedup(t *testing.T) {
	e := New(Config{Workers: 8})
	var runs atomic.Int64
	const submitters = 16
	arts := make([]*Artifact, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := e.Sim(testSimKey(1), NeedResult|NeedHarvest, func() (Run, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return runTiny(1)
			})
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("concurrent submissions ran the sim %d times, want 1", runs.Load())
	}
	for i := 1; i < submitters; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("submitter %d got a different artifact", i)
		}
	}
	s := e.Summary()
	if got := s.SimHits + s.SimMisses; got != submitters {
		t.Errorf("hits+misses = %d, want %d", got, submitters)
	}
	if s.SimMisses != 1 {
		t.Errorf("misses = %d, want 1", s.SimMisses)
	}
}

func TestSimErrorsNotCached(t *testing.T) {
	e := New(Config{Workers: 2})
	boom := errors.New("boom")
	var runs int
	run := func() (Run, error) {
		runs++
		if runs == 1 {
			return Run{}, boom
		}
		return runTiny(1)
	}
	if _, err := e.Sim(testSimKey(1), NeedResult, run); !errors.Is(err, boom) {
		t.Fatalf("first Sim err = %v, want boom", err)
	}
	// The failure must not be memoized: the next submission retries.
	if _, err := e.Sim(testSimKey(1), NeedResult, run); err != nil {
		t.Fatalf("second Sim err = %v, want success", err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
	if s := e.Summary(); s.SimMisses != 2 {
		t.Errorf("misses = %d, want 2 (error attempt counted)", s.SimMisses)
	}
}

func TestSimNeedExactRequiresTrackExact(t *testing.T) {
	e := New(Config{})
	key := testSimKey(1) // TrackExact unset
	_, err := e.Sim(key, NeedExact, func() (Run, error) {
		t.Error("run must not be called")
		return Run{}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "TrackExact") {
		t.Fatalf("err = %v, want TrackExact complaint", err)
	}
}

func TestDiskResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{CacheDir: dir})
	a1, err := e1.Sim(testSimKey(1), NeedResult, func() (Run, error) { return runTiny(1) })
	if err != nil {
		t.Fatal(err)
	}

	// A second engine (fresh process, same cache dir) serves NeedResult
	// from disk without simulating.
	e2 := New(Config{CacheDir: dir})
	a2, err := e2.Sim(testSimKey(1), NeedResult, func() (Run, error) {
		t.Error("run must not be called on a disk hit")
		return Run{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Res != a1.Res {
		t.Errorf("disk result = %+v, want %+v", a2.Res, a1.Res)
	}
	if a2.Harvest() != nil {
		t.Error("disk-loaded artifact claims a harvest")
	}
	if s := e2.Summary(); s.SimDiskHits != 1 || s.SimMisses != 0 {
		t.Errorf("disk-hits/misses = %d/%d, want 1/0", s.SimDiskHits, s.SimMisses)
	}

	// NeedHarvest cannot be served by the result-only disk entry: the
	// simulation re-runs and yields a harvest.
	var runs atomic.Int64
	a3, err := e2.Sim(testSimKey(1), NeedResult|NeedHarvest, func() (Run, error) {
		runs.Add(1)
		return runTiny(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("NeedHarvest after disk hit ran %d times, want 1", runs.Load())
	}
	if a3.Harvest() == nil {
		t.Error("re-run artifact has no harvest")
	}
	if a3.Res != a1.Res {
		t.Errorf("re-run result differs: %+v vs %+v", a3.Res, a1.Res)
	}
}

// exactKey is testSimKey(seed) with exact tracking; runExact simulates
// it, returning a tracker trained on the run's retired PCs.
func exactKey(seed uint64) SimKey {
	k := testSimKey(seed)
	k.TrackExact = true
	return k
}

func runExact(seed uint64) (Run, error) {
	r, err := runTiny(seed)
	if err != nil {
		return r, err
	}
	r.Exact = predictor.NewExact()
	for i, in := range r.M.Trace().Insts {
		r.Exact.Train(in.PC, i%3 == 0)
	}
	return r, nil
}

// TestDiskExactRoundTrip: a TrackExact run's disk entry carries its
// exact tracker, so a fresh engine serves NeedExact without simulating,
// with a tracker that reads exactly as the simulated one.
func TestDiskExactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a1, err := New(Config{CacheDir: dir}).Sim(exactKey(1), NeedResult, func() (Run, error) { return runExact(1) })
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{CacheDir: dir})
	a2, err := e2.Sim(exactKey(1), NeedExact, func() (Run, error) {
		t.Error("run must not be called on a disk hit")
		return Run{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Res != a1.Res || !reflect.DeepEqual(a2.Exact().Table(), a1.Exact().Table()) ||
		!reflect.DeepEqual(a2.Exact().Histogram(20), a1.Exact().Histogram(20)) {
		t.Error("disk-loaded artifact differs from the simulated one")
	}
	if s := e2.Summary(); s.SimDiskHits != 1 || s.SimMisses != 0 {
		t.Errorf("disk-hits/misses = %d/%d, want 1/0", s.SimDiskHits, s.SimMisses)
	}
}

// writeResultEntry plants a framed result envelope for key, as an older
// binary or a damaged writer would have left it.
func writeResultEntry(t *testing.T, dir string, key SimKey, res machine.Result, table *[][3]uint64) {
	t.Helper()
	payload, err := json.Marshal(resultEnvelope{Key: key.String(), Result: res, Exact: table})
	if err != nil {
		t.Fatal(err)
	}
	d := &diskCache{dir: dir}
	if err := os.WriteFile(d.resultPath(key.String()), encodeFrame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskResultWithoutExactTable: an entry written before trackers were
// persisted still serves NeedResult; for NeedExact it is a miss that
// simulates once and rewrites the entry with the table, so the next
// process hits.
func TestDiskResultWithoutExactTable(t *testing.T) {
	dir := t.TempDir()
	want, err := runExact(1)
	if err != nil {
		t.Fatal(err)
	}
	writeResultEntry(t, dir, exactKey(1), want.Res, nil)

	var runs atomic.Int64
	run := func() (Run, error) {
		runs.Add(1)
		return runExact(1)
	}
	e := New(Config{CacheDir: dir})
	if a, err := e.Sim(exactKey(1), NeedResult, run); err != nil || a.Res != want.Res || a.Exact() != nil {
		t.Fatalf("NeedResult from an old-format entry: %v", err)
	}
	for i := 0; i < 2; i++ {
		if a, err := e.Sim(exactKey(1), NeedExact, run); err != nil || a.Exact() == nil {
			t.Fatalf("NeedExact: %v", err)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("NeedExact over an old-format entry simulated %d times, want 1", runs.Load())
	}
	e2 := New(Config{CacheDir: dir})
	if _, err := e2.Sim(exactKey(1), NeedExact, run); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Error("the rewritten entry did not serve NeedExact")
	}
}

// TestDiskCorruptExactTableQuarantined: an entry whose exact table
// fails validation (here, rows out of PC order) is quarantined and the
// key recomputed, never served.
func TestDiskCorruptExactTableQuarantined(t *testing.T) {
	dir := t.TempDir()
	want, err := runExact(1)
	if err != nil {
		t.Fatal(err)
	}
	writeResultEntry(t, dir, exactKey(1), want.Res, &[][3]uint64{{8, 1, 0}, {4, 1, 1}})
	var runs atomic.Int64
	e := New(Config{CacheDir: dir})
	a, err := e.Sim(exactKey(1), NeedResult, func() (Run, error) {
		runs.Add(1)
		return runExact(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || !reflect.DeepEqual(a.Exact().Table(), want.Exact.Table()) {
		t.Errorf("corrupt entry: %d simulations, want 1 with the recomputed tracker", runs.Load())
	}
	if s := e.Summary(); s.Quarantines != 1 || s.SimDiskHits != 0 {
		t.Errorf("quarantines/disk-hits = %d/%d, want 1/0", s.Quarantines, s.SimDiskHits)
	}
}

func TestDiskTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{CacheDir: dir})
	tr1, err := e1.Trace(testTraceKey(1), func() (*trace.Trace, error) {
		return workload.Generate("gzip", testInsts, 1)
	})
	if err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{CacheDir: dir})
	tr2, err := e2.Trace(testTraceKey(1), func() (*trace.Trace, error) {
		t.Error("generator must not run on a disk hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != tr1.Len() {
		t.Fatalf("disk trace len = %d, want %d", tr2.Len(), tr1.Len())
	}
	for i := range tr1.Insts {
		if tr1.Insts[i] != tr2.Insts[i] {
			t.Fatalf("inst %d differs after disk round trip", i)
		}
	}
	if s := e2.Summary(); s.TraceHits != 1 || s.TraceMisses != 0 {
		t.Errorf("trace hits/misses = %d/%d, want 1/0", s.TraceHits, s.TraceMisses)
	}
}

func TestBadCacheDirNonFatal(t *testing.T) {
	// A file where the directory should be: MkdirAll fails, the disk
	// layer is disabled, and the engine still works.
	parent := t.TempDir()
	dir := parent + "/occupied"
	if err := atomicWrite(parent, dir, []byte("x")); err != nil {
		t.Fatal(err)
	}
	e := New(Config{CacheDir: dir})
	if e.Summary().DiskErr == nil {
		t.Error("expected DiskErr for unusable cache dir")
	}
	if _, err := e.Sim(testSimKey(1), NeedResult, func() (Run, error) { return runTiny(1) }); err != nil {
		t.Fatalf("engine without disk layer failed: %v", err)
	}
}

// TestEvictionUnderPressure pins the memory-cache behavior: over budget,
// a harvested sim entry is dropped outright (there is no machine to
// demote), drivers already holding its artifact keep a usable harvest,
// and a later harvest request re-simulates.
func TestEvictionUnderPressure(t *testing.T) {
	e := New(Config{MaxCacheBytes: baseCost + 1}) // any harvest evicts immediately
	full, err := e.Sim(testSimKey(1), NeedHarvest, func() (Run, error) { return runTiny(1) })
	if err != nil {
		t.Fatal(err)
	}
	in := full.Harvest()
	if in == nil || len(in.Release) != in.Trace.Len() {
		t.Fatal("returned artifact lost its harvest (eviction must not mutate)")
	}
	s := e.Summary()
	if s.Evictions == 0 {
		t.Error("expected an eviction under a tiny budget")
	}
	if s.CacheBytes > baseCost+1 {
		t.Errorf("cache resident %d bytes over budget", s.CacheBytes)
	}

	var runs atomic.Int64
	run := func() (Run, error) { runs.Add(1); return runTiny(1) }
	a, err := e.Sim(testSimKey(1), NeedHarvest, run)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("harvest after eviction ran %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(a.Harvest(), in) {
		t.Error("re-simulated harvest differs from the evicted one")
	}
}

func TestMemCacheEviction(t *testing.T) {
	c := newMemCache(2 * baseCost)
	c.put(&entry{key: "a", kind: kindSim, art: &Artifact{}, cost: baseCost})
	c.put(&entry{key: "b", kind: kindSim, art: &Artifact{}, cost: baseCost})
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.get("a") // refresh a: b becomes LRU
	c.put(&entry{key: "c", kind: kindSim, art: &Artifact{}, cost: baseCost})
	if c.get("b") != nil {
		t.Error("LRU entry b survived over-budget insert")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Error("recently used entries evicted")
	}
	if c.bytes > c.max {
		t.Errorf("resident %d over budget %d", c.bytes, c.max)
	}
}

func TestMapDeterministicOrder(t *testing.T) {
	e := New(Config{Workers: 8})
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(e, items, func(i, item int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // scramble completion order
		}
		return item * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const bound = 3
	e := New(Config{Workers: bound})
	var cur, high atomic.Int64
	_, err := Map(e, make([]int, 50), func(i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			h := high.Load()
			if n <= h || high.CompareAndSwap(h, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := high.Load(); h > bound {
		t.Errorf("high-water concurrency %d exceeds pool bound %d", h, bound)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	e := New(Config{Workers: 4})
	_, err := Map(e, make([]int, 20), func(i, _ int) (int, error) {
		if i == 7 || i == 13 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 7 failed") {
		t.Fatalf("err = %v, want deterministic lowest-index error (job 7)", err)
	}
}

// TestMapPanicRecovered is the regression test for the old parBench
// design, where a panicking job left the dispatch channel send blocked
// forever. With counter-based dispatch plus recovery, a panic surfaces
// as an error and sibling jobs complete.
func TestMapPanicRecovered(t *testing.T) {
	e := New(Config{Workers: 2})
	done := make(chan struct{})
	var completed atomic.Int64
	go func() {
		defer close(done)
		_, err := Map(e, make([]int, 30), func(i, _ int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			completed.Add(1)
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("err = %v, want recovered panic", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Map deadlocked after a job panic")
	}
	if completed.Load() != 29 {
		t.Errorf("completed %d sibling jobs, want 29", completed.Load())
	}
}

func TestMapEmpty(t *testing.T) {
	e := New(Config{Workers: 4})
	out, err := Map(e, []int(nil), func(i, item int) (int, error) { return item, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(empty) = %v, %v", out, err)
	}
}

func TestRenderSummary(t *testing.T) {
	e := New(Config{Workers: 2})
	if _, err := e.Sim(testSimKey(1), NeedResult, func() (Run, error) { return runTiny(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sim(testSimKey(1), NeedResult, func() (Run, error) { return runTiny(1) }); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	e.RenderSummary(&sb)
	out := sb.String()
	for _, want := range []string{"Engine summary (2 workers)", "sim jobs run: 1", "cache: 1 entries"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestNeedString(t *testing.T) {
	cases := map[Need]string{
		0:                                    "none",
		NeedResult:                           "result",
		NeedResult | NeedHarvest:             "result+harvest",
		NeedResult | NeedHarvest | NeedExact: "result+harvest+exact",
	}
	for n, want := range cases {
		if got := n.String(); got != want {
			t.Errorf("Need(%d).String() = %q, want %q", n, got, want)
		}
	}
}

func TestKeyCanonicalForms(t *testing.T) {
	tk := testTraceKey(7)
	if want := "v1|trace|bench=gzip|insts=300|seed=7"; tk.String() != want {
		t.Errorf("TraceKey = %q, want %q", tk.String(), want)
	}
	sk := testSimKey(7)
	sk.TrackExact = true
	want := "v1|sim|bench=gzip|insts=300|seed=7|fwd=2|epoch=1024|clusters=1|stack=depbased|exact=true"
	if sk.String() != want {
		t.Errorf("SimKey = %q, want %q", sk.String(), want)
	}
	if h := hashKey(sk.String()); len(h) != 32 {
		t.Errorf("hashKey length = %d, want 32 hex chars", len(h))
	}
}

// TestSimKeyFormStable pins the canonical form (and so the on-disk file
// name) of a key written before SimKey grew its Knob field: disk caches
// and resume journals from earlier binaries must keep resolving. A knob
// only ever appends a field.
func TestSimKeyFormStable(t *testing.T) {
	sk := SimKey{Bench: "vpr", Insts: 20000, Seed: 3, Fwd: 2, Clusters: 8, Stack: "s"}
	const want = "v1|sim|bench=vpr|insts=20000|seed=3|fwd=2|epoch=0|clusters=8|stack=s|exact=false"
	if sk.String() != want {
		t.Errorf("SimKey = %q, want %q", sk.String(), want)
	}
	if got, wantHash := hashKey(sk.String()), "c9f59b66ae48266ff9a9d2e8da06e7c9"; got != wantHash {
		t.Errorf("hashKey = %s, want %s", got, wantHash)
	}
	sk.Knob = "loc=win-loc,window=16"
	if got := sk.String(); got != want+"|knob=loc=win-loc,window=16" {
		t.Errorf("knobbed SimKey = %q", got)
	}
}
