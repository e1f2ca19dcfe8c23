package engine

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
)

func TestAnalysisCachesAndSharesSimArtifact(t *testing.T) {
	e := New(Config{Workers: 2})
	var runs atomic.Int64
	run := func() (Run, error) {
		runs.Add(1)
		return runTiny(1)
	}
	cs1, err := e.Analysis(testSimKey(1), run)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := e.Analysis(testSimKey(1), run)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("sim ran %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(cs1, cs2) {
		t.Fatal("cached analysis differs from computed analysis")
	}
	if cs1.Matrix.Runtime[0] <= 0 {
		t.Fatalf("base runtime %d, want > 0", cs1.Matrix.Runtime[0])
	}
	if cs1.Matrix.Cost[0] != 0 {
		t.Fatalf("cost of the empty zero-set = %d, want 0", cs1.Matrix.Cost[0])
	}
	if cs1.Breakdown.Total() != cs1.Matrix.Runtime[0] {
		t.Fatalf("walk attributed %d cycles but the run took %d",
			cs1.Breakdown.Total(), cs1.Matrix.Runtime[0])
	}
	var hist int64
	for _, c := range cs1.SlackHist {
		hist += c
	}
	if hist <= 0 {
		t.Fatalf("slack histogram empty (sum %d)", hist)
	}
	s := e.Summary()
	if s.AnaHits != 1 || s.AnaMisses != 1 || s.AnaJobs != 1 {
		t.Errorf("analysis hits/misses/jobs = %d/%d/%d, want 1/1/1",
			s.AnaHits, s.AnaMisses, s.AnaJobs)
	}
	// The simulation the analysis triggered is itself cached: a NeedResult
	// submission must hit without running.
	before := runs.Load()
	if _, err := e.Sim(testSimKey(1), NeedResult, run); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != before {
		t.Error("analysis did not share its simulation artifact with Sim")
	}
}

func TestAnalysisConcurrentDedup(t *testing.T) {
	e := New(Config{Workers: 8})
	var runs atomic.Int64
	const submitters = 12
	out := make([]CritSummary, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, err := e.Analysis(testSimKey(1), func() (Run, error) {
				runs.Add(1)
				return runTiny(1)
			})
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = cs
		}(i)
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("sim ran %d times under concurrent analysis, want 1", runs.Load())
	}
	if s := e.Summary(); s.AnaJobs != 1 {
		t.Fatalf("analysis computed %d times, want 1", s.AnaJobs)
	}
	for i := 1; i < submitters; i++ {
		if !reflect.DeepEqual(out[0], out[i]) {
			t.Fatalf("submitter %d saw a different analysis", i)
		}
	}
}

func TestAnalysisDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e1 := New(Config{Workers: 2, CacheDir: dir})
	cs1, err := e1.Analysis(testSimKey(1), func() (Run, error) { return runTiny(1) })
	if err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same directory must serve the analysis from
	// disk without simulating or re-analyzing.
	e2 := New(Config{Workers: 2, CacheDir: dir})
	var runs atomic.Int64
	cs2, err := e2.Analysis(testSimKey(1), func() (Run, error) {
		runs.Add(1)
		return runTiny(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatalf("disk-cached analysis re-simulated %d times", runs.Load())
	}
	if !reflect.DeepEqual(cs1, cs2) {
		t.Fatal("analysis changed across the disk round-trip")
	}
	s := e2.Summary()
	if s.AnaDiskHits != 1 || s.AnaJobs != 0 {
		t.Errorf("disk-hits/jobs = %d/%d, want 1/0", s.AnaDiskHits, s.AnaJobs)
	}
	// And it is now memory-resident: a second lookup is a plain hit.
	if _, err := e2.Analysis(testSimKey(1), nil); err != nil {
		t.Fatal(err)
	}
	if s := e2.Summary(); s.AnaHits != 1 {
		t.Errorf("analysis hits = %d, want 1", s.AnaHits)
	}
}

// runTinyPooled is runTiny on a pooled machine, so machines the engine
// recycles really are handed out again.
func runTinyPooled(seed uint64) (Run, error) {
	tr, err := workload.Generate("gzip", testInsts, seed)
	if err != nil {
		return Run{}, err
	}
	m, err := machine.NewPooled(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
	if err != nil {
		return Run{}, err
	}
	return Run{M: m, Res: m.Run()}, nil
}

// oracleSchedule is the idealized 8x1w schedule of a harvest.
func oracleSchedule(t *testing.T, in *listsched.Input) *listsched.Schedule {
	t.Helper()
	s, err := listsched.Run(*in, listsched.ConfigFor(machine.NewConfig(8)), listsched.NewOracle(*in))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOneKeyAnalysisHarvestResultShareOneRun submits an analysis, a
// harvest and a result request for one key concurrently. The harvest
// and result requests join the analysis's simulation flight while it is
// still open, so the key simulates once and the one machine serves all
// three; everything they read must match a serial engine's values, and
// must stay intact while the recycled machine is reused by later runs.
func TestOneKeyAnalysisHarvestResultShareOneRun(t *testing.T) {
	key := testSimKey(1)
	serial := New(Config{Workers: 1})
	wantCS, err := serial.Analysis(key, func() (Run, error) { return runTiny(1) })
	if err != nil {
		t.Fatal(err)
	}
	wantArt, err := serial.Sim(key, NeedHarvest, func() (Run, error) { return runTiny(1) })
	if err != nil {
		t.Fatal(err)
	}
	wantSched := oracleSchedule(t, wantArt.Harvest())

	e := New(Config{Workers: 4})
	var runs atomic.Int64
	release := make(chan struct{})
	run := func() (Run, error) {
		runs.Add(1)
		<-release // hold the flight open until every submission has joined
		return runTinyPooled(1)
	}
	var wg sync.WaitGroup
	var cs CritSummary
	var harvested, result *Artifact
	var errs [3]error
	wg.Add(1)
	go func() {
		defer wg.Done()
		cs, errs[0] = e.AnalysisCtx(context.Background(), key, run)
	}()
	joined := func(need Need) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			e.mu.Lock()
			c := e.inflight[key.String()]
			ok := c != nil && c.need&need == need
			e.mu.Unlock()
			if ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("flight never reached need %s", need)
	}
	joined(needAnalysis)
	wg.Add(2)
	go func() {
		defer wg.Done()
		harvested, errs[1] = e.SimCtx(context.Background(), key, NeedHarvest, run)
	}()
	go func() {
		defer wg.Done()
		result, errs[2] = e.SimCtx(context.Background(), key, NeedResult, run)
	}()
	joined(needAnalysis | NeedHarvest | NeedResult)
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("key simulated %d times, want 1", runs.Load())
	}
	if s := e.Summary(); s.SimMisses != 1 || s.SimHits != 2 || s.AnaJobs != 1 {
		t.Errorf("sim misses/hits = %d/%d, analyses = %d; want 1/2/1", s.SimMisses, s.SimHits, s.AnaJobs)
	}
	if !reflect.DeepEqual(cs, wantCS) {
		t.Error("concurrent analysis differs from the serial one")
	}
	if result.Res != wantArt.Res || harvested.Res != wantArt.Res {
		t.Error("concurrent results differ from the serial one")
	}

	// Reuse the pool while reading the harvest: the artifact must not
	// alias the recycled machine (the race detector watches the reads).
	var reuse sync.WaitGroup
	for s := uint64(2); s < 6; s++ {
		reuse.Add(1)
		go func(s uint64) {
			defer reuse.Done()
			r, err := runTinyPooled(s)
			if err != nil {
				t.Error(err)
				return
			}
			machine.Recycle(r.M)
		}(s)
	}
	got := oracleSchedule(t, harvested.Harvest())
	reuse.Wait()
	if !reflect.DeepEqual(harvested.Harvest(), wantArt.Harvest()) {
		t.Error("concurrent harvest differs from the serial one")
	}
	if got.Makespan != wantSched.Makespan || got.CrossEdges != wantSched.CrossEdges {
		t.Errorf("schedule makespan/cross = %d/%d, want %d/%d",
			got.Makespan, got.CrossEdges, wantSched.Makespan, wantSched.CrossEdges)
	}
	// Later lookups are served from the cache without simulating.
	if _, err := e.Sim(key, NeedHarvest, run); err != nil || runs.Load() != 1 {
		t.Errorf("cached harvest: err=%v runs=%d", err, runs.Load())
	}
}

// TestClosedFlightDoesNotServeNewDerivedNeeds: a result-only flight
// records no event log, so it is closed to derived needs from the start;
// a harvest request arriving during it waits and then simulates on its
// own.
func TestClosedFlightDoesNotServeNewDerivedNeeds(t *testing.T) {
	e := New(Config{Workers: 2})
	key := testSimKey(1)
	release := make(chan struct{})
	var runs atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := e.Sim(key, NeedResult, func() (Run, error) {
			runs.Add(1)
			<-release
			return runTiny(1)
		})
		done <- err
	}()
	for {
		e.mu.Lock()
		c := e.inflight[key.String()]
		open := c != nil && c.open
		e.mu.Unlock()
		if c != nil {
			if open {
				t.Fatal("result-only flight accepts derived needs")
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	harvested := make(chan *Artifact, 1)
	go func() {
		a, err := e.Sim(key, NeedHarvest, func() (Run, error) { runs.Add(1); return runTiny(1) })
		if err != nil {
			t.Error(err)
		}
		harvested <- a
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a := <-harvested; a == nil || a.Harvest() == nil || runs.Load() != 2 {
		t.Fatalf("runs=%d, want a harvest from a second run", runs.Load())
	}
}

// TestFlightServesWhatAFinishedFlightPublished: a submission that missed
// the cache just before another flight published and left the table is
// served from what that flight published instead of simulating again.
func TestFlightServesWhatAFinishedFlightPublished(t *testing.T) {
	e := New(Config{})
	key := testSimKey(1)
	want, err := e.Analysis(key, func() (Run, error) { return runTiny(1) })
	if err != nil {
		t.Fatal(err)
	}
	for _, need := range []Need{NeedResult, needAnalysis} {
		f, err := e.simFlight(nil, key, need, func() (Run, error) {
			t.Errorf("%s re-simulated a published key", need)
			return runTiny(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if need == needAnalysis && !reflect.DeepEqual(*f.crit, want) {
			t.Error("published analysis differs")
		}
	}
	// A harvest was never published, so that need still simulates.
	var runs atomic.Int64
	if _, err := e.simFlight(nil, key, NeedHarvest, func() (Run, error) { runs.Add(1); return runTiny(1) }); err != nil || runs.Load() != 1 {
		t.Errorf("harvest: err=%v runs=%d, want one run", err, runs.Load())
	}
}
