package engine

import (
	"testing"

	"clustersim/internal/listsched"
)

func testSchedKey(pri string, clusters int) SchedKey {
	return SchedKey{
		Harvest: SimKey{Bench: "vpr", Insts: 1000, Seed: 1, Fwd: 2, Clusters: 1, Stack: "dep"},
		Config:  listsched.Config{Clusters: clusters, Width: 1, Int: 1, FP: 1, Mem: 1, Fwd: 2},
		Pri:     pri,
	}
}

func TestSchedulesBatchesMissesAndCaches(t *testing.T) {
	e := New(Config{Workers: 1})
	keys := []SchedKey{testSchedKey("oracle", 2), testSchedKey("oracle", 4), testSchedKey("loc16", 4)}
	calls := 0
	compute := func(miss []int) ([]SchedSummary, error) {
		calls++
		out := make([]SchedSummary, len(miss))
		for j, i := range miss {
			out[j] = SchedSummary{Insts: 1000, Makespan: int64(100 + i), CrossEdges: int64(i)}
		}
		return out, nil
	}
	got, err := e.Schedules(keys, compute)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("compute called %d times, want 1 fused batch", calls)
	}
	for i := range keys {
		if got[i].Makespan != int64(100+i) {
			t.Fatalf("key %d: makespan %d, want %d", i, got[i].Makespan, 100+i)
		}
	}

	// Second submission is all memory hits; compute must not run.
	again, err := e.Schedules(keys, func(miss []int) ([]SchedSummary, error) {
		t.Fatalf("computed %v despite warm cache", miss)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if again[2] != got[2] {
		t.Fatal("cached summary differs from computed one")
	}

	// A superset batch recomputes only the new key.
	wider := append(append([]SchedKey(nil), keys...), testSchedKey("binary", 8))
	_, err = e.Schedules(wider, func(miss []int) ([]SchedSummary, error) {
		if len(miss) != 1 || miss[0] != 3 {
			t.Fatalf("misses %v, want [3]", miss)
		}
		return []SchedSummary{{Insts: 1000, Makespan: 999}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	s := e.Summary()
	if s.SchedMisses != 4 || s.SchedHits != 6 || s.SchedJobs != 2 {
		t.Errorf("counters hits=%d misses=%d jobs=%d, want 6/4/2", s.SchedHits, s.SchedMisses, s.SchedJobs)
	}
}

func TestSchedulesDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	repl := testSchedKey("oracle", 2)
	repl.Replicate = true
	keys := []SchedKey{testSchedKey("oracle", 2), testSchedKey("binary", 8), repl}
	want := []SchedSummary{{Insts: 7, Makespan: 41, CrossEdges: 3, DyadicCross: 1}, {Insts: 7, Makespan: 52},
		{Insts: 7, Makespan: 38, CrossEdges: 2, Replicas: 5}}

	e1 := New(Config{Workers: 1, CacheDir: dir})
	if _, err := e1.Schedules(keys, func(miss []int) ([]SchedSummary, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same directory serves from disk.
	e2 := New(Config{Workers: 1, CacheDir: dir})
	got, err := e2.Schedules(keys, func(miss []int) ([]SchedSummary, error) {
		t.Fatalf("computed %v despite disk cache", miss)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: %+v from disk, want %+v", i, got[i], want[i])
		}
	}
	if s := e2.Summary(); s.SchedDiskHits != 3 {
		t.Errorf("disk hits %d, want 3", s.SchedDiskHits)
	}
}

func TestSchedulesComputeSizeMismatch(t *testing.T) {
	e := New(Config{Workers: 1})
	_, err := e.Schedules([]SchedKey{testSchedKey("oracle", 2)}, func(miss []int) ([]SchedSummary, error) {
		return nil, nil
	})
	if err == nil {
		t.Fatal("accepted short compute result")
	}
}

// TestSchedKeyFormStable pins the canonical form (and so the on-disk file
// name) of a plain schedule key as written before SchedKey grew its
// Replicate field: disk caches and resume journals from earlier binaries
// must keep resolving. Replication only ever appends a field.
func TestSchedKeyFormStable(t *testing.T) {
	k := testSchedKey("oracle", 2)
	const want = "v1|sim|bench=vpr|insts=1000|seed=1|fwd=2|epoch=0|clusters=1|stack=dep|exact=false" +
		"|sched=v1|sc=2|sw=1|si=1|sf=1|sm=1|sfwd=2|pri=oracle"
	if k.String() != want {
		t.Errorf("SchedKey = %q, want %q", k.String(), want)
	}
	if got, wantHash := hashKey(k.String()), "e7fb453c290f47c9b6827e60ee8ef342"; got != wantHash {
		t.Errorf("hashKey = %s, want %s", got, wantHash)
	}
	k.Replicate = true
	if got := k.String(); got != want+"|repl=1" {
		t.Errorf("replicated SchedKey = %q", got)
	}
}
