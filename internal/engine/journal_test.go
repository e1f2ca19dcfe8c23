package engine

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"clustersim/internal/faultinject"
	"clustersim/internal/machine"
)

// TestJournalResume is the checkpoint/resume core: keys completed under
// a journal are served from replay in a later process without re-running
// their jobs, counted as resume hits.
func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")

	e1 := New(Config{Workers: 2})
	if n, err := e1.OpenJournal(path, false); err != nil || n != 0 {
		t.Fatalf("fresh journal: restored=%d err=%v", n, err)
	}
	a1, err := e1.Sim(testSimKey(1), NeedResult, func() (Run, error) { return runTiny(1) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Sim(testSimKey(2), NeedResult, func() (Run, error) { return runTiny(2) }); err != nil {
		t.Fatal(err)
	}
	if err := e1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and resume: a fresh engine replays the journal and serves
	// both keys without simulating; only a genuinely new key runs.
	e2 := New(Config{Workers: 2})
	restored, err := e2.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseJournal()
	if restored != 2 {
		t.Fatalf("restored %d records, want 2", restored)
	}
	var runs atomic.Int64
	mustNotRun := func() (Run, error) {
		runs.Add(1)
		return runTiny(1)
	}
	a2, err := e2.Sim(testSimKey(1), NeedResult, mustNotRun)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatal("journaled key re-simulated on resume")
	}
	if a2.Res != a1.Res {
		t.Fatal("journal round trip changed the result")
	}
	if _, err := e2.Sim(testSimKey(3), NeedResult, func() (Run, error) { return runTiny(3) }); err != nil {
		t.Fatal(err)
	}
	s := e2.Summary()
	if s.ResumeRestored != 2 || s.ResumeHits != 1 {
		t.Errorf("resume restored/hits = %d/%d, want 2/1", s.ResumeRestored, s.ResumeHits)
	}
	if s.SimMisses != 1 {
		t.Errorf("SimMisses = %d, want 1 (only the new key)", s.SimMisses)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn final record;
// replay must restore the valid prefix, truncate the tail, and leave the
// file appendable.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	e1 := New(Config{})
	if _, err := e1.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		s := seed
		if _, err := e1.Sim(testSimKey(s), NeedResult, func() (Run, error) { return runTiny(s) }); err != nil {
			t.Fatal(err)
		}
	}
	e1.CloseJournal()

	// Tear the last record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{})
	restored, err := e2.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d from torn journal, want 2", restored)
	}
	// The lost key just recomputes and re-journals.
	var runs atomic.Int64
	if _, err := e2.Sim(testSimKey(3), NeedResult, func() (Run, error) {
		runs.Add(1)
		return runTiny(3)
	}); err != nil || runs.Load() != 1 {
		t.Fatalf("torn-off key: err=%v runs=%d", err, runs.Load())
	}
	e2.CloseJournal()

	// After truncate+append the stream is whole again: all 3 restore.
	e3 := New(Config{})
	restored, err = e3.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	e3.CloseJournal()
	if restored != 3 {
		t.Fatalf("restored %d after repair, want 3", restored)
	}
}

// TestJournalGarbage: a journal full of garbage restores nothing and
// does not break the run.
func TestJournalGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	restored, err := e.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.CloseJournal()
	if restored != 0 {
		t.Fatalf("restored %d from garbage", restored)
	}
	if _, err := e.Sim(testSimKey(1), NeedResult, func() (Run, error) { return runTiny(1) }); err != nil {
		t.Fatal(err)
	}
}

// TestJournalWithoutResumeTruncates: opening without resume starts a
// fresh journal even when one exists.
func TestJournalWithoutResumeTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	e1 := New(Config{})
	if _, err := e1.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Sim(testSimKey(1), NeedResult, func() (Run, error) { return runTiny(1) }); err != nil {
		t.Fatal(err)
	}
	e1.CloseJournal()

	e2 := New(Config{})
	if _, err := e2.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	e2.CloseJournal()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("non-resume open kept %d bytes", fi.Size())
	}
}

// TestJournalDoubleOpenRejected guards the single-journal invariant.
func TestJournalDoubleOpenRejected(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{})
	if _, err := e.OpenJournal(filepath.Join(dir, "a.journal"), false); err != nil {
		t.Fatal(err)
	}
	defer e.CloseJournal()
	if _, err := e.OpenJournal(filepath.Join(dir, "b.journal"), false); err == nil {
		t.Fatal("second OpenJournal succeeded")
	}
}

// tornAppendSeed finds a fault-injection seed under which, of n
// journal appends, exactly the first tears short (and writes part of
// its frame) while the rest go through: the journal.append site never
// fires and the journal.write site truncates once, on its first call.
func tornAppendSeed(t *testing.T, n int, rate float64) uint64 {
	t.Helper()
	probe := make([]byte, 256)
	for seed := uint64(1); seed < 100000; seed++ {
		faultinject.Enable(seed, rate)
		ok := true
		for i := 0; i < n && ok; i++ {
			if faultinject.Err("journal.append") != nil {
				ok = false
				break
			}
			data, err := faultinject.WriteFault("journal.write", probe)
			torn := err == nil && len(data) > 0 && len(data) < len(probe)
			ok = (i == 0) == torn && (i == 0 || (err == nil && len(data) == len(probe)))
		}
		faultinject.Disable()
		if ok {
			return seed
		}
	}
	t.Fatal("no seed tears exactly the first append")
	return 0
}

// TestJournalTornAppendRolledBack: a short write mid-run must not leave
// a torn frame in the middle of the journal, where replay would stop
// and drop every later record. The torn append is truncated away and
// the later good appends all replay.
func TestJournalTornAppendRolledBack(t *testing.T) {
	const appends = 4
	seed := tornAppendSeed(t, appends, 0.3)
	path := filepath.Join(t.TempDir(), "run.journal")
	e := New(Config{})
	if _, err := e.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(seed, 0.3)
	for s := 1; s <= appends; s++ {
		e.journalResult(testSimKey(uint64(s)).String(), testInsts, &Artifact{Res: machine.Result{Insts: int64(s)}})
	}
	faultinject.Disable()
	if err := e.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if got := e.Summary().DiskErrors; got != 1 {
		t.Errorf("disk errors = %d, want 1 (the torn append)", got)
	}

	e2 := New(Config{})
	restored, err := e2.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseJournal()
	if restored != appends-1 {
		t.Fatalf("restored %d records, want the %d good ones", restored, appends-1)
	}
	for s := 2; s <= appends; s++ {
		a, err := e2.Sim(testSimKey(uint64(s)), NeedResult, func() (Run, error) {
			t.Errorf("journaled key %d re-simulated", s)
			return runTiny(uint64(s))
		})
		if err != nil || a.Res.Insts != int64(s) {
			t.Fatalf("key %d: err=%v insts=%d", s, err, a.Res.Insts)
		}
	}
}

// TestJournalCloseRacesAppends closes the journal while results are
// being journaled (run under -race): appends before the close land whole,
// appends after it are dropped, and the file replays cleanly.
func TestJournalCloseRacesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	e := New(Config{})
	if _, err := e.OpenJournal(path, false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var first sync.Once
	appended := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := testSimKey(uint64(w*1000 + i)).String()
				e.journalResult(key, testInsts, &Artifact{Res: machine.Result{Insts: int64(i)}})
				_ = e.JournalPath()
				first.Do(func() { close(appended) })
			}
		}(w)
	}
	<-appended
	if err := e.CloseJournal(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()
	if e.JournalPath() != "" {
		t.Error("closed journal still reports a path")
	}
	if got := e.Summary().DiskErrors; got != 0 {
		t.Errorf("%d disk errors from appends racing the close", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{})
	restored, err := e2.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.CloseJournal()
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
		t.Errorf("replay truncated the journal: a torn record was left behind")
	}
	t.Logf("%d records journaled before the close", restored)
}

// TestCloseJournalReportsCloseError: CloseJournal surfaces the first of
// its sync and close errors instead of discarding them.
func TestCloseJournalReportsCloseError(t *testing.T) {
	e := New(Config{})
	if _, err := e.OpenJournal(filepath.Join(t.TempDir(), "run.journal"), false); err != nil {
		t.Fatal(err)
	}
	e.journal.Load().f.Close() // the sync and close below both fail
	if err := e.CloseJournal(); err == nil {
		t.Fatal("CloseJournal on a failed file returned nil")
	}
}

// TestOpenJournalSurfacesDirSyncFailure: OpenJournal creates or
// truncates the file, so the directory entry must be fsynced before any
// record goes in. A failed directory fsync fails the open as Fatal and
// leaves no journal attached.
func TestOpenJournalSurfacesDirSyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	e := New(Config{})
	faultinject.Enable(1, 1)
	_, err := e.OpenJournal(path, false)
	faultinject.Disable()
	if !errors.Is(err, ErrFatal) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("OpenJournal with a failing directory fsync returned %v, want a Fatal injected error", err)
	}
	if e.JournalPath() != "" {
		t.Fatal("a journal stayed attached after the failed open")
	}
	if _, err := e.OpenJournal(path, false); err != nil {
		t.Fatalf("reopen after the fault cleared: %v", err)
	}
	e.CloseJournal()
}
