package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/faultinject"
)

// The job log is the serving layer's write-ahead log: an append-only,
// fsynced file of CRC-framed JSON records (the engine's CSF1 framing
// discipline) recording every job's lifecycle transitions — accepted
// (with tenant, spec and idempotency key), started, finished (with the
// terminal state and, for done jobs, the rendered artifacts). It is what
// makes `clustersim serve` crash-safe: the engine journal underneath can
// already replay computed values, but without the job log the *jobs*
// themselves — accepted work the server said 202 to — lived only in
// memory.
//
// Durability contract, in write order:
//
//   - The accepted record is appended and fsynced BEFORE the 202 leaves
//     the server. If the append fails (dying disk, injected fault), the
//     submission is refused with 503 and the client retries — so there
//     is never a job a client believes accepted that a restart forgets.
//   - started/finished appends are best-effort: losing one only means a
//     restart re-runs the job, and the engine's content-addressed cache
//     plus byte-determinism make a re-run a cheap, invisible replay.
//   - Every append that fails or lands short is rolled back by
//     truncating the file to the last known-good frame boundary before
//     retrying, so a mid-file torn frame can never cut off later
//     records; the only torn tail a replay ever sees is a genuine
//     crash mid-append, which valid-prefix recovery truncates away.
//
// Replay is order-insensitive per job (records merge by ID), so the
// accepted/started interleavings a busy runner produces are all legal.
// On startup the log is compacted: the restored live state is rewritten
// through temp-file + rename, bounding growth across restarts.

// Job-log record kinds.
const (
	jlAccepted = "accepted"
	jlStarted  = "started"
	jlFinished = "finished"
)

// maxJobLogPayload bounds one framed record (a finished record carries a
// job's rendered artifacts).
const maxJobLogPayload = 16 << 20

// jlRecord is one job transition on disk.
type jlRecord struct {
	Kind        string
	ID          string
	Tenant      string           `json:",omitempty"`
	Spec        *Spec            `json:",omitempty"`
	IdemKey     string           `json:",omitempty"`
	SubmittedAt time.Time        `json:",omitempty"`
	State       State            `json:",omitempty"`
	Artifacts   []ResultArtifact `json:",omitempty"`
	Err         string           `json:",omitempty"`
}

// errJobLogBroken means an append could not be rolled back to a frame
// boundary; further appends would risk a mid-file torn frame, so the log
// refuses them (and the server refuses new submissions with 503).
var errJobLogBroken = errors.New("server: job log broken (unrepairable torn append)")

// jobLog is the append handle. Replay happens once at open; after that
// the log is append-only. Appends come from the submit handler and every
// runner goroutine concurrently, so mu serializes all file mutation: an
// unserialized rollback would truncate to a stale size and cut off a
// record another goroutine had already fsynced (and whose 202 the client
// already holds).
type jobLog struct {
	path string

	mu     sync.Mutex
	f      *os.File
	size   int64 // bytes of valid, fsynced frames
	broken bool
}

// openJobLog reads the log at path (a missing file is an empty log),
// replays the valid prefix, truncates a torn tail, and returns the
// records plus the open-for-append handle. torn is how many trailing
// bytes were discarded.
func openJobLog(path string) (*jobLog, []jlRecord, int64, error) {
	var data []byte
	var err error
	// An injected (or real transient) read error must not be mistaken
	// for an empty log — that would silently discard accepted jobs — so
	// the open path retries before giving up.
	for attempt := 0; ; attempt++ {
		data, err = os.ReadFile(path)
		if err == nil {
			err = faultinject.Err("joblog.read")
		}
		if err == nil {
			break
		}
		if errors.Is(err, fs.ErrNotExist) {
			data, err = nil, nil
			break
		}
		if attempt >= 6 {
			return nil, nil, 0, fmt.Errorf("server: read job log: %w", err)
		}
		time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
	}

	var recs []jlRecord
	rest := data
	for len(rest) > 0 {
		payload, next, ferr := engine.NextFrame(rest, maxJobLogPayload)
		if ferr != nil {
			break // torn tail: keep the valid prefix
		}
		var rec jlRecord
		if json.Unmarshal(payload, &rec) == nil && rec.ID != "" {
			recs = append(recs, rec)
		}
		rest = next
	}
	valid := int64(len(data) - len(rest))
	torn := int64(len(rest))
	if torn > 0 {
		if err := os.Truncate(path, valid); err != nil {
			return nil, nil, torn, fmt.Errorf("server: truncate torn job log: %w", err)
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, torn, fmt.Errorf("server: open job log: %w", err)
	}
	// The file may have just been created: make its directory entry
	// durable before any accepted record is acknowledged through it.
	if err := engine.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, torn, fmt.Errorf("server: sync job log dir: %w", err)
	}
	return &jobLog{path: path, f: f, size: valid}, recs, torn, nil
}

// append frames, writes and fsyncs one record, retrying with rollback on
// failure. The caller decides whether an error is fatal (accepted
// records: refuse the submission) or absorbable (started/finished: a
// restart re-runs the job).
func (l *jobLog) append(rec jlRecord) error {
	if l == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	framed := engine.EncodeFrame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken {
		return errJobLogBroken
	}
	if l.f == nil {
		return errors.New("server: job log closed")
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
		}
		if lastErr = l.writeOnce(framed); lastErr == nil {
			return nil
		}
		if l.broken {
			return lastErr
		}
	}
	return lastErr
}

// writeOnce attempts one framed append. Any failure — refused write,
// short write, failed fsync — rolls the file back to the pre-append
// frame boundary so the on-disk prefix stays well formed.
func (l *jobLog) writeOnce(framed []byte) error {
	if err := faultinject.Err("joblog.append"); err != nil {
		return err // refused before any byte landed
	}
	data, err := faultinject.WriteFault("joblog.append.write", framed)
	if err != nil {
		return err
	}
	n, werr := l.f.Write(data)
	if werr != nil || n < len(framed) || len(data) < len(framed) {
		// Torn append (real short write or injected truncation): roll
		// back to the last good frame so later records stay reachable.
		if terr := l.rollback(); terr != nil {
			l.broken = true
			return fmt.Errorf("%w: %v", errJobLogBroken, terr)
		}
		if werr == nil {
			werr = io.ErrShortWrite
		}
		return werr
	}
	if err := l.f.Sync(); err != nil {
		if terr := l.rollback(); terr != nil {
			l.broken = true
			return fmt.Errorf("%w: %v", errJobLogBroken, terr)
		}
		return err
	}
	l.size += int64(len(framed))
	return nil
}

// rollback truncates the file to the last fsynced frame boundary (l.mu
// held, via append). With O_APPEND, the next write lands at the new end.
func (l *jobLog) rollback() error {
	return l.f.Truncate(l.size)
}

// compact atomically rewrites the log to exactly recs (the live state
// after a replay), bounding growth across restarts: temp file, fsync,
// rename over the original, reopen for append.
func (l *jobLog) compact(recs []jlRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, ".joblog-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var size int64
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		framed := engine.EncodeFrame(payload)
		if _, err := tmp.Write(framed); err != nil {
			tmp.Close()
			return err
		}
		size += int64(len(framed))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return err
	}
	// The rename itself must survive power loss, or the directory entry
	// reverts to the old inode and takes every later append with it.
	if err := engine.SyncDir(dir); err != nil {
		return err
	}
	old := l.f
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	l.f = f
	l.size = size
	return nil
}

// close syncs and closes the log.
func (l *jobLog) close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.f.Sync()
	err := l.f.Close()
	l.f = nil
	return err
}

// acceptedRecord builds the write-ahead record for a freshly admitted
// job.
func acceptedRecord(j *Job) jlRecord {
	sp := j.Spec
	return jlRecord{
		Kind:        jlAccepted,
		ID:          j.ID,
		Tenant:      sp.Tenant,
		Spec:        &sp,
		IdemKey:     j.idemKey,
		SubmittedAt: j.submitted,
	}
}

// jlJob is one job's merged log state during replay.
type jlJob struct {
	rec      jlRecord // the accepted record (spec, tenant, idem key)
	accepted bool
	started  bool
	finished bool
	state    State
	arts     []ResultArtifact
	errMsg   string
}

// mergeRecords folds a replayed record stream into per-job state,
// preserving first-appearance order. Records for IDs that never get an
// accepted record carry no spec and are dropped.
func mergeRecords(recs []jlRecord) (order []string, jobs map[string]*jlJob) {
	jobs = map[string]*jlJob{}
	for _, rec := range recs {
		jj := jobs[rec.ID]
		if jj == nil {
			jj = &jlJob{}
			jobs[rec.ID] = jj
			order = append(order, rec.ID)
		}
		switch rec.Kind {
		case jlAccepted:
			if rec.Spec != nil {
				jj.rec = rec
				jj.accepted = true
			}
		case jlStarted:
			jj.started = true
		case jlFinished:
			if rec.State.terminal() {
				jj.finished = true
				jj.state = rec.State
				jj.arts = rec.Artifacts
				jj.errMsg = rec.Err
			}
		}
	}
	return order, jobs
}
