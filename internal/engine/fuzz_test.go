package engine

import (
	"encoding/json"
	"os"
	"testing"

	"clustersim/internal/machine"
	"clustersim/internal/metrics"
	"clustersim/internal/predictor"
	"clustersim/internal/workload"
)

// The fuzz targets drive the four disk-cache decode paths (trace,
// result, analysis, sched) plus the shared frame reader with arbitrary
// bytes. The contract under fuzz is the cache's corruption promise: a
// loader may miss (and quarantine), but it must never panic and never
// return ok for bytes that aren't a well-formed entry of its key. Seeds
// are real encoded entries produced by the same writers that populate a
// production cache dir, plus their torn and bit-flipped variants.

// seedEntries builds genuine on-disk bytes for all four artifact kinds.
func seedEntries(tb testing.TB) (traceBytes, resultBytes, anaBytes, schedBytes []byte) {
	tb.Helper()
	dir := tb.TempDir()
	d, err := newDiskCache(dir, metrics.NewRegistry(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := workload.Generate("gzip", testInsts, 1)
	if err != nil {
		tb.Fatal(err)
	}
	d.storeTrace(testTraceKey(1), tr)
	exact := predictor.NewExact()
	exact.Train(0x40, true)
	exact.Train(0x44, false)
	d.storeResult(testSimKey(1), &Artifact{Res: machine.Result{ConfigName: "1x8w", Insts: 300, Cycles: 400}, exact: exact})
	d.storeAnalysis(analysisCanon(testSimKey(1)), &CritSummary{})
	d.storeSched("sched-key", &SchedSummary{Insts: 300, Makespan: 99})
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return read(d.tracePath(testTraceKey(1).String())),
		read(d.resultPath(testSimKey(1).String())),
		read(d.analysisPath(analysisCanon(testSimKey(1)))),
		read(d.schedPath("sched-key"))
}

// addSeedVariants seeds f with data plus classic corruptions of it.
func addSeedVariants(f *testing.F, data []byte) {
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:frameHdrLen-1])
	flipped := append([]byte{}, data...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(append(append([]byte{}, data...), 0xFF))
}

// fuzzCache builds a throwaway disk cache holding data at path(canon)
// and returns it; the registry keeps counters isolated per iteration.
func fuzzCache(t *testing.T, data []byte, path func(d *diskCache) string) *diskCache {
	t.Helper()
	d, err := newDiskCache(t.TempDir(), metrics.NewRegistry(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(d), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return d
}

func FuzzFrameDecode(f *testing.F) {
	_, resultBytes, _, _ := seedEntries(f)
	addSeedVariants(f, resultBytes)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeFrame(data, maxJSONPayload)
		if err == nil && len(data) != frameHdrLen+len(payload) {
			t.Fatalf("frame accepted with wrong geometry: %d bytes, %d payload", len(data), len(payload))
		}
	})
}

func FuzzLoadTrace(f *testing.F) {
	traceBytes, _, _, _ := seedEntries(f)
	addSeedVariants(f, traceBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		key := testTraceKey(1)
		d := fuzzCache(t, data, func(d *diskCache) string { return d.tracePath(key.String()) })
		if tr, ok := d.loadTrace(key); ok && tr.Len() == 0 {
			t.Fatal("loadTrace returned ok with an empty trace")
		}
	})
}

func FuzzLoadResult(f *testing.F) {
	_, resultBytes, _, _ := seedEntries(f)
	addSeedVariants(f, resultBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		key := testSimKey(1)
		d := fuzzCache(t, data, func(d *diskCache) string { return d.resultPath(key.String()) })
		if res, ok := d.loadResult(key); ok {
			// An accepted entry must really carry the canonical key.
			payload, err := decodeFrame(data, maxJSONPayload)
			if err != nil {
				t.Fatal("loadResult accepted a corrupt frame")
			}
			var env resultEnvelope
			if json.Unmarshal(payload, &env) != nil || env.Key != key.String() {
				t.Fatalf("loadResult accepted a foreign envelope: %+v", res)
			}
		}
	})
}

func FuzzLoadAnalysis(f *testing.F) {
	_, _, anaBytes, _ := seedEntries(f)
	addSeedVariants(f, anaBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		canon := analysisCanon(testSimKey(1))
		d := fuzzCache(t, data, func(d *diskCache) string { return d.analysisPath(canon) })
		d.loadAnalysis(canon)
	})
}

func FuzzLoadSched(f *testing.F) {
	_, _, _, schedBytes := seedEntries(f)
	addSeedVariants(f, schedBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		const canon = "sched-key"
		d := fuzzCache(t, data, func(d *diskCache) string { return d.schedPath(canon) })
		d.loadSched(canon)
	})
}

func FuzzJournalReplay(f *testing.F) {
	_, resultBytes, _, _ := seedEntries(f)
	// A well-formed journal is a concatenation of frames; seed with a
	// real record stream and with raw cache bytes (also framed).
	rec, _ := json.Marshal(journalRecord{
		Kind: recResult, Key: testSimKey(1).String(), Insts: testInsts, Result: &machine.Result{Insts: 300},
		Exact: &[][3]uint64{{0x40, 2, 1}},
	})
	stream := append(encodeFrame(rec), encodeFrame(rec)...)
	addSeedVariants(f, stream)
	f.Add(resultBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := t.TempDir() + "/j"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(Config{})
		restored, err := e.OpenJournal(path, true)
		if err != nil {
			t.Fatalf("replay errored on arbitrary bytes: %v", err)
		}
		e.CloseJournal()
		if restored < 0 {
			t.Fatal("negative restore count")
		}
	})
}
