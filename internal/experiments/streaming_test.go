package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// The streaming differential gate: on every one of the paper's twelve
// benchmarks, the chunked on-disk trace path must be indistinguishable
// from the in-memory path at every layer that consumes traces —
// generation (instructions and dependence annotations), simulation
// (results and per-instruction event logs), critical-path analysis, and
// idealized list schedules. Any divergence here means cached CTR2
// entries would silently move the paper's figures.

const (
	gateInsts = 4000
	gateSeed  = 11
	// gateChunk is deliberately small and misaligned with nothing: every
	// benchmark's trace spans several chunks, so cross-chunk dependence
	// carry and chunk paging are exercised on each one.
	gateChunk = 512
)

// streamedTrace generates bench through the chunked writer into an
// in-memory CTR2 store and returns the store (windowed to 2 chunks, so
// paging is real) plus its fully materialized trace.
func streamedTrace(t *testing.T, bench string) (*trace.Store, *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.WriterOptions{ChunkLen: gateChunk})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.GenerateChunked(bench, gateInsts, gateSeed, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := trace.OpenBytes(buf.Bytes(), trace.OpenOptions{WindowChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	return st, tr
}

// runFocused runs one focused-stack simulation (the paper's baseline
// criticality machinery) and returns the machine for event/analysis
// comparison. The caller owns the machine.
func runFocused(t *testing.T, tr *trace.Trace) (*machine.Machine, machine.Result) {
	t.Helper()
	su, err := buildStack(simKey(Options{Fwd: 2}, "gate", 4, StackFocused, false))
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(su.cfg, tr, su.pol, su.hooks)
	if err != nil {
		t.Fatal(err)
	}
	su.bind(m)
	return m, m.Run()
}

func TestStreamingDifferentialAllBenchmarks(t *testing.T) {
	for _, bench := range workload.Names() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			want, err := workload.Generate(bench, gateInsts, gateSeed)
			if err != nil {
				t.Fatal(err)
			}
			st, got := streamedTrace(t, bench)
			defer st.Close()

			// Layer 1: generation. Instructions and dependence columns must
			// match element-for-element, including edges whose producer
			// lives in an earlier chunk.
			if got.Len() != want.Len() {
				t.Fatalf("streamed %d insts, in-memory %d", got.Len(), want.Len())
			}
			for i := range want.Insts {
				if got.Insts[i] != want.Insts[i] {
					t.Fatalf("inst %d differs: %+v != %+v", i, got.Insts[i], want.Insts[i])
				}
				if got.Deps[i] != want.Deps[i] {
					t.Fatalf("deps %d differ: %+v != %+v", i, got.Deps[i], want.Deps[i])
				}
			}

			// Layer 2: simulation. Results compare with == (no floats are
			// derived before comparison) and the event logs element-wise.
			mWant, resWant := runFocused(t, want)
			mGot, resGot := runFocused(t, got)
			if resGot != resWant {
				t.Fatalf("results differ:\nstreaming %+v\nin-memory %+v", resGot, resWant)
			}
			evWant, evGot := mWant.Events(), mGot.Events()
			if len(evGot) != len(evWant) {
				t.Fatalf("event logs differ in length: %d != %d", len(evGot), len(evWant))
			}
			for i := range evWant {
				if evGot[i] != evWant[i] {
					t.Fatalf("event %d differs: %+v != %+v", i, evGot[i], evWant[i])
				}
			}

			// Layer 3: critical-path analysis over the event logs.
			anWant, err := critpath.AnalyzeRun(mWant)
			if err != nil {
				t.Fatal(err)
			}
			anGot, err := critpath.AnalyzeRun(mGot)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(anGot, anWant) {
				t.Fatalf("critical-path analyses differ:\nstreaming %+v\nin-memory %+v", anGot, anWant)
			}

			// Layer 4: idealized list schedules harvested from the runs.
			schedOf := func(m *machine.Machine) *listsched.Schedule {
				in := listsched.FromMachineRun(m)
				s, err := listsched.Run(in, listsched.ConfigFor(machine.NewConfig(4)), listsched.NewOracle(in))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			sWant, sGot := schedOf(mWant), schedOf(mGot)
			if !reflect.DeepEqual(sGot, sWant) {
				t.Fatalf("schedules differ: makespan %d != %d", sGot.Makespan, sWant.Makespan)
			}

			// Layer 5: window-segmented consumption. Paging windows out of
			// the chunked store must equal the same segmentation of the
			// in-memory trace, on a window size misaligned with the chunks.
			seg := func(int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
				return machine.NewConfig(4), &steer.DepBased{}, machine.Hooks{}, nil
			}
			srGot, err := machine.SimulateStore(st, 777, seg)
			if err != nil {
				t.Fatal(err)
			}
			srWant, err := machine.SimulateSliced(want, 777, seg)
			if err != nil {
				t.Fatal(err)
			}
			if srGot != srWant {
				t.Fatalf("segmented runs differ:\nstreaming %+v\nin-memory %+v", srGot, srWant)
			}
		})
	}
}

// windowDigest is one window's derived products: the critical-path
// attribution and the idealized schedule makespan, the two downstream
// consumers the streaming path must feed unchanged.
type windowDigest struct {
	analysis *critpath.Analysis
	makespan int64
}

func digestWindow(t *testing.T, m *machine.Machine) windowDigest {
	t.Helper()
	an, err := critpath.AnalyzeRun(m)
	if err != nil {
		t.Fatal(err)
	}
	in := listsched.FromMachineRun(m)
	s, err := listsched.Run(in, listsched.ConfigFor(machine.NewConfig(4)), listsched.NewOracle(in))
	if err != nil {
		t.Fatal(err)
	}
	return windowDigest{analysis: an, makespan: s.Makespan}
}

func TestStreamingWindowedAnalysisAndSchedules(t *testing.T) {
	// Window-at-a-time critpath and listsched consumption: analyses and
	// schedules computed from each streamed window's machine (via the
	// SimulateStoreObserved hook) must equal the same pipeline over
	// sliced in-memory windows.
	want, err := workload.Generate("parser", gateInsts, gateSeed)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := streamedTrace(t, "parser")
	defer st.Close()

	const window = int64(900) // misaligned with gateChunk on purpose
	seg := func(int) (machine.Config, machine.SteerPolicy, machine.Hooks, error) {
		return machine.NewConfig(4), &steer.DepBased{}, machine.Hooks{}, nil
	}
	var got []windowDigest
	if _, err := machine.SimulateStoreObserved(st, window, seg, func(segIdx int, base int64, m *machine.Machine) error {
		got = append(got, digestWindow(t, m))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wantDigests []windowDigest
	for lo := int64(0); lo < int64(want.Len()); lo += window {
		hi := lo + window
		if hi > int64(want.Len()) {
			hi = int64(want.Len())
		}
		wtr := trace.Rebuild(want.Insts[lo:hi])
		m, err := machine.New(machine.NewConfig(4), wtr, &steer.DepBased{}, machine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		wantDigests = append(wantDigests, digestWindow(t, m))
	}

	if len(got) != len(wantDigests) {
		t.Fatalf("%d streamed windows, %d in-memory", len(got), len(wantDigests))
	}
	for i := range wantDigests {
		if got[i].makespan != wantDigests[i].makespan {
			t.Fatalf("window %d: makespan %d != %d", i, got[i].makespan, wantDigests[i].makespan)
		}
		if !reflect.DeepEqual(got[i].analysis, wantDigests[i].analysis) {
			t.Fatalf("window %d: critical-path analyses differ", i)
		}
	}
}

// TestStreamingDiskRoundTripDifferential closes the loop through the
// actual file system: GenerateToFile → Open → Load must reproduce the
// in-memory generation bit-for-bit (compressed and uncompressed).
func TestStreamingDiskRoundTripDifferential(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			want, err := workload.Generate("twolf", gateInsts, gateSeed)
			if err != nil {
				t.Fatal(err)
			}
			path := t.TempDir() + "/t.ctr"
			opts := trace.WriterOptions{ChunkLen: gateChunk, Compress: compress}
			if err := workload.GenerateToFile("twolf", gateInsts, gateSeed, path, opts); err != nil {
				t.Fatal(err)
			}
			st, err := trace.Open(path, trace.OpenOptions{WindowChunks: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			got, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("lengths differ: %d != %d", got.Len(), want.Len())
			}
			for i := range want.Insts {
				if got.Insts[i] != want.Insts[i] || got.Deps[i] != want.Deps[i] {
					t.Fatalf("inst %d diverged after disk round-trip", i)
				}
			}
		})
	}
}
