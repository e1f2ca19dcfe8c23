package experiments

import (
	"fmt"
	"io"
)

// PredictorSweepResult is the predictor-capacity ablation: the paper
// sizes its PC-indexed tables generously (and Section 7 shows 4-bit
// probabilistic counters suffice per entry); this sweep shows how much
// table aliasing a real design could tolerate.
type PredictorSweepResult struct {
	Bits []uint
	Avg  []float64 // 8x1w normalized CPI under stall-over-steer per size
}

// PredictorSweep varies the LoC/binary table size (2^bits entries).
func PredictorSweep(opts Options) (*PredictorSweepResult, error) {
	opts = opts.withDefaults()
	r := &PredictorSweepResult{Bits: []uint{6, 10, 16}}
	knobs := make([]knob, len(r.Bits))
	for i, bits := range r.Bits {
		knobs[i] = knob{locTag: "ps-loc", predBits: bits}
	}
	rows, err := parBench(opts, func(bench string) ([]float64, error) {
		return normalizedCPIs(opts, ablationKeys(opts, bench, StackStall, knobs...))
	})
	if err != nil {
		return nil, err
	}
	r.Avg = averageRows(rows, len(r.Bits), len(opts.Benchmarks))
	return r, nil
}

// Render writes the predictor-capacity ablation.
func (r *PredictorSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Predictor table-size ablation (8x1w, stall-over-steer; avg normalized CPI)")
	for i, bits := range r.Bits {
		fmt.Fprintf(w, "%6d entries %8.3f\n", 1<<bits, r.Avg[i])
	}
}
