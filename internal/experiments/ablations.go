package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/stats"
)

// FwdSweepResult reproduces the paper's Section 2.1 sensitivity note
// (footnote 3): the idealized study re-run across inter-cluster
// forwarding latencies of 1–4 cycles.
type FwdSweepResult struct {
	// Avg[lat][i] is the average normalized idealized CPI at latency
	// lat for clusterCounts[i].
	Avg  map[int][]float64
	Lats []int
}

// FwdSweep runs the idealized study at several forwarding latencies.
func FwdSweep(opts Options) (*FwdSweepResult, error) {
	opts = opts.withDefaults()
	r := &FwdSweepResult{Avg: map[int][]float64{}, Lats: []int{1, 2, 4}}
	// rows[bench][latIdx][clusterIdx]
	rows, err := parBench(opts, func(bench string) ([][]float64, error) {
		out := make([][]float64, len(r.Lats))
		for li, lat := range r.Lats {
			out[li] = make([]float64, len(clusterCounts))
			// Vary the forwarding latency through the job key, so the
			// lat == opts.Fwd row shares the cached Figure 2 run and its
			// cached schedules.
			latOpts := opts
			latOpts.Fwd = lat
			ss, err := idealSchedules(latOpts, bench, StackDepBased, false, oracleSweepSpecs(lat))
			if err != nil {
				return nil, err
			}
			for i := range clusterCounts {
				out[li][i] = float64(ss[i+1].Makespan) / float64(ss[0].Makespan)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for li, lat := range r.Lats {
		avg := make([]float64, len(clusterCounts))
		for _, row := range rows {
			for i := range avg {
				avg[i] += row[li][i]
			}
		}
		for i := range avg {
			avg[i] /= float64(len(opts.Benchmarks))
		}
		r.Avg[lat] = avg
	}
	return r, nil
}

// Render writes the latency sweep.
func (r *FwdSweepResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Section 2.1 (footnote 3): idealized study across forwarding latencies")
	fmt.Fprintf(w, "%-4s %8s %8s %8s\n", "fwd", "2x4w", "4x2w", "8x1w")
	for _, lat := range r.Lats {
		a := r.Avg[lat]
		fmt.Fprintf(w, "%-4d %8.3f %8.3f %8.3f\n", lat, a[0], a[1], a[2])
	}
}

// StallSweepResult is the stall-over-steer threshold ablation: the paper
// chose its 30% LoC threshold empirically (Section 5); this sweep shows
// the sensitivity on the 8x1w machine.
type StallSweepResult struct {
	Thresholds []float64
	Table      *stats.Table // rows: benchmarks, cols: thresholds
}

// StallSweep measures 8x1w normalized CPI per stall threshold.
func StallSweep(opts Options) (*StallSweepResult, error) {
	opts = opts.withDefaults()
	thresholds := []float64{0.15, 0.30, 0.50}
	cols := make([]string, len(thresholds))
	for i, t := range thresholds {
		cols[i] = fmt.Sprintf("thr=%.2f", t)
	}
	tbl := &stats.Table{Title: "Stall-over-steer threshold ablation (8x1w normalized CPI)", Columns: cols}
	// The default threshold's point is the plain stall-over-steer stack
	// (knob.String encodes it as such), shared with Figure 14.
	knobs := make([]knob, len(thresholds))
	for i, thr := range thresholds {
		knobs[i] = knob{stall: thr}
	}
	rows, err := parBench(opts, func(bench string) ([]float64, error) {
		return normalizedCPIs(opts, ablationKeys(opts, bench, StackStall, knobs...))
	})
	if err != nil {
		return nil, err
	}
	for i, bench := range opts.Benchmarks {
		tbl.AddRow(bench, rows[i]...)
	}
	tbl.AddRow("AVE", tbl.ColumnMeans()...)
	return &StallSweepResult{Thresholds: thresholds, Table: tbl}, nil
}

// Render writes the threshold ablation.
func (r *StallSweepResult) Render(w io.Writer) { r.Table.Render(w) }
