package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/stats"
)

// GroupSteerResult quantifies Section 8's implementation concern: "even
// building a circuit that can do dependence-based steering of 8
// instructions per cycle is not likely to be easy — it suffers the same
// complexity-related problems incurred by register renaming logic
// (namely, intra-cycle dependences need to be taken into account)".
//
// The "serial" rows use the idealized steering stage (each instruction
// sees the placements of everything steered earlier in the cycle); the
// "group" rows steer the whole dispatch group against start-of-cycle
// state, as a simpler circuit would. The difference is the IPC cost of
// that circuit simplification.
type GroupSteerResult struct {
	Table *stats.Table // per benchmark: serial vs group normalized CPI (8x1w)
	// Delta is the mean extra normalized CPI of group steering.
	Delta float64
}

// GroupSteer runs the comparison on the 8x1w machine with
// stall-over-steer.
func GroupSteer(opts Options) (*GroupSteerResult, error) {
	opts = opts.withDefaults()
	t := &stats.Table{Title: "Section 8: serial vs group (start-of-cycle) steering (8x1w, stall-over-steer)",
		Columns: []string{"serial", "group"}}
	rows, err := parBench(opts, func(bench string) ([]float64, error) {
		return normalizedCPIs(opts, ablationKeys(opts, bench, StackStall,
			knob{locTag: "gs-loc"}, knob{locTag: "gs-loc", group: true}))
	})
	if err != nil {
		return nil, err
	}
	var deltas []float64
	for i, bench := range opts.Benchmarks {
		t.AddRow(bench, rows[i][0], rows[i][1])
		deltas = append(deltas, rows[i][1]-rows[i][0])
	}
	t.AddRow("AVE", t.ColumnMeans()...)
	return &GroupSteerResult{Table: t, Delta: stats.Mean(deltas)}, nil
}

// Render writes the comparison.
func (r *GroupSteerResult) Render(w io.Writer) {
	r.Table.Render(w)
	fmt.Fprintf(w, "group steering costs %+.3f normalized CPI on average\n", r.Delta)
}
