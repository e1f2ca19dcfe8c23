package main

import (
	"bytes"
	"fmt"
	"time"

	"clustersim/internal/critpath"
	"clustersim/internal/listsched"
	"clustersim/internal/machine"
	"clustersim/internal/predictor"
	"clustersim/internal/steer"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// table1Clusters are the four Table 1 geometries (1x8w, 2x4w, 4x2w,
// 8x1w); fig2 schedules the same set under the oracle priority.
var table1Clusters = []int{1, 2, 4, 8}

// layerPassResult holds the layer pass's per-instruction host times and
// a digest of every simulated statistic it produced.
type layerPassResult struct {
	NsPerInst map[string]float64
	Calls     int
	SimDigest string // simulated cycles and schedule makespans per benchmark x geometry
}

// layerPass calls each layer's public entry point directly on every
// benchmark at the repro workloads' -n and seed, timing each call in a
// span: workload generation, trace store write and scan, fused machine
// simulation of the Table 1 geometries, fused list scheduling of fig2's
// variants, and the critical-path analyses.
func layerPass(t *tracer, seed uint64) (layerPassResult, error) {
	res := layerPassResult{NsPerInst: map[string]float64{}}
	ns := map[string]time.Duration{}
	insts := map[string]int{}
	timed := func(name string, n int, fn func()) {
		ns[name] += t.do(name, "layers", fn)
		insts[name] += n
		res.Calls++
	}
	var sim bytes.Buffer
	for _, bench := range workload.Names() {
		var tr *trace.Trace
		var err error
		timed("workload.Generate", reproInsts, func() { tr, err = workload.Generate(bench, reproInsts, seed) })
		if err != nil {
			return res, err
		}
		n := tr.Len()

		var store bytes.Buffer
		timed("trace.Writer", n, func() {
			var w *trace.Writer
			if w, err = trace.NewWriter(&store, trace.WriterOptions{}); err != nil {
				return
			}
			for _, in := range tr.Insts {
				w.Append(in)
			}
			err = w.Close()
		})
		if err != nil {
			return res, fmt.Errorf("%s: store write: %w", bench, err)
		}
		var scanned int
		timed("trace.Store.Scan", n, func() {
			var st *trace.Store
			if st, err = trace.OpenBytes(store.Bytes(), trace.OpenOptions{}); err != nil {
				return
			}
			err = st.Scan(func(ch *trace.Chunk) error { scanned += ch.N; return nil })
			st.Close()
		})
		if err == nil && scanned != n {
			err = fmt.Errorf("scanned %d of %d instructions", scanned, n)
		}
		if err != nil {
			return res, fmt.Errorf("%s: store scan: %w", bench, err)
		}

		vs := make([]machine.Variant, len(table1Clusters))
		for i, k := range table1Clusters {
			vs[i] = machine.Variant{Config: machine.NewConfig(k), Pol: steer.Focused{},
				Hooks: machine.Hooks{Binary: predictor.NewDefaultBinary()}}
		}
		var outs []machine.VariantResult
		timed("machine.SimulateVariants", n*len(vs), func() { outs, _, err = machine.SimulateVariants(tr, vs) })
		if err != nil {
			return res, fmt.Errorf("%s: simulate: %w", bench, err)
		}
		for i, o := range outs {
			fmt.Fprintf(&sim, "%s %dc cycles=%d\n", bench, table1Clusters[i], o.Res.Cycles)
		}
		// The 4-cluster run is the clustered machine the analyses walk.
		clustered := outs[2].M
		for i, o := range outs {
			if i != 2 {
				machine.Recycle(o.M)
			}
		}

		harvest, err := machine.New(machine.NewConfig(1), tr, steer.DepBased{}, machine.Hooks{})
		if err != nil {
			return res, err
		}
		harvest.Run()
		in := listsched.FromMachineRun(harvest)
		oracle := listsched.NewOracle(in)
		sv := make([]listsched.Variant, len(table1Clusters))
		for i, k := range table1Clusters {
			sv[i] = listsched.Variant{Config: listsched.ConfigFor(machine.NewConfig(k)), Pri: oracle}
		}
		var scheds []*listsched.Schedule
		sch := listsched.NewScheduler()
		timed("listsched.ScheduleVariants", n*len(sv), func() { scheds, err = sch.ScheduleVariants(in, sv) })
		sch.Recycle()
		if err != nil {
			return res, fmt.Errorf("%s: schedule: %w", bench, err)
		}
		for i, s := range scheds {
			fmt.Fprintf(&sim, "%s %dc makespan=%d\n", bench, table1Clusters[i], s.Makespan)
		}

		var an *critpath.Analysis
		timed("critpath.AnalyzeRun", n, func() { an, err = critpath.AnalyzeRun(clustered) })
		if err != nil {
			return res, fmt.Errorf("%s: analyze: %w", bench, err)
		}
		fmt.Fprintf(&sim, "%s critpath=%+v contention=%d/%d fwd=%d/%d/%d\n", bench, an.Breakdown,
			an.ContentionCritical, an.ContentionOther, an.FwdLoadBal, an.FwdDyadic, an.FwdOther)
		timed("critpath.ComputeInteractionMatrix", n, func() { _, err = critpath.ComputeInteractionMatrix(clustered) })
		if err != nil {
			return res, fmt.Errorf("%s: interaction matrix: %w", bench, err)
		}
		machine.Recycle(clustered)
	}
	metricName := map[string]string{
		"workload.Generate":                 "workload.generate_ns_per_inst",
		"trace.Writer":                      "trace.store_write_ns_per_inst",
		"trace.Store.Scan":                  "trace.store_scan_ns_per_inst",
		"machine.SimulateVariants":          "machine.variants_ns_per_inst",
		"listsched.ScheduleVariants":        "listsched.variants_ns_per_inst",
		"critpath.AnalyzeRun":               "critpath.analyze_ns_per_inst",
		"critpath.ComputeInteractionMatrix": "critpath.matrix_ns_per_inst",
	}
	for call, m := range metricName {
		res.NsPerInst[m] = float64(ns[call]) / float64(insts[call])
	}
	res.SimDigest = digest(sim.Bytes())
	return res, nil
}
