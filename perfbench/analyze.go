package main

import (
	"context"
	"fmt"
	"os"

	"raha/internal/metaopt"
)

// analyzeBench runs analyze-deep and analyze-wide: serial analyses, one
// after another, each timed around metaopt.AnalyzeContext alone.
type analyzeBench struct {
	specs []opSpec
	cases []*analyzeCase
}

func (b *analyzeBench) setup(rec *recorder) error {
	cases, err := buildAll(b.specs, rec)
	b.cases = cases
	return err
}

func (b *analyzeBench) run(ctx context.Context, rec *recorder) (*measure, error) {
	m := &measure{attempted: len(b.cases)}
	results := make([]*metaopt.Result, len(b.cases))
	var err error
	m.proc = measureProc(func() {
		for i, c := range b.cases {
			rec.setOp(i)
			op := rec.begin("op", 0, i)
			call := rec.begin("metaopt.analyze", op, i)
			res, lat, aerr := analyze(ctx, b.specs[i], c, rec)
			rec.end(call)
			rec.end(op)
			if aerr != nil {
				err = fmt.Errorf("op %d (%s): %w", i, b.specs[i].Inst.Topo, aerr)
				return
			}
			results[i] = res
			m.latencies = append(m.latencies, lat.Seconds())
		}
	})
	rec.setOp(-1)
	if err != nil {
		return nil, err
	}
	m.peakRSSMB = peakRSSMB()
	for i, res := range results {
		m.nodes += float64(res.Nodes)
		if verbose {
			fmt.Fprintf(os.Stderr, "op %d %s: %.3fs %s, %d nodes, %d LP iterations\n",
				i, b.specs[i].Inst.Topo, m.latencies[i], res.Status, res.Nodes, res.Stats.LPIterations)
		}
		sp := rec.begin("check", 0, i)
		if cerr := checkAnalysis(b.cases[i], res); cerr != nil {
			m.problem("op %d (%s, demand seed %d): %v", i, b.specs[i].Inst.Topo, b.specs[i].DemandSeed, cerr)
		}
		rec.end(sp)
	}
	if rec != nil {
		m.sums = rec.sums()
	}
	return m, nil
}

func (b *analyzeBench) layers(m *measure, perSetup func(string) float64, put func(string, float64)) {
	serialLayers(m, perSetup, put)
}

// serialLayers reports, for the workloads that run one op at a time, the
// set-up's loads and path computations per set-up (both happen before the
// first op), and the op wrapper's share of the timed phase.
func serialLayers(m *measure, perSetup func(string) float64, put func(string, float64)) {
	put("topology.load_s", perSetup("topology.load"))
	put("paths.compute_s", perSetup("paths.compute"))
	busy := 0.0
	for _, l := range m.latencies {
		busy += l
	}
	put("batch.busy_share", busy/m.proc.WallS)
	put("batch.cell_overhead_s", (busy-m.sums.AnalysisS)/float64(m.attempted))
}
