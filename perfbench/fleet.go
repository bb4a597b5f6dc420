package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"raha/internal/batch"
	"raha/internal/topology"
)

const (
	fleetWorkers   = 2   // topology workers; each cell solves serially
	fleetTolerance = 0.1 // alert pain threshold, normalized
	fleetSynthetic = 3   // seeded synthetic WANs
)

// fleetGridSpec is the sweep's grid: the default grid's k=0, threshold-1e-4,
// peak-demand cell, so both alert phases solve fixed-demand models. The
// other default cells stay out because they fail or hang on some sweep
// seeds (CHANGES.md, FOUND): k=2 and 1e-3 cells record a negative verified
// degradation as an invariant failure, and variable-demand (elastic) cells
// can enter an LP that never returns, which no budget stops. An op that
// fails or hangs only on some seeds would make runs incomparable.
const fleetGridSpec = "k=0;p=1e-4;d=peak"

// fixtureDir holds the GML fixtures, relative to the repository root the
// benchmark runs from. dupid.gml and isolated.gml are poisoned on purpose
// (a loader must reject them); that is a test's job, not a workload's.
var (
	fixtureDir       = filepath.Join("internal", "topology", "testdata")
	poisonedFixtures = map[string]bool{"dupid": true, "isolated": true}
)

// fleetBench runs fleet-alert: one batch.Run per round over the built-ins,
// seeded synthetic WANs and the well-formed fixtures, on fleetGridSpec.
// One op is one topology's whole grid, from the wrapped Source.Load to
// OnTopoDone. Each round draws its own sweep seed (demand pairs and
// volumes) and its own synthetic WANs from the run seed, so a run averages
// over many draws instead of resting on one.
type fleetBench struct {
	seed   int64
	rounds int
	grid   batch.Grid
	sweeps [][]batch.Source // per round
}

// roundSeed is round r's sweep seed.
func (b *fleetBench) roundSeed(r int) int64 { return opSeed(b.seed, r) }

func (b *fleetBench) setup(*recorder) error {
	grid, err := batch.ParseGrid(fleetGridSpec)
	if err != nil {
		return err
	}
	b.grid = grid
	zoo, err := batch.ZooDir(fixtureDir)
	if err != nil {
		return err
	}
	var fixtures []batch.Source
	for _, s := range zoo {
		if !poisonedFixtures[s.Name] {
			fixtures = append(fixtures, s)
		}
	}
	if len(fixtures) != 8 {
		return fmt.Errorf("%s holds %d well-formed fixtures, want 8", fixtureDir, len(fixtures))
	}
	sweeps := make([][]batch.Source, b.rounds)
	for r := range sweeps {
		srcs := append(batch.Builtins(), batch.Synthetic(fleetSynthetic, b.roundSeed(r))...)
		sweeps[r] = append(srcs, fixtures...)
	}
	b.sweeps = sweeps
	return nil
}

func (b *fleetBench) run(ctx context.Context, rec *recorder) (*measure, error) {
	m := &measure{}
	var (
		mu      sync.Mutex
		results []batch.TopoResult
		runErr  error
	)
	m.proc = measureProc(func() {
		for r, sweep := range b.sweeps {
			base := len(results)
			starts := make([]time.Time, len(sweep))
			spans := make([]int, len(sweep))
			index := make(map[string]int, len(sweep))
			srcs := make([]batch.Source, len(sweep))
			for i, s := range sweep {
				i, s := i, s
				index[s.Name] = i
				srcs[i] = batch.Source{Name: s.Name, Kind: s.Kind, Load: func() (*topology.Topology, error) {
					op := rec.begin("op", 0, base+i)
					mu.Lock()
					starts[i], spans[i] = time.Now(), op
					mu.Unlock()
					sp := rec.begin("topology.load", op, base+i)
					defer rec.end(sp)
					return s.Load()
				}}
			}
			rep, err := batch.Run(ctx, batch.Config{
				Sources:       srcs,
				Grid:          b.grid,
				Tolerance:     fleetTolerance,
				Workers:       fleetWorkers,
				SolverWorkers: 1,
				Seed:          b.roundSeed(r),
				Tracer:        rec.tracer(),
				OnTopoDone: func(tr batch.TopoResult) {
					done := time.Now()
					mu.Lock()
					i := index[tr.Name]
					m.latencies = append(m.latencies, done.Sub(starts[i]).Seconds())
					op := spans[i]
					mu.Unlock()
					rec.end(op)
				},
			})
			if err != nil {
				runErr = err
				return
			}
			results = append(results, rep.Topologies...)
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	m.peakRSSMB = peakRSSMB()
	m.attempted = len(results)
	cells := b.grid.Cells()
	for i := range results {
		r := &results[i]
		if err := checkFleetTopo(r, cells, fleetTolerance); err != nil {
			m.problem("op %d: %v", i, err)
		}
		for _, c := range r.Cells {
			m.nodes += float64(c.NodesExplored)
			m.cellS += c.Runtime.Seconds()
			m.cells++
		}
	}
	if rec != nil {
		m.sums = rec.sums()
		m.loadS = rec.spanTotal("topology.load")
	}
	return m, nil
}

// layers reports loads per op (the sweep loads each topology inside the op)
// and the sweep's busy share and per-cell overhead. paths.compute_s reads 0:
// batch computes tunnels inside each cell and emits no timing for it, so
// the figure waits on spans inside the program (ROADMAP item 4); until then
// that time shows in batch.cell_overhead_s.
func (b *fleetBench) layers(m *measure, _ func(string) float64, put func(string, float64)) {
	put("topology.load_s", m.loadS/float64(m.attempted))
	put("paths.compute_s", 0)
	put("batch.busy_share", m.cellS/(m.proc.WallS*fleetWorkers))
	put("batch.cell_overhead_s", (m.cellS-m.sums.AnalysisS)/float64(m.cells))
}
