package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"raha/internal/demand"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// instance is one analysis setup: a built-in topology, its demand pairs
// and tunnels, and the analysis constraints. Ops draw their demands from it.
type instance struct {
	Topo        string
	PairSeed    int64   // demand.TopPairs / demand.Gravity seed of the setup
	Pairs       int     // highest-gravity pairs modeled
	Primary     int     // primary tunnels per pair
	Backup      int     // backup tunnels per pair
	Scale       float64 // largest base demand, × mean LAG capacity
	Slack       float64 // envelope [0, base·(1+Slack)]; negative = fixed base demand
	Threshold   float64
	MaxFailures int // failure budget k; 0 = none
	QuantBits   int
}

// opSpec is one analysis op: an instance, the op's demand draw, and its
// budget (zero = run to proven optimality).
type opSpec struct {
	Inst       instance
	DemandSeed int64         // seeds the per-demand jitter
	Jitter     float64       // each base demand × (1 ± Jitter)
	Budget     time.Duration // milp.Params.TimeLimit
}

// The analyze workloads' setups. Pairs stay those of the setup; the run
// seed moves only the demand volumes, so every op of an instance solves a
// model of the same shape (reselecting pairs per seed moved op cost 2×).
var (
	deepInstances = []instance{
		{Topo: "b4", PairSeed: 4, Pairs: 6, Primary: 4, Backup: 1, Scale: 1, Slack: 0.5, Threshold: 1e-4, QuantBits: 2},
		{Topo: "uninett2010", PairSeed: 2010, Pairs: 6, Primary: 4, Backup: 1, Scale: 1, Slack: 0.5, Threshold: 1e-4, QuantBits: 2},
		{Topo: "africawan", PairSeed: 1, Pairs: 6, Primary: 2, Backup: 1, Scale: 1.5, Slack: 0.5, Threshold: 1e-4, QuantBits: 2},
	}
	// Cogentco is not among them: its seeded fixed-demand op can enter a
	// dual simplex cycle that never returns (CHANGES.md, FOUND), and an op
	// that hangs on some seeds would end a run early.
	wideInstances = []instance{
		{Topo: "africawan", PairSeed: 1, Pairs: 24, Primary: 5, Backup: 4, Scale: 0.8, Slack: -1, Threshold: 1e-4},
		{Topo: "uninett2010", PairSeed: 1, Pairs: 24, Primary: 5, Backup: 4, Scale: 0.8, Slack: -1, Threshold: 1e-4},
		// The failure budget k has no threshold beside it: with both, the
		// model is infeasible on AfricaWAN (meeting the threshold takes
		// down more than k of its 13 links that are likelier down than up)
		// and solves at the root on Uninett2010.
		{Topo: "africawan", PairSeed: 1, Pairs: 24, Primary: 5, Backup: 4, Scale: 0.8, Slack: -1, MaxFailures: 2},
		{Topo: "uninett2010", PairSeed: 1, Pairs: 24, Primary: 5, Backup: 4, Scale: 0.8, Slack: -1, MaxFailures: 2},
	}
	// budgetInstance is ROADMAP item 1's repro instance. Its inputs do not
	// depend on the seed: every op fails the same way until in-LP
	// cancellation lands.
	budgetInstance = instance{Topo: "cogentco", PairSeed: 1, Pairs: 24, Primary: 5, Backup: 4, Scale: 0.8, Slack: 3, Threshold: 1e-4}
	budgets        = []time.Duration{200 * time.Millisecond, 500 * time.Millisecond, time.Second}
)

const demandJitter = 0.05

// opSeed derives op i's demand seed from the run seed (splitmix64).
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// analyzeOps lists a run's ops: whole rounds, each one op per instance in
// order.
func analyzeOps(insts []instance, seed int64, rounds int) []opSpec {
	var out []opSpec
	for r := 0; r < rounds; r++ {
		for _, in := range insts {
			i := len(out)
			out = append(out, opSpec{Inst: in, DemandSeed: opSeed(seed, i), Jitter: demandJitter})
		}
	}
	return out
}

// budgetOps lists budget-stop's ops: whole rounds over the budgets, the
// same inputs whatever the seed.
func budgetOps(rounds int) []opSpec {
	var out []opSpec
	for r := 0; r < rounds; r++ {
		for _, b := range budgets {
			out = append(out, opSpec{Inst: budgetInstance, Budget: b})
		}
	}
	return out
}

// loadBuiltin calls the named topology loader.
func loadBuiltin(name string) (*topology.Topology, error) {
	switch name {
	case "b4":
		return topology.B4(), nil
	case "uninett2010":
		return topology.Uninett2010(), nil
	case "cogentco":
		return topology.Cogentco(), nil
	case "africawan":
		return topology.AfricaWAN(), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// inputCache builds op inputs, loading each topology and computing each
// instance's tunnels once. Its spans time the topology and paths layers.
type inputCache struct {
	rec   *recorder
	topos map[string]*topology.Topology
	dps   map[instance][]paths.DemandPaths
}

func newInputCache(rec *recorder) *inputCache {
	return &inputCache{rec: rec, topos: map[string]*topology.Topology{}, dps: map[instance][]paths.DemandPaths{}}
}

// build returns the analysis case of op s.
func (b *inputCache) build(s opSpec) (*analyzeCase, error) {
	in := s.Inst
	top := b.topos[in.Topo]
	if top == nil {
		sp := b.rec.begin("topology.load", 0, -1)
		t, err := loadBuiltin(in.Topo)
		b.rec.end(sp)
		if err != nil {
			return nil, err
		}
		top = t
		b.topos[in.Topo] = top
	}
	pairs := demand.TopPairs(top, in.Pairs, in.PairSeed)
	dps := b.dps[in]
	if dps == nil {
		sp := b.rec.begin("paths.compute", 0, -1)
		d, err := paths.Compute(top, pairs, in.Primary, in.Backup, nil)
		b.rec.end(sp)
		if err != nil {
			return nil, err
		}
		dps = d
		b.dps[in] = dps
	}
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*in.Scale, in.PairSeed)
	if s.Jitter > 0 {
		rng := rand.New(rand.NewSource(s.DemandSeed))
		for i := range base {
			base[i].Volume *= 1 + s.Jitter*(2*rng.Float64()-1)
		}
	}
	env := demand.Fixed(base)
	if in.Slack >= 0 {
		env = demand.UpTo(base, in.Slack)
	}
	return &analyzeCase{Top: top, Demands: dps, Env: env, Threshold: in.Threshold, MaxFailures: in.MaxFailures, Budgeted: s.Budget > 0}, nil
}

// buildAll builds every op's case.
func buildAll(specs []opSpec, rec *recorder) ([]*analyzeCase, error) {
	b := newInputCache(rec)
	out := make([]*analyzeCase, len(specs))
	for i, s := range specs {
		c, err := b.build(s)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// analyze runs one op: a serial analysis, timed around the call alone.
func analyze(ctx context.Context, s opSpec, c *analyzeCase, rec *recorder) (*metaopt.Result, time.Duration, error) {
	cfg := metaopt.Config{
		Topo:          c.Top,
		Demands:       c.Demands,
		Envelope:      c.Env,
		ProbThreshold: c.Threshold,
		MaxFailures:   c.MaxFailures,
		QuantBits:     s.Inst.QuantBits,
		Solver: milp.Params{
			Workers:   1,
			TimeLimit: s.Budget,
			Tracer:    rec.tracer(),
			Timing:    rec != nil,
		},
	}
	start := time.Now()
	res, err := metaopt.AnalyzeContext(ctx, cfg)
	return res, time.Since(start), err
}
