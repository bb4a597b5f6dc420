package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"raha/internal/batch"
	"raha/internal/demand"
	"raha/internal/failures"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// The output checks. Every figure they compare against is recomputed here
// by the benchmark's own arithmetic (scenario probability, failure count,
// fail-over activation, and the TE LPs through maxSumLP), or is a property
// the method must have; none is a stored copy of an earlier output.

const (
	// hintLimit is half of metaopt's built-in 10 s per-hint cap: a hint
	// solve near the cap would make an op's work depend on the clock.
	hintLimit     = 5 * time.Second
	candidateLAGs = 4 // single-LAG failures checked per op
)

// analyzeCase is one analysis op's input, as the checks see it.
type analyzeCase struct {
	Top         *topology.Topology
	Demands     []paths.DemandPaths
	Env         demand.Envelope
	Threshold   float64
	MaxFailures int
	// Budgeted ops may stop early: they need not be Optimal, and their
	// worst case is not compared against the candidate failures.
	Budgeted bool
}

// tolerance is the absolute slack of a flow comparison at flow scale f.
func tolerance(f float64) float64 { return 1e-5 * math.Max(1, math.Abs(f)) }

// checkAnalysis checks one analysis result against the case it answered.
func checkAnalysis(c *analyzeCase, res *metaopt.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if !c.Budgeted {
		if res.Status != milp.Optimal {
			return fmt.Errorf("status %s, want optimal (no time limit was set)", res.Status)
		}
		if !c.Env.IsFixed() && res.HintRuntime > hintLimit {
			return fmt.Errorf("hint solves took %v, near their 10 s cap", res.HintRuntime)
		}
	}
	if res.Scenario == nil {
		if c.Budgeted {
			return nil // stopped before any incumbent: nothing to verify
		}
		return fmt.Errorf("optimal result carries no scenario")
	}
	if err := checkScenario(c, res.Scenario); err != nil {
		return err
	}
	if len(res.Demands) != len(c.Env.Lo) {
		return fmt.Errorf("%d demands for a %d-demand envelope", len(res.Demands), len(c.Env.Lo))
	}
	for k, d := range res.Demands {
		tol := 1e-9 * math.Max(1, math.Abs(c.Env.Hi[k]))
		if !(d >= c.Env.Lo[k]-tol && d <= c.Env.Hi[k]+tol) {
			return fmt.Errorf("demand %d = %g outside envelope [%g, %g]", k, d, c.Env.Lo[k], c.Env.Hi[k])
		}
	}
	healthy, deg, err := degradation(c, res.Scenario, res.Demands)
	if err != nil {
		return err
	}
	tol := tolerance(healthy)
	if deg < -tol {
		return fmt.Errorf("re-solved degradation %g is negative", deg)
	}
	if math.Abs(deg-res.Degradation) > tol {
		return fmt.Errorf("reported degradation %g, independent re-solve gives %g", res.Degradation, deg)
	}
	if c.Budgeted {
		if !(res.Bound >= deg-tol) {
			return fmt.Errorf("bound %g below the verified degradation %g", res.Bound, deg)
		}
		return nil
	}
	if math.Abs(res.ModelObjective-deg) > tol {
		return fmt.Errorf("model objective %g, independent re-solve gives %g", res.ModelObjective, deg)
	}
	if math.Abs(res.Bound-deg) > tol {
		return fmt.Errorf("optimal bound %g, independent re-solve gives %g", res.Bound, deg)
	}
	return checkCandidates(c, res, deg, tol)
}

// checkScenario checks the scenario's shape and the op's constraints: the
// probability threshold and the failure budget k.
func checkScenario(c *analyzeCase, s *failures.Scenario) error {
	if len(s.LinkDown) != c.Top.NumLAGs() {
		return fmt.Errorf("scenario covers %d LAGs, topology has %d", len(s.LinkDown), c.Top.NumLAGs())
	}
	for e := range s.LinkDown {
		if got, want := len(s.LinkDown[e]), len(c.Top.LAG(e).Links); got != want {
			return fmt.Errorf("scenario LAG %d has %d links, topology has %d", e, got, want)
		}
	}
	if c.Threshold > 0 {
		if lp := logProb(c.Top, s.LinkDown); lp < math.Log(c.Threshold)-1e-9 {
			return fmt.Errorf("scenario probability %g below threshold %g", math.Exp(lp), c.Threshold)
		}
	}
	if c.MaxFailures > 0 {
		if n := failedLinks(s.LinkDown); n > c.MaxFailures {
			return fmt.Errorf("scenario fails %d links, k = %d", n, c.MaxFailures)
		}
	}
	return nil
}

// checkCandidates requires the worst case to be at least the degradation of
// each candidate single-LAG failure that meets the op's constraints, at the
// returned demands and at the envelope's top (both on the quantizer grid).
func checkCandidates(c *analyzeCase, res *metaopt.Result, worst, tol float64) error {
	for _, s := range candidates(c) {
		for _, d := range [][]float64{res.Demands, c.Env.Hi} {
			_, deg, err := degradation(c, &failures.Scenario{LinkDown: s}, d)
			if err != nil {
				return err
			}
			if deg > worst+tol {
				return fmt.Errorf("a single-LAG failure degrades by %g, more than the reported worst case %g", deg, worst)
			}
		}
	}
	return nil
}

// candidates builds single-LAG failures on top of the most probable state
// (without a failure budget, every link more likely down than up is down),
// for the LAGs the most primary paths cross, and keeps those that meet the
// op's constraints.
func candidates(c *analyzeCase) [][][]bool {
	crossing := make(map[int]int)
	for _, dp := range c.Demands {
		for j := 0; j < dp.Primary; j++ {
			for _, e := range dp.Paths[j].LAGs {
				crossing[e]++
			}
		}
	}
	lags := make([]int, 0, len(crossing))
	for e := range crossing {
		lags = append(lags, e)
	}
	sort.Slice(lags, func(i, j int) bool {
		if crossing[lags[i]] != crossing[lags[j]] {
			return crossing[lags[i]] > crossing[lags[j]]
		}
		return lags[i] < lags[j]
	})
	if len(lags) > candidateLAGs {
		lags = lags[:candidateLAGs]
	}
	var out [][][]bool
	for _, e := range lags {
		down := make([][]bool, c.Top.NumLAGs())
		for i := range down {
			down[i] = make([]bool, len(c.Top.LAG(i).Links))
			if c.MaxFailures == 0 {
				for l, ln := range c.Top.LAG(i).Links {
					down[i][l] = ln.FailProb > 0.5
				}
			}
		}
		for l := range down[e] {
			down[e][l] = true
		}
		if c.Threshold > 0 && logProb(c.Top, down) < math.Log(c.Threshold) {
			continue
		}
		if c.MaxFailures > 0 && failedLinks(down) > c.MaxFailures {
			continue
		}
		out = append(out, down)
	}
	return out
}

// logProb is Σ log π over failed links plus Σ log(1−π) over the rest.
func logProb(t *topology.Topology, down [][]bool) float64 {
	var lp float64
	for e := range down {
		for l, ln := range t.LAG(e).Links {
			if down[e][l] {
				lp += math.Log(ln.FailProb)
			} else {
				lp += math.Log1p(-ln.FailProb)
			}
		}
	}
	return lp
}

func failedLinks(down [][]bool) int {
	n := 0
	for _, ls := range down {
		for _, d := range ls {
			if d {
				n++
			}
		}
	}
	return n
}

// degradation re-solves the healthy network (primary paths, full
// capacities) and the failed one (surviving capacities, fail-over
// activated backups) at demand vector d, and returns the healthy flow and
// the difference.
func degradation(c *analyzeCase, s *failures.Scenario, d []float64) (healthy, deg float64, err error) {
	nl := c.Top.NumLAGs()
	full := make([]float64, nl)
	surviving := make([]float64, nl)
	lagDown := make([]bool, nl)
	for e := 0; e < nl; e++ {
		lagDown[e] = true
		for l, ln := range c.Top.LAG(e).Links {
			full[e] += ln.Capacity
			if !s.LinkDown[e][l] {
				surviving[e] += ln.Capacity
				lagDown[e] = false
			}
		}
	}
	healthyActive := make([][]bool, len(c.Demands))
	for k, dp := range c.Demands {
		healthyActive[k] = make([]bool, len(dp.Paths))
		for j := 0; j < dp.Primary; j++ {
			healthyActive[k][j] = true
		}
	}
	h, err := teFlow(c.Demands, d, full, healthyActive)
	if err != nil {
		return 0, 0, fmt.Errorf("healthy re-solve: %w", err)
	}
	f, err := teFlow(c.Demands, d, surviving, failoverActive(c.Demands, lagDown))
	if err != nil {
		return 0, 0, fmt.Errorf("failed re-solve: %w", err)
	}
	return h, h - f, nil
}

// failoverActive applies the production fail-over rule: primaries are
// always active; the r-th backup activates once at least r of the paths
// ahead of it in the ordered list are down.
func failoverActive(dps []paths.DemandPaths, lagDown []bool) [][]bool {
	act := make([][]bool, len(dps))
	for k, dp := range dps {
		act[k] = make([]bool, len(dp.Paths))
		down := 0
		for j, p := range dp.Paths {
			act[k][j] = j < dp.Primary || down >= j-dp.Primary+1
			for _, e := range p.LAGs {
				if lagDown[e] {
					down++
					break
				}
			}
		}
	}
	return act
}

// teFlow is the maximum total flow over the active paths (Eq. 2): one
// variable per active path, one row per demand and per LAG some active
// path crosses.
func teFlow(dps []paths.DemandPaths, vol, caps []float64, active [][]bool) (float64, error) {
	var rows [][]int
	var rhs []float64
	byLAG := make(map[int][]int)
	n := 0
	for k, dp := range dps {
		var row []int
		for j, p := range dp.Paths {
			if !active[k][j] {
				continue
			}
			row = append(row, n)
			for _, e := range p.LAGs {
				byLAG[e] = append(byLAG[e], n)
			}
			n++
		}
		rows = append(rows, row)
		rhs = append(rhs, vol[k])
	}
	lags := make([]int, 0, len(byLAG))
	for e := range byLAG {
		lags = append(lags, e)
	}
	sort.Ints(lags)
	for _, e := range lags {
		rows = append(rows, byLAG[e])
		rhs = append(rhs, caps[e])
	}
	return maxSumLP(n, rows, rhs)
}

// checkBudgetOp reports whether a budgeted op returned in time: within its
// budget plus the stop allowance.
func checkBudgetOp(latency, budget, allowance time.Duration) error {
	if latency > budget+allowance {
		return fmt.Errorf("returned after %v, budget %v + allowance %v", latency.Round(time.Millisecond), budget, allowance)
	}
	return nil
}

// checkFleetTopo checks one topology's sweep result: every grid cell is
// present with no recorded failure, and each cell raised exactly when its
// normalized degradation exceeds the tolerance.
func checkFleetTopo(r *batch.TopoResult, cells []batch.Cell, tol float64) error {
	if r.Err != "" || r.Skipped {
		return fmt.Errorf("%s: topology failed: %s", r.Name, r.Err)
	}
	if len(r.Cells) != len(cells) {
		return fmt.Errorf("%s: %d cells, grid has %d", r.Name, len(r.Cells), len(cells))
	}
	for i := range r.Cells {
		cr := &r.Cells[i]
		if cr.Cell.Name() != cells[i].Name() {
			return fmt.Errorf("%s: cell %d is %s, want %s", r.Name, i, cr.Cell.Name(), cells[i].Name())
		}
		if cr.Err != "" {
			return fmt.Errorf("%s %s: cell failed: %s", r.Name, cr.Cell.Name(), cr.Err)
		}
		if math.IsNaN(cr.Normalized) || math.IsInf(cr.Normalized, 0) || cr.Normalized < -1e-9 {
			return fmt.Errorf("%s %s: normalized degradation %g", r.Name, cr.Cell.Name(), cr.Normalized)
		}
		if cr.Raised != (cr.Normalized > tol) {
			return fmt.Errorf("%s %s: raised=%v with normalized %g against tolerance %g", r.Name, cr.Cell.Name(), cr.Raised, cr.Normalized, tol)
		}
		if cr.Raised != (cr.Phase == 1 || cr.Phase == 2) {
			return fmt.Errorf("%s %s: raised=%v in phase %d", r.Name, cr.Cell.Name(), cr.Raised, cr.Phase)
		}
	}
	return nil
}
