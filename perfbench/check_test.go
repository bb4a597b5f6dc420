package main

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"raha/internal/batch"
	"raha/internal/failures"
	"raha/internal/metaopt"
	"raha/internal/te"
)

// solved runs a small real analysis and returns its case and result.
func solved(t *testing.T, slack float64) (*analyzeCase, *metaopt.Result) {
	t.Helper()
	s := opSpec{Inst: instance{Topo: "b4", PairSeed: 4, Pairs: 4, Primary: 2, Backup: 1, Scale: 1, Slack: slack, Threshold: 1e-4, QuantBits: 2}}
	c, err := newInputCache(nil).build(s)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := analyze(context.Background(), s, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario == nil || res.Degradation <= 0 {
		t.Fatalf("test instance degrades by %g; the corruptions below need a positive worst case", res.Degradation)
	}
	return c, res
}

// clone deep-copies the parts of a result the corruptions touch.
func clone(res *metaopt.Result) *metaopt.Result {
	out := *res
	out.Demands = append([]float64(nil), res.Demands...)
	out.Scenario = &failures.Scenario{LinkDown: make([][]bool, len(res.Scenario.LinkDown))}
	for e, ls := range res.Scenario.LinkDown {
		out.Scenario.LinkDown[e] = append([]bool(nil), ls...)
	}
	return &out
}

func TestCheckAcceptsRealResults(t *testing.T) {
	for _, slack := range []float64{-1, 0.5} {
		c, res := solved(t, slack)
		if err := checkAnalysis(c, res); err != nil {
			t.Errorf("slack %g: genuine result rejected: %v", slack, err)
		}
	}
}

func TestCheckRejectsCorruptedResults(t *testing.T) {
	c, res := solved(t, 0.5)
	cases := []struct {
		name    string
		corrupt func(c *analyzeCase, r *metaopt.Result)
		want    string
	}{
		{"scenario below the probability threshold", func(c *analyzeCase, r *metaopt.Result) {
			for e := range r.Scenario.LinkDown {
				for l := range r.Scenario.LinkDown[e] {
					r.Scenario.LinkDown[e][l] = true
				}
			}
		}, "below threshold"},
		{"scenario over k failures", func(c *analyzeCase, r *metaopt.Result) {
			c.MaxFailures = 1
			c.Threshold = 0
			r.Scenario.LinkDown[0][0], r.Scenario.LinkDown[1][0] = true, true
		}, "k = 1"},
		{"demand outside its envelope", func(c *analyzeCase, r *metaopt.Result) {
			r.Demands[0] = c.Env.Hi[0] * 1.01
		}, "outside envelope"},
		{"degradation disagreeing with the re-solve", func(c *analyzeCase, r *metaopt.Result) {
			r.Degradation += 1
		}, "independent re-solve"},
		{"model objective disagreeing with the re-solve", func(c *analyzeCase, r *metaopt.Result) {
			r.ModelObjective -= 1
		}, "model objective"},
		{"optimal bound away from the worst case", func(c *analyzeCase, r *metaopt.Result) {
			r.Bound += 1
		}, "optimal bound"},
		{"worst case below a single-LAG failure", func(c *analyzeCase, r *metaopt.Result) {
			c.Threshold = 0 // the all-up scenario may sit below it
			for e := range r.Scenario.LinkDown {
				for l := range r.Scenario.LinkDown[e] {
					r.Scenario.LinkDown[e][l] = false
				}
			}
			r.Degradation, r.ModelObjective, r.Bound = 0, 0, 0
		}, "single-LAG failure"},
		{"not optimal without a time limit", func(c *analyzeCase, r *metaopt.Result) {
			r.Status = r.Status + 1
		}, "want optimal"},
	}
	for _, tc := range cases {
		cc, rr := *c, clone(res)
		tc.corrupt(&cc, rr)
		err := checkAnalysis(&cc, rr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckBudgetedResult(t *testing.T) {
	c, res := solved(t, 0.5)
	c.Budgeted = true
	if err := checkAnalysis(c, res); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	rr := clone(res)
	rr.Bound = rr.Degradation - 1
	if err := checkAnalysis(c, rr); err == nil || !strings.Contains(err.Error(), "below the verified") {
		t.Errorf("bound below the degradation: got %v", err)
	}
	if err := checkAnalysis(c, &metaopt.Result{}); err != nil {
		t.Errorf("a budgeted op stopped before any incumbent has nothing to verify, got %v", err)
	}
}

func TestCheckBudgetOp(t *testing.T) {
	const budget = 200 * time.Millisecond
	if err := checkBudgetOp(budget+stopAllowance, budget, stopAllowance); err != nil {
		t.Errorf("on-time op rejected: %v", err)
	}
	if err := checkBudgetOp(budget+stopAllowance+time.Millisecond, budget, stopAllowance); err == nil {
		t.Error("late op accepted")
	}
}

func TestCheckFleetTopo(t *testing.T) {
	cells := batch.DefaultGrid().Cells()
	good := func() *batch.TopoResult {
		r := &batch.TopoResult{Name: "t"}
		for i, c := range cells {
			cr := batch.CellResult{Cell: c, Normalized: 0.05 * float64(i)}
			if cr.Normalized > fleetTolerance {
				cr.Raised, cr.Phase = true, 1
			}
			r.Cells = append(r.Cells, cr)
		}
		return r
	}
	if err := checkFleetTopo(good(), cells, fleetTolerance); err != nil {
		t.Fatalf("consistent topology rejected: %v", err)
	}
	corruptions := map[string]func(r *batch.TopoResult){
		"raised below tolerance": func(r *batch.TopoResult) { r.Cells[0].Raised, r.Cells[0].Phase = true, 1 },
		"quiet above tolerance":  func(r *batch.TopoResult) { r.Cells[7].Raised, r.Cells[7].Phase = false, 0 },
		"missing cell":           func(r *batch.TopoResult) { r.Cells = r.Cells[1:] },
		"recorded cell failure":  func(r *batch.TopoResult) { r.Cells[0].Err = "solver error" },
		"topology failure":       func(r *batch.TopoResult) { r.Err = "load failed" },
	}
	for name, corrupt := range corruptions {
		r := good()
		corrupt(r)
		if err := checkFleetTopo(r, cells, fleetTolerance); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTEFlowMatchesProgram pins the checks' own simplex to the program's TE
// LP on random demand and failure draws.
func TestTEFlowMatchesProgram(t *testing.T) {
	s := opSpec{Inst: instance{Topo: "uninett2010", PairSeed: 3, Pairs: 8, Primary: 3, Backup: 2, Scale: 1, Slack: -1}}
	c, err := newInputCache(nil).build(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		vol := make([]float64, len(c.Demands))
		for k := range vol {
			vol[k] = 2000 * rng.Float64()
		}
		scen := failures.NewScenario(c.Top)
		for e := 0; e < c.Top.NumLAGs(); e++ {
			if rng.Float64() < 0.1 {
				scen.FailLAG(e)
			}
		}
		lagDown := make([]bool, c.Top.NumLAGs())
		for e := range lagDown {
			lagDown[e] = scen.LAGDown(e)
		}
		caps := scen.Capacities(c.Top)
		act := scen.ActivePaths(c.Demands)
		want, err := te.MaxTotalFlow(c.Top, c.Demands, vol, caps, act)
		if err != nil {
			t.Fatal(err)
		}
		got, err := teFlow(c.Demands, vol, caps, failoverActive(c.Demands, lagDown))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want.Objective) > tolerance(want.Objective) {
			t.Errorf("trial %d: own simplex %g, program %g", trial, got, want.Objective)
		}
	}
}
