package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"raha/internal/metaopt"
)

// stopAllowance is how long after its budget a budgeted analysis may
// return and still count as stopping in time; hardCap is when the
// benchmark kills the op's process and records the cap as its latency.
const (
	stopAllowance = 250 * time.Millisecond
	hardCap       = 10 * time.Second
)

// budgetBench runs budget-stop: each op is a variable-demand analysis under
// a short budget, in a child process of its own so that a solve stuck in an
// LP can be killed at hardCap. CPU, RSS and allocation figures come from the
// children.
type budgetBench struct {
	specs []opSpec
}

// setup builds the ops' inputs once in the parent, as each child will.
func (b *budgetBench) setup(rec *recorder) error {
	_, err := buildAll(b.specs, rec)
	return err
}

// childReport is what a child prints about its one op.
type childReport struct {
	LatencyS float64   `json:"latency_s"`
	Status   string    `json:"status"`
	Nodes    int       `json:"nodes"`
	CheckErr string    `json:"check_err,omitempty"`
	Proc     procDelta `json:"proc"`
	Sums     solveSums `json:"sums"`
	Records  []record  `json:"records,omitempty"`
}

func (b *budgetBench) run(ctx context.Context, rec *recorder) (*measure, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if rec != nil {
		trace = "1"
	}
	m := &measure{attempted: len(b.specs)}
	start := time.Now()
	for i, s := range b.specs {
		spec, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		op := rec.begin("op", 0, i)
		rep, killed, err := runOpChild(ctx, exe, string(spec), trace, m)
		rec.end(op)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		latency := hardCap
		if !killed {
			latency = time.Duration(rep.LatencyS * float64(time.Second))
			m.nodes += float64(rep.Nodes)
			m.proc.add(rep.Proc)
			m.sums.add(rep.Sums)
			if rep.CheckErr != "" {
				m.problem("op %d (budget %v): %s", i, s.Budget, rep.CheckErr)
			}
			if rec != nil {
				rec.adopt(rep.Records, i, op)
			}
		}
		m.latencies = append(m.latencies, latency.Seconds())
		m.overrunS = append(m.overrunS, (latency - s.Budget).Seconds())
		if killed || checkBudgetOp(latency, s.Budget, stopAllowance) != nil {
			m.failed++
		}
	}
	m.proc.WallS = time.Since(start).Seconds()
	return m, nil
}

// runOpChild runs one op in a child process, killed at hardCap, and adds
// the child's CPU time and peak RSS to m.
func runOpChild(ctx context.Context, exe, spec, trace string, m *measure) (rep childReport, killed bool, err error) {
	cctx, cancel := context.WithTimeout(ctx, hardCap)
	defer cancel()
	cmd := exec.CommandContext(cctx, exe, "-child", spec, "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child, killed or not
	if ps := cmd.ProcessState; ps != nil {
		m.proc.CPUS += (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			if rss := float64(ru.Maxrss) / 1024; rss > m.peakRSSMB {
				m.peakRSSMB = rss
			}
		}
	}
	if errors.Is(cctx.Err(), context.DeadlineExceeded) {
		return rep, true, nil
	}
	if runErr != nil {
		return rep, false, fmt.Errorf("child: %w", runErr)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, false, fmt.Errorf("child report: %w", err)
	}
	return rep, false, nil
}

// runChild is the child side: build the op's inputs, run it, check it, and
// print a childReport.
func runChild(spec string, traced bool) error {
	var s opSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	c, err := newInputCache(nil).build(s)
	if err != nil {
		return err
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var (
		res  *metaopt.Result
		lat  time.Duration
		aerr error
	)
	proc := measureProc(func() {
		sp := rec.begin("metaopt.analyze", 0, 0)
		res, lat, aerr = analyze(context.Background(), s, c, rec)
		rec.end(sp)
	})
	if aerr != nil {
		return aerr
	}
	proc.WallS, proc.CPUS = 0, 0 // the parent measures these
	rep := childReport{LatencyS: lat.Seconds(), Status: res.Status.String(), Nodes: res.Nodes, Proc: proc}
	if err := checkAnalysis(c, res); err != nil {
		rep.CheckErr = err.Error()
	}
	if rec != nil {
		rep.Sums = rec.sums()
		rep.Records = append(rec.spans, rec.events...)
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func (b *budgetBench) layers(m *measure, perSetup func(string) float64, put func(string, float64)) {
	serialLayers(m, perSetup, put)
}
