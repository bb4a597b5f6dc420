package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"raha/internal/obs"
)

// recorder is the traced run's in-memory sink. It is the obs.Tracer the
// program's solves emit into, and it holds the benchmark's own spans
// around each call into a layer. Nothing is written until the run ends.
// A nil *recorder records nothing, which is the untraced run.
type recorder struct {
	start time.Time

	mu         sync.Mutex
	op         int // op the serial workloads are running; -1 when ops overlap
	events     []record
	spans      []record
	nodeEvents int64 // per-node milp events: counted, not kept
}

// record is one JSONL line: a program event or a benchmark span.
type record struct {
	Kind   string  `json:"kind"` // "event" or "span"
	Op     int     `json:"op"`
	T      float64 `json:"t,omitempty"`
	Layer  string  `json:"layer,omitempty"`
	Ev     string  `json:"ev,omitempty"`
	Fields obs.F   `json:"fields,omitempty"`
	ID     int     `json:"id,omitempty"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name,omitempty"`
	Start  float64 `json:"start,omitempty"`
	End    float64 `json:"end,omitempty"`
}

func newRecorder() *recorder { return &recorder{start: time.Now(), op: -1} }

// Emit implements obs.Tracer.
func (r *recorder) Emit(layer, ev string, fields obs.F) {
	t := time.Since(r.start).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if layer == "milp" && ev == "node" {
		r.nodeEvents++
		return
	}
	r.events = append(r.events, record{Kind: "event", Op: r.op, T: t, Layer: layer, Ev: ev, Fields: finite(fields)})
}

// finite returns fields with any NaN or infinite value spelled as a
// string, since JSON has no such numbers; fields itself is not modified.
func finite(fields obs.F) obs.F {
	var out obs.F
	for k, v := range fields {
		if x, ok := v.(float64); ok && (math.IsNaN(x) || math.IsInf(x, 0)) {
			if out == nil {
				out = make(obs.F, len(fields))
				for k2, v2 := range fields {
					out[k2] = v2
				}
			}
			out[k] = fmt.Sprint(x)
		}
	}
	if out == nil {
		return fields
	}
	return out
}

// adopt adds a child process's spans and events under op id op: times
// shift onto this recorder's clock at the start of span parent, span ids
// are renumbered, and the child's top-level spans hang under parent.
func (r *recorder) adopt(records []record, op, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t0 := r.spans[parent-1].Start
	offset := len(r.spans)
	for _, rec := range records {
		rec.Op = op
		if rec.Kind == "span" {
			rec.ID += offset
			if rec.Parent == 0 {
				rec.Parent = parent
			} else {
				rec.Parent += offset
			}
			rec.Start += t0
			rec.End += t0
			r.spans = append(r.spans, rec)
			continue
		}
		rec.T += t0
		r.events = append(r.events, rec)
	}
}

// tracer returns r as an obs.Tracer, or nil for the untraced run (a typed
// nil pointer inside the interface would not read as disabled).
func (r *recorder) tracer() obs.Tracer {
	if r == nil {
		return nil
	}
	return r
}

// setOp tags the events that follow with op id (serial workloads only).
func (r *recorder) setOp(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.op = id
	r.mu.Unlock()
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	t := time.Since(r.start).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, record{Kind: "span", ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: t})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := time.Since(r.start).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// spanTotal sums the durations of the closed spans named name.
func (r *recorder) spanTotal(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s float64
	for _, sp := range r.spans {
		if sp.Name == name && sp.End > 0 {
			s += sp.End - sp.Start
		}
	}
	return s
}

// writeJSONL writes every span and kept event, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, rec := range append(append([]record(nil), r.spans...), r.events...) {
		if err = enc.Encode(rec); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// solveSums are the per-layer totals one process's events add up to. A
// budget-stop child returns its own, and the parent adds them up.
type solveSums struct {
	Analyses                          float64 // analysis_end events
	AnalysisS, HintS, SolveS, VerifyS float64 // their runtime split
	PresolveS, BranchS, HeurS, QueueS float64
	LPSolves, LPIters, WarmStarts     float64
	WarmIters, WarmS, ColdS           float64
	ColdFallbacks                     float64
}

func (a *solveSums) add(b solveSums) {
	a.Analyses += b.Analyses
	a.AnalysisS += b.AnalysisS
	a.HintS += b.HintS
	a.SolveS += b.SolveS
	a.VerifyS += b.VerifyS
	a.PresolveS += b.PresolveS
	a.BranchS += b.BranchS
	a.HeurS += b.HeurS
	a.QueueS += b.QueueS
	a.LPSolves += b.LPSolves
	a.LPIters += b.LPIters
	a.WarmStarts += b.WarmStarts
	a.WarmIters += b.WarmIters
	a.WarmS += b.WarmS
	a.ColdS += b.ColdS
	a.ColdFallbacks += b.ColdFallbacks
}

// sums totals the analysis_end and solve_end events recorded so far
// (solve_end covers every solve, hint solves included).
func (r *recorder) sums() solveSums {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s solveSums
	for _, e := range r.events {
		f := e.Fields
		switch {
		case e.Layer == "metaopt" && e.Ev == "analysis_end":
			s.Analyses++
			s.AnalysisS += num(f, "runtime_s")
			s.HintS += num(f, "hint_s")
			s.SolveS += num(f, "solve_s")
			s.VerifyS += num(f, "verify_s")
		case e.Layer == "milp" && e.Ev == "solve_end":
			s.PresolveS += num(f, "presolve_ns") / 1e9
			s.BranchS += num(f, "branch_ns") / 1e9
			s.HeurS += num(f, "heur_ns") / 1e9
			s.QueueS += (num(f, "queue_pop_ns") + num(f, "queue_push_ns")) / 1e9
			s.LPSolves += num(f, "lp_solves")
			s.LPIters += num(f, "lp_iters")
			s.WarmStarts += num(f, "warm_starts")
			s.WarmIters += num(f, "warm_iters")
			s.WarmS += num(f, "lp_warm_ns") / 1e9
			s.ColdS += num(f, "lp_cold_ns") / 1e9
			s.ColdFallbacks += num(f, "cold_fallbacks")
		}
	}
	return s
}

// num reads a numeric event field, whatever integer or float type the
// emitter used; absent fields read 0.
func num(f obs.F, key string) float64 {
	switch v := f[key].(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}
