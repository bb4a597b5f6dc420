// Command perfbench is Raha's benchmark. It runs one named workload as a
// fixed list of operations, checks every output, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output. Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload analyze-deep --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"raha/internal/obs"
)

// verbose prints one line per op to standard error (-v).
var verbose bool

// setupBlocks is how many blocks of set-ups a run makes. A block builds
// the run's inputs setupBuilds[workload] times, each build timed alone
// after a GC (so the set-up heap, and with it peak_rss_mb, stays that of
// one build), about 0.3 s of building in all on the reference host,
// because one short build is too noisy to compare. setup_s is the median
// over blocks of the mean time per build.
const setupBlocks = 7

var setupBuilds = map[string]int{
	"analyze-deep": 24,
	"analyze-wide": 4,
	"fleet-alert":  150,
	"budget-stop":  4,
}

// bench is one workload.
type bench interface {
	// setup builds the run's inputs (called once per set-up build).
	setup(rec *recorder) error
	// run executes the fixed op list once, then checks every output.
	run(ctx context.Context, rec *recorder) (*measure, error)
	// layers adds the workload-specific per-layer figures; perSetup gives a
	// set-up span's time per build.
	layers(m *measure, perSetup func(span string) float64, put func(name string, v float64))
}

// measure is what one pass over the op list gave.
type measure struct {
	attempted, failed int
	problems          []string // failed checks: the outputs were wrong

	latencies []float64 // per op, seconds
	proc      procDelta // over the timed phase (children's, for budget-stop)
	peakRSSMB float64   // children's peak, for budget-stop; else the process's

	nodes    float64   // branch-and-bound nodes of the main solves
	overrunS []float64 // latency − budget, budget-stop only
	sums     solveSums // traced passes only

	loadS        float64 // fleet: time in the wrapped Source.Load
	cellS, cells float64 // fleet: summed cell runtime and cell count
}

func (m *measure) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// procDelta is what the timed phase cost the process.
type procDelta struct {
	WallS, CPUS, AllocBytes  float64
	GCCycles, GCPauseS       float64
	Refactorizations, Degens float64
}

func (p *procDelta) add(q procDelta) {
	p.WallS += q.WallS
	p.CPUS += q.CPUS
	p.AllocBytes += q.AllocBytes
	p.GCCycles += q.GCCycles
	p.GCPauseS += q.GCPauseS
	p.Refactorizations += q.Refactorizations
	p.Degens += q.Degens
}

var (
	cRefacs = obs.Default.Counter("lp.refactorizations")
	cDegens = obs.Default.Counter("lp.degenerate_pivots")
)

// measureProc runs f and returns its wall and CPU time, its allocation and
// GC work, and its LP counter deltas.
func measureProc(f func()) procDelta {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r0, d0 := cRefacs.Value(), cDegens.Value()
	c0 := cpuSeconds()
	start := time.Now()
	f()
	wall := time.Since(start).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return procDelta{
		WallS:            wall,
		CPUS:             c1 - c0,
		AllocBytes:       float64(m1.TotalAlloc - m0.TotalAlloc),
		GCCycles:         float64(m1.NumGC - m0.NumGC),
		GCPauseS:         float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		Refactorizations: float64(cRefacs.Value() - r0),
		Degens:           float64(cDegens.Value() - d0),
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB is the process's peak resident set, in MB (2^20 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// roundSeconds is each workload's nominal round length on the reference
// host (README.md): -seconds fixes the number of rounds, never a time
// window, so a run's op list depends on nothing but its arguments.
var roundSeconds = map[string]float64{
	"analyze-deep": 1.4,
	"analyze-wide": 4.0,
	"fleet-alert":  0.03,
	"budget-stop":  9,
}

// newBench returns the workload's op list for a run of the given nominal
// length.
func newBench(workload string, seed int64, seconds int) (bench, error) {
	rounds := 1
	if rs, ok := roundSeconds[workload]; ok {
		rounds = int(math.Max(1, math.Round(float64(seconds)/rs)))
	}
	switch workload {
	case "analyze-deep":
		return &analyzeBench{specs: analyzeOps(deepInstances, seed, rounds)}, nil
	case "analyze-wide":
		return &analyzeBench{specs: analyzeOps(wideInstances, seed, rounds)}, nil
	case "fleet-alert":
		return &fleetBench{seed: seed, rounds: rounds}, nil
	case "budget-stop":
		return &budgetBench{specs: budgetOps(rounds)}, nil
	}
	names := make([]string, 0, len(roundSeconds))
	for n := range roundSeconds {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(names, ", "))
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "workload to run: analyze-deep, analyze-wide, fleet-alert or budget-stop")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "nominal run length; fixes the number of op rounds")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write the trace")
	outDir := flag.String("out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its JSONL trace to")
	child := flag.String("child", "", "internal: run one budget-stop op given as JSON and report it")
	flag.BoolVar(&verbose, "v", false, "print every op's latency and work to standard error")
	flag.Parse()
	if *child != "" {
		return runChild(*child, *trace == 1)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	b, err := newBench(*workload, *seed, *seconds)
	if err != nil {
		return err
	}

	host := hostFacts()
	hj, _ := json.Marshal(host) // plain struct: cannot fail
	fmt.Printf("host %s\n", hj)

	var setupRec *recorder
	if *trace == 1 {
		setupRec = newRecorder()
	}
	builds := setupBuilds[*workload]
	var setups []float64
	for i := 0; i < setupBlocks; i++ {
		var block time.Duration
		for j := 0; j < builds; j++ {
			runtime.GC() // each build starts from the same heap state
			start := time.Now()
			if err := b.setup(setupRec); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			block += time.Since(start)
		}
		setups = append(setups, block.Seconds()/float64(builds))
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "setup blocks (s per build): %.6f\n", setups)
	}
	perSetup := func(span string) float64 {
		return setupRec.spanTotal(span) / float64(setupBlocks*builds)
	}

	ctx := context.Background()
	m, err := b.run(ctx, nil)
	if err != nil {
		return err
	}
	res := result{Correct: len(m.problems) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if *trace == 0 {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		put("setup_s", "s", median(setups))
		put("ops_per_s", "1/s", float64(m.attempted)/m.proc.WallS)
		put("latency_p50_s", "s", median(m.latencies))
		put("cpu_s_per_op", "s", m.proc.CPUS/float64(m.attempted))
		put("peak_rss_mb", "MB", m.peakRSSMB)
		put("alloc_mb_per_op", "MB", m.proc.AllocBytes/float64(m.attempted)/(1<<20))
		if p, v, ok := tail(m.latencies); ok {
			fmt.Printf("reference latency_p%d_s %.6f (n=%d, not gated)\n", p, v, len(m.latencies))
		}
	} else {
		rec := newRecorder()
		tm, err := b.run(ctx, rec)
		if err != nil {
			return err
		}
		m.problems = append(m.problems, tm.problems...)
		res.Correct = len(m.problems) == 0
		res.Attempted, res.Failed = tm.attempted, tm.failed
		layerMetrics(b, tm, perSetup, m.proc.WallS, func(name string, v float64) {
			res.Metrics[name] = metric{Value: v, Unit: layerUnits[name]}
		})
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := rec.writeJSONL(path); err != nil {
			return err
		}
		fmt.Printf("trace %s (%d spans, %d events, %d node events counted)\n", path, len(rec.spans), len(rec.events), rec.nodeEvents)
		printLayerTable(res.Metrics)
	}
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerOrder lists the per-layer metrics with their units, in print order.
var layerOrder = []struct{ name, unit string }{
	{"topology.load_s", "s"},
	{"paths.compute_s", "s"},
	{"metaopt.hint_s", "s"},
	{"metaopt.encode_s", "s"},
	{"metaopt.solve_s", "s"},
	{"metaopt.verify_s", "s"},
	{"milp.nodes", "count"},
	{"milp.nodes_per_s", "1/s"},
	{"milp.presolve_s", "s"},
	{"milp.branch_s", "s"},
	{"milp.heur_s", "s"},
	{"milp.queue_wait_s", "s"},
	{"milp.stop_overrun_s", "s"},
	{"lp.solves", "count"},
	{"lp.warm_s", "s"},
	{"lp.cold_s", "s"},
	{"lp.warm_iters_per_solve", "count"},
	{"lp.ns_per_warm_iter", "ns"},
	{"lp.cold_iters", "count"},
	{"lp.cold_fallbacks", "count"},
	{"lp.refactorizations", "count"},
	{"lp.degenerate_pivots", "count"},
	{"alert.analyses", "count"},
	{"alert.analysis_s", "s"},
	{"batch.busy_share", "ratio"},
	{"batch.cell_overhead_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"obs.trace_overhead", "ratio"},
}

var layerUnits = func() map[string]string {
	m := make(map[string]string, len(layerOrder))
	for _, l := range layerOrder {
		m[l.name] = l.unit
	}
	return m
}()

// layerMetrics derives every per-layer metric of a traced pass. Figures
// are per op unless README.md says otherwise.
func layerMetrics(b bench, m *measure, perSetup func(string) float64, untracedWallS float64, put func(string, float64)) {
	ops := float64(m.attempted)
	s := m.sums
	put("metaopt.hint_s", s.HintS/ops)
	put("metaopt.encode_s", (s.AnalysisS-s.HintS-s.SolveS-s.VerifyS)/ops)
	put("metaopt.solve_s", s.SolveS/ops)
	put("metaopt.verify_s", s.VerifyS/ops)
	put("milp.nodes", m.nodes/ops)
	put("milp.nodes_per_s", ratio(m.nodes, s.SolveS))
	put("milp.presolve_s", s.PresolveS/ops)
	put("milp.branch_s", s.BranchS/ops)
	put("milp.heur_s", s.HeurS/ops)
	put("milp.queue_wait_s", s.QueueS/ops)
	put("milp.stop_overrun_s", median(m.overrunS))
	put("lp.solves", s.LPSolves/ops)
	put("lp.warm_s", s.WarmS/ops)
	put("lp.cold_s", s.ColdS/ops)
	put("lp.warm_iters_per_solve", ratio(s.WarmIters, s.WarmStarts))
	put("lp.ns_per_warm_iter", ratio(s.WarmS*1e9, s.WarmIters))
	put("lp.cold_iters", (s.LPIters-s.WarmIters)/ops)
	put("lp.cold_fallbacks", s.ColdFallbacks/ops)
	put("lp.refactorizations", m.proc.Refactorizations/ops)
	put("lp.degenerate_pivots", m.proc.Degens/ops)
	put("alert.analyses", s.Analyses/ops)
	put("alert.analysis_s", s.AnalysisS/ops)
	put("runtime.gc_cycles", m.proc.GCCycles/ops)
	put("runtime.gc_pause_s", m.proc.GCPauseS/ops)
	put("obs.trace_overhead", m.proc.WallS/untracedWallS-1)
	b.layers(m, perSetup, put)
}

func printLayerTable(ms map[string]metric) {
	fmt.Println("per-layer (per op unless README.md says otherwise):")
	for _, l := range layerOrder {
		if v, ok := ms[l.name]; ok {
			fmt.Printf("  %-26s %14.6g %s\n", l.name, v.Value, v.Unit)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile with at least ten samples
// beyond it, when there are at least forty samples.
func tail(xs []float64) (int, float64, bool) {
	n := len(xs)
	if n < 40 {
		return 0, 0, false
	}
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
	return p, s[idx], true
}
