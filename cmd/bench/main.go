// Command bench times the Table III workloads — the hot query paths
// of every engine plus the full sweep — and emits a machine-readable
// JSON report (BENCH_pr1.json) comparing the serial (Workers:1) and
// parallel (Workers:0 ⇒ GOMAXPROCS) code paths. With -stages (the
// default) it additionally times a MaxVDD voltage bisection cold
// versus warm through the stage-graph cache and appends the per-stage
// hit/miss/build counters (obdrel-bench/v2 schema). With -trace-overhead
// (also the default) it measures what request tracing costs a warm
// analyzer lookup enabled versus disabled and stamps run metadata —
// go version, CPU count — into the report (obdrel-bench/v3 schema).
//
//	bench                         # full run, writes BENCH_pr<pr>.json (see -pr)
//	bench -pr 3                   # full run, writes BENCH_pr3.json
//	bench -o custom.json          # explicit output path
//	bench -quick                  # CI-sized run (C1, 100 MC samples, 8×8 grid)
//	bench -stages=false           # legacy v1 report without stage sections
//	bench -validate BENCH_pr1.json  # schema check an existing report, no benchmarking
//
// The per-engine numbers are steady-state query costs (engines are
// warmed before timing); mc_failure_prob isolates the MC reduction
// that dominates every MC query; table3_sweep times the whole
// design×method fan-out end to end, including engine construction.
// Speedups are relative to the serial path on
// the same host, so they reflect the core count the run actually had
// (see go_max_procs in the report).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"obdrel"
	"obdrel/internal/fault"
	"obdrel/internal/floorplan"
	"obdrel/internal/obs"
	"obdrel/internal/par"
	"obdrel/internal/thermal"
)

// Schema identifies the original report format; SchemaV2 adds the
// stage-cache sections, SchemaV3 adds run metadata plus the
// tracing-overhead measurement, and SchemaV5 adds the raw-speed
// kernel sections (thermal solver comparison, warm-query allocation
// counts, hybrid table-file serving). -validate accepts all of them;
// new reports emit v5 unless -stages, -trace-overhead or -solver is
// turned off.
const (
	Schema   = "obdrel-bench/v1"
	SchemaV2 = "obdrel-bench/v2"
	SchemaV3 = "obdrel-bench/v3"
	SchemaV5 = "obdrel-bench/v5"
)

// Report is the top-level BENCH_pr1.json document.
type Report struct {
	Schema      string         `json:"schema"`
	GeneratedAt string         `json:"generated_at"`
	GoVersion   string         `json:"go_version,omitempty"`
	GoMaxProcs  int            `json:"go_max_procs"`
	NumCPU      int            `json:"num_cpu,omitempty"`
	Workers     int            `json:"workers"`
	Quick       bool           `json:"quick"`
	MCSamples   int            `json:"mc_samples"`
	GridN       int            `json:"grid_n"`
	Designs     []DesignReport `json:"designs"`
	Table3Sweep SerialParallel `json:"table3_sweep"`
	// LegacyPCACache is the counter section of the removed process-wide
	// PCA cache. Committed reports still carry it, so -validate accepts
	// it; new reports never emit it (the pca stage key deduplicates
	// eigendecompositions now).
	LegacyPCACache json.RawMessage `json:"pca_cache,omitempty"`
	// v2 (stage-graph) sections, present when -stages is on.
	MaxVDDReuse *MaxVDDReport `json:"maxvdd_reuse,omitempty"`
	Stages      []StageReport `json:"stages,omitempty"`
	// v3 section, present when -trace-overhead is on.
	TracingOverhead *TracingOverheadReport `json:"tracing_overhead,omitempty"`
	// FaultPath measures the disarmed fault-injection point — the cost
	// every instrumented call site pays in production. Optional: older
	// committed reports predate the section.
	FaultPath *FaultPathReport `json:"fault_path,omitempty"`
	// v5 (raw-speed kernel) sections, present when -solver is on.
	Solver      *SolverReport      `json:"solver,omitempty"`
	QueryAllocs *QueryAllocsReport `json:"query_allocs,omitempty"`
	TableFile   *TableFileReport   `json:"table_file,omitempty"`
}

// SolverReport compares the thermal solvers over a grid sweep. Both
// run at Tol=1e-9 so the agreement column compares two converged
// answers, not two different stopping rules; SOR legs stop at 100×100
// (its O(N²) sweep count makes 200×200 pointless to wait for), while
// multigrid continues to 200×200 in full runs.
type SolverReport struct {
	Legs []SolverLeg `json:"legs"`
}

// SolverLeg is one grid size: times, convergence effort, and the
// worst per-cell disagreement between multigrid and a converged SOR
// reference (Tol=1e-11, so the comparison is against SOR's answer,
// not its stopping rule — at tight tolerances SOR's true error is
// orders of magnitude above its per-sweep delta). SOR fields are zero
// on multigrid-only legs.
type SolverLeg struct {
	Grid         int     `json:"grid"`
	MultigridNs  int64   `json:"multigrid_ns"`
	Cycles       int     `json:"multigrid_cycles"`
	SORNs        int64   `json:"sor_ns,omitempty"`
	SORIters     int     `json:"sor_iters,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	MaxTempDiffK float64 `json:"max_temp_diff_k,omitempty"`
}

// QueryAllocsReport re-measures the zero-allocation gate outside the
// test binary: allocations per warm st_fast/hybrid query. The
// validator requires every count to be exactly zero.
type QueryAllocsReport struct {
	Design                  string `json:"design"`
	StFastFailureProbAllocs int64  `json:"st_fast_failure_prob_allocs"`
	StFastLifetimeAllocs    int64  `json:"st_fast_lifetime_allocs"`
	HybridFailureProbAllocs int64  `json:"hybrid_failure_prob_allocs"`
	HybridLifetimeAllocs    int64  `json:"hybrid_lifetime_allocs"`
}

// TableFileReport compares warm hybrid queries through an in-process
// table against the same tables served from a spilled file (mmap on
// Linux). Latencies are per-query p99 over batched samples — batching
// keeps the µs-scale measurement out of timer-resolution noise. The
// deltas are this benchmark's own table-file traffic.
type TableFileReport struct {
	Design       string  `json:"design"`
	BatchQueries int     `json:"batch_queries"`
	Samples      int     `json:"samples"`
	InProcP99Ns  int64   `json:"in_process_p99_ns"`
	MmapP99Ns    int64   `json:"mmap_p99_ns"`
	P99Ratio     float64 `json:"p99_ratio"`
	BuildNs      int64   `json:"build_ns"`
	LoadNs       int64   `json:"load_ns"`
	SavesDelta   uint64  `json:"saves_delta"`
	LoadsDelta   uint64  `json:"loads_delta"`
	RejectsDelta uint64  `json:"rejects_delta"`
}

// FaultPathReport pins the disarmed fault.Inject fast path: it must
// stay a single atomic load — zero allocations, single-digit
// nanoseconds — or the injection points are not free to leave compiled
// into every build.
type FaultPathReport struct {
	DisarmedNsOp     float64 `json:"disarmed_ns_op"`
	DisarmedAllocsOp int64   `json:"disarmed_allocs_op"`
}

// TracingOverheadReport measures what request tracing costs on the
// hottest serving-layer operation: a warm analyzer lookup resolving
// entirely through the stage cache. "Disabled" is the production
// default (untraced context — every instrumentation point takes the
// nil fast path); "enabled" wraps each op in a root span the way the
// server middleware does per request. The span micro-benchmark pins
// down the disabled fast path itself: it must not allocate, and the
// projected disabled overhead (spans_per_op × span cost) must stay
// under 2% of the op — the PR's acceptance bar for leaving the
// instrumentation compiled into every binary.
type TracingOverheadReport struct {
	Op                  string  `json:"op"`
	Reps                int     `json:"reps"`
	DisabledNs          int64   `json:"disabled_ns"`
	EnabledNs           int64   `json:"enabled_ns"`
	EnabledOverheadPct  float64 `json:"enabled_overhead_pct"`
	SpansPerOp          int     `json:"spans_per_op"`
	SpanDisabledNsOp    float64 `json:"span_disabled_ns_op"`
	SpanDisabledAllocs  int64   `json:"span_disabled_allocs_op"`
	DisabledOverheadPct float64 `json:"disabled_overhead_pct"`
}

// StageReport is one analysis stage's cache counters after the MaxVDD
// workload: how many artifact lookups hit, how many builds ran, and
// what the builds cost.
type StageReport struct {
	Stage           string  `json:"stage"`
	Hits            int64   `json:"hits"`
	Misses          int64   `json:"misses"`
	Builds          int64   `json:"builds"`
	CancelledBuilds int64   `json:"cancelled_builds"`
	BuildSeconds    float64 `json:"build_seconds"`
	Entries         int     `json:"entries"`
}

// MaxVDDReport times one voltage bisection three ways: cold through
// the stage cache (voltage-independent stages build once, the thermal
// tail once per probe), warm (everything cached), and cold with
// Config.PinThermalVDD (the DRM approximation that collapses the
// whole search to ONE thermal solve).
type MaxVDDReport struct {
	Design              string  `json:"design"`
	Probes              int     `json:"probes"`
	ColdNs              int64   `json:"cold_ns"`
	WarmNs              int64   `json:"warm_ns"`
	Speedup             float64 `json:"speedup"`
	ColdThermalBuilds   int64   `json:"cold_thermal_builds"`
	ColdPCABuilds       int64   `json:"cold_pca_builds"`
	WarmThermalBuilds   int64   `json:"warm_thermal_builds"`
	WarmPCABuilds       int64   `json:"warm_pca_builds"`
	PinnedNs            int64   `json:"pinned_ns"`
	PinnedThermalBuilds int64   `json:"pinned_thermal_builds"`
}

// DesignReport carries one design's per-engine query costs and the
// isolated MC-reduction comparison.
type DesignReport struct {
	Design        string         `json:"design"`
	Devices       int            `json:"devices"`
	Engines       []EngineReport `json:"engines"`
	MCFailureProb SerialParallel `json:"mc_failure_prob"`
}

// EngineReport is one engine's steady-state query cost on one design.
type EngineReport struct {
	Method       string  `json:"method"`
	QueryNs      int64   `json:"query_ns"`
	LifetimeH    float64 `json:"lifetime_h"`
	SpeedupVsMC  float64 `json:"speedup_vs_mc"`
	ErrVsMCPct   float64 `json:"err_vs_mc_pct"`
	QueriesTimed int     `json:"queries_timed"`
}

// SerialParallel compares the Workers:1 legacy path against the
// parallel pool on the same workload.
type SerialParallel struct {
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		out       = flag.String("o", "", "output JSON path (\"-\" for stdout; default BENCH_pr<pr>.json)")
		pr        = flag.Int("pr", 1, "PR number the default output name is derived from")
		quick     = flag.Bool("quick", false, "CI-sized run: C1 only, 100 MC samples, 8×8 grid")
		validate  = flag.String("validate", "", "validate an existing report instead of benchmarking")
		designCSV = flag.String("designs", "", "comma-separated design subset (default C1,C3 or C1 with -quick)")
		mcSamples = flag.Int("mc-samples", 1000, "Monte-Carlo sample chips")
		gridN     = flag.Int("grid", 25, "spatial-correlation grid resolution")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel worker count (0 = GOMAXPROCS)")
		stages    = flag.Bool("stages", true, "bench the stage-graph cache (MaxVDD cold/warm/pinned) and report per-stage counters")
		traceOH   = flag.Bool("trace-overhead", true, "bench request tracing enabled vs disabled on a warm analyzer lookup")
		kernels   = flag.Bool("solver", true, "bench the raw-speed kernels: SOR vs multigrid grid sweep, warm-query allocations, table-file serving")
	)
	flag.Parse()
	if *out == "" {
		// Derive the artifact name from the PR number so successive
		// PRs' baselines coexist instead of overwriting each other.
		*out = fmt.Sprintf("BENCH_pr%d.json", *pr)
	}

	if *validate != "" {
		schema, err := validateReport(*validate)
		if err != nil {
			log.Fatalf("validate %s: %v", *validate, err)
		}
		fmt.Printf("bench: %s conforms to %s\n", *validate, schema)
		return
	}

	if *quick {
		if *designCSV == "" {
			*designCSV = "C1"
		}
		*mcSamples = 100
		*gridN = 8
	} else if *designCSV == "" {
		*designCSV = "C1,C3"
	}
	designs, err := pickDesigns(*designCSV)
	if err != nil {
		log.Fatal(err)
	}

	rep := run(designs, *mcSamples, *gridN, *seed, *workers, *quick, *stages, *traceOH, *kernels)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (GOMAXPROCS=%d)", *out, runtime.GOMAXPROCS(0))
	for _, d := range rep.Designs {
		log.Printf("%s: MC FailureProb serial %.2fms parallel %.2fms speedup %.2fx",
			d.Design,
			float64(d.MCFailureProb.SerialNs)/1e6,
			float64(d.MCFailureProb.ParallelNs)/1e6,
			d.MCFailureProb.Speedup)
	}
	log.Printf("table3 sweep serial %.2fs parallel %.2fs speedup %.2fx",
		float64(rep.Table3Sweep.SerialNs)/1e9,
		float64(rep.Table3Sweep.ParallelNs)/1e9,
		rep.Table3Sweep.Speedup)
	if r := rep.MaxVDDReuse; r != nil {
		log.Printf("maxvdd %s: %d probes, cold %.2fms warm %.2fms (%.2fx); thermal builds cold=%d warm=%d pinned=%d",
			r.Design, r.Probes,
			float64(r.ColdNs)/1e6, float64(r.WarmNs)/1e6, r.Speedup,
			r.ColdThermalBuilds, r.WarmThermalBuilds, r.PinnedThermalBuilds)
	}
	if t := rep.TracingOverhead; t != nil {
		log.Printf("tracing: %s disabled %.1fµs enabled %.1fµs (+%.1f%%); span disabled %.1fns/op %d allocs, projected disabled overhead %.3f%%",
			t.Op, float64(t.DisabledNs)/1e3, float64(t.EnabledNs)/1e3, t.EnabledOverheadPct,
			t.SpanDisabledNsOp, t.SpanDisabledAllocs, t.DisabledOverheadPct)
	}
	if s := rep.Solver; s != nil {
		for _, l := range s.Legs {
			if l.SORNs > 0 {
				log.Printf("solver %3dx%-3d: multigrid %.2fms (%d cycles) sor %.2fms (%d iters) speedup %.1fx maxdiff %.2e K",
					l.Grid, l.Grid, float64(l.MultigridNs)/1e6, l.Cycles,
					float64(l.SORNs)/1e6, l.SORIters, l.Speedup, l.MaxTempDiffK)
			} else {
				log.Printf("solver %3dx%-3d: multigrid %.2fms (%d cycles)",
					l.Grid, l.Grid, float64(l.MultigridNs)/1e6, l.Cycles)
			}
		}
	}
	if q := rep.QueryAllocs; q != nil {
		log.Printf("query allocs (%s, warm): st_fast %d/%d hybrid %d/%d (FailureProb/LifetimePPM)",
			q.Design, q.StFastFailureProbAllocs, q.StFastLifetimeAllocs,
			q.HybridFailureProbAllocs, q.HybridLifetimeAllocs)
	}
	if tf := rep.TableFile; tf != nil {
		log.Printf("table file (%s): in-process p99 %.2fµs mmap p99 %.2fµs (ratio %.3f); build %.1fms load %.1fms; saves=%d loads=%d rejects=%d",
			tf.Design, float64(tf.InProcP99Ns)/1e3, float64(tf.MmapP99Ns)/1e3, tf.P99Ratio,
			float64(tf.BuildNs)/1e6, float64(tf.LoadNs)/1e6,
			tf.SavesDelta, tf.LoadsDelta, tf.RejectsDelta)
	}
}

func pickDesigns(csv string) ([]*obdrel.Design, error) {
	all := map[string]*obdrel.Design{}
	for _, d := range obdrel.Benchmarks() {
		all[d.Name] = d
	}
	var out []*obdrel.Design
	for _, name := range strings.Split(csv, ",") {
		d, ok := all[strings.ToUpper(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown design %q", name)
		}
		out = append(out, d)
	}
	return out, nil
}

func config(mcSamples, gridN int, seed int64, workers int) *obdrel.Config {
	cfg := obdrel.DefaultConfig()
	cfg.MCSamples = mcSamples
	cfg.GridNx, cfg.GridNy = gridN, gridN
	cfg.Seed = seed
	cfg.Workers = workers
	// The serial-vs-parallel comparisons must rebuild their substrate
	// per run: stage artifacts are keyed without Workers, so the shared
	// stage cache would hand the parallel leg the serial leg's work and
	// inflate every speedup. The stage cache gets its own benchmark
	// (benchMaxVDD) where reuse is the thing being measured.
	cfg.DisableStageCache = true
	return cfg
}

func run(designs []*obdrel.Design, mcSamples, gridN int, seed int64, workers int, quick, stages, traceOH, kernels bool) *Report {
	rep := &Report{
		Schema:      Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workers:     par.Resolve(workers, 1<<30),
		Quick:       quick,
		MCSamples:   mcSamples,
		GridN:       gridN,
	}
	for _, d := range designs {
		rep.Designs = append(rep.Designs, benchDesign(d, mcSamples, gridN, seed, workers, quick))
	}
	rep.Table3Sweep = benchSweep(designs, mcSamples, gridN, seed, workers)
	if stages {
		rep.Schema = SchemaV2
		mv, st := benchMaxVDD(designs[0], mcSamples, gridN, seed, workers)
		rep.MaxVDDReuse, rep.Stages = &mv, st
	}
	if traceOH {
		// v3 is v2 + tracing; without the stage sections the report
		// stays at its prior schema and carries the section as extra.
		if stages {
			rep.Schema = SchemaV3
		}
		t := benchTracing(designs[0], mcSamples, gridN, seed, workers)
		rep.TracingOverhead = &t
		fp := benchFaultPath()
		rep.FaultPath = &fp
	}
	if kernels {
		// v5 is v3 + the kernel sections; with earlier sections off the
		// report keeps its prior schema and carries these as extras.
		if stages && traceOH {
			rep.Schema = SchemaV5
		}
		sv := benchSolver(quick, workers)
		rep.Solver = &sv
		qa := benchQueryAllocs(designs[0], mcSamples, gridN, seed, workers)
		rep.QueryAllocs = &qa
		tf := benchTableFile(designs[0], mcSamples, gridN, seed, workers, quick)
		rep.TableFile = &tf
	}
	return rep
}

// benchSolver sweeps the thermal grid, timing multigrid against SOR on
// the C6 floorplan with a fixed power vector. Both solvers run at
// Tol=1e-9 so the per-cell disagreement column compares converged
// fields; SOR gets the iteration headroom its O(N²) convergence needs
// and is skipped beyond 100×100.
func benchSolver(quick bool, workers int) SolverReport {
	fd := floorplan.C6()
	powers := make([]float64, len(fd.Blocks))
	for i := range powers {
		powers[i] = 0.4 + 0.15*float64(i%5)
	}
	grids := []int{25, 50, 100}
	if !quick {
		grids = append(grids, 200)
	}
	const reps = 3
	timeSolve := func(s *thermal.Solver) (int64, *thermal.Field) {
		best := int64(1 << 62)
		var f *thermal.Field
		for r := 0; r < reps; r++ {
			start := time.Now()
			out, err := s.Solve(fd, powers)
			if err != nil {
				log.Fatal(err)
			}
			if ns := time.Since(start).Nanoseconds(); ns < best {
				best = ns
			}
			f = out
		}
		return best, f
	}
	var rep SolverReport
	for _, n := range grids {
		mg := *thermal.DefaultSolver()
		mg.Nx, mg.Ny = n, n
		mg.Method = thermal.MethodMultigrid
		mg.Tol = 1e-9
		mg.Workers = workers
		leg := SolverLeg{Grid: n}
		var mgField *thermal.Field
		leg.MultigridNs, mgField = timeSolve(&mg)
		leg.Cycles = mgField.Iterations
		if n <= 100 {
			sor := mg
			sor.Method = thermal.MethodSOR
			sor.MaxIter = 500000
			var sorField *thermal.Field
			leg.SORNs, sorField = timeSolve(&sor)
			leg.SORIters = sorField.Iterations
			leg.Speedup = float64(leg.SORNs) / float64(leg.MultigridNs)
			// Agreement is judged against a converged SOR reference, not
			// the timed run: at Tol=1e-9 SOR's remaining true error
			// dominates any multigrid/SOR difference.
			ref := sor
			ref.Tol = 1e-11
			refField, err := ref.Solve(fd, powers)
			if err != nil {
				log.Fatal(err)
			}
			for i := range mgField.Temps {
				if d := math.Abs(mgField.Temps[i] - refField.Temps[i]); d > leg.MaxTempDiffK {
					leg.MaxTempDiffK = d
				}
			}
		}
		rep.Legs = append(rep.Legs, leg)
	}
	return rep
}

// benchQueryAllocs re-measures the warm-query allocation counts the
// way alloc_test.go does, so the committed report carries the proof.
func benchQueryAllocs(d *obdrel.Design, mcSamples, gridN int, seed int64, workers int) QueryAllocsReport {
	an, err := obdrel.NewAnalyzer(d, config(mcSamples, gridN, seed, workers))
	if err != nil {
		log.Fatal(err)
	}
	q := QueryAllocsReport{Design: d.Name}
	measure := func(m obdrel.Method) (fp, life int64) {
		if _, err := an.FailureProb(1e4, m); err != nil { // warm
			log.Fatal(err)
		}
		fp = int64(testing.AllocsPerRun(200, func() {
			if _, err := an.FailureProb(1e4, m); err != nil {
				log.Fatal(err)
			}
		}))
		life = int64(testing.AllocsPerRun(200, func() {
			if _, err := an.LifetimePPM(10, m); err != nil {
				log.Fatal(err)
			}
		}))
		return fp, life
	}
	q.StFastFailureProbAllocs, q.StFastLifetimeAllocs = measure(obdrel.MethodStFast)
	q.HybridFailureProbAllocs, q.HybridLifetimeAllocs = measure(obdrel.MethodHybrid)
	return q
}

// benchTableFile times warm hybrid queries with in-process tables
// against the same tables served from a spilled file, as batched-p99
// per-query latency. One build spills (saves_delta), a second
// analyzer loads (loads_delta); any reject means the round trip is
// broken.
func benchTableFile(d *obdrel.Design, mcSamples, gridN int, seed int64, workers int, quick bool) TableFileReport {
	dir, err := os.MkdirTemp("", "obdrel-bench-tables-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const batch, samples = 200, 100
	rep := TableFileReport{Design: d.Name, BatchQueries: batch, Samples: samples}
	p99 := func(an *obdrel.Analyzer) int64 {
		// The engines under test are allocation-free, but the builds
		// above left garbage behind; collect it now so a background GC
		// doesn't land inside one batch and masquerade as query cost.
		runtime.GC()
		times := make([]int64, samples)
		for i := range times {
			start := time.Now()
			for j := 0; j < batch; j++ {
				if _, err := an.FailureProb(1e4, obdrel.MethodHybrid); err != nil {
					log.Fatal(err)
				}
			}
			times[i] = time.Since(start).Nanoseconds()
		}
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		// Nearest-rank p99: ceil(0.99·n)-th order statistic.
		return times[(samples*99+99)/100-1] / int64(batch)
	}

	// Build all three analyzers first, then measure: the builds are the
	// allocation-heavy phase, and interleaving them with the latency
	// sampling skews whichever measurement runs last.
	loads0, saves0, rejects0 := obdrel.TableFileStats()
	spillCfg := func() *obdrel.Config {
		c := config(mcSamples, gridN, seed, workers)
		c.TableDir = dir
		return c
	}
	anMem, err := obdrel.NewAnalyzer(d, config(mcSamples, gridN, seed, workers))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := anMem.FailureProb(1e4, obdrel.MethodHybrid); err != nil { // warm in-process
		log.Fatal(err)
	}
	anSpill, err := obdrel.NewAnalyzer(d, spillCfg())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if _, err := anSpill.FailureProb(1e4, obdrel.MethodHybrid); err != nil { // build + spill
		log.Fatal(err)
	}
	rep.BuildNs = time.Since(start).Nanoseconds()
	anFile, err := obdrel.NewAnalyzer(d, spillCfg())
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if _, err := anFile.FailureProb(1e4, obdrel.MethodHybrid); err != nil { // load from file
		log.Fatal(err)
	}
	rep.LoadNs = time.Since(start).Nanoseconds()

	rep.InProcP99Ns = p99(anMem)
	rep.MmapP99Ns = p99(anFile)
	rep.P99Ratio = float64(rep.MmapP99Ns) / float64(rep.InProcP99Ns)

	loads1, saves1, rejects1 := obdrel.TableFileStats()
	rep.LoadsDelta = loads1 - loads0
	rep.SavesDelta = saves1 - saves0
	rep.RejectsDelta = rejects1 - rejects0
	return rep
}

// benchFaultPath measures the disarmed injection point. Must run with
// no injector armed anywhere in the process (bench never arms one).
func benchFaultPath() FaultPathReport {
	ctx := context.Background()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fault.Inject(ctx, "bench.disarmed"); err != nil {
				b.Fatal(err)
			}
		}
	})
	return FaultPathReport{
		DisarmedNsOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		DisarmedAllocsOp: res.AllocsPerOp(),
	}
}

// benchTracing times a warm analyzer lookup (every stage a cache hit)
// with an untraced context against the same lookup under a per-op root
// span, then pins the disabled fast path down to ns/op and allocs/op
// with a span micro-benchmark. disabled_overhead_pct projects what the
// compiled-in instrumentation costs a production (untraced) request:
// spans_per_op nil-path calls at span_disabled_ns_op each, as a
// fraction of the op itself.
func benchTracing(d *obdrel.Design, mcSamples, gridN int, seed int64, workers int) TracingOverheadReport {
	cfg := config(mcSamples, gridN, seed, workers)
	cfg.DisableStageCache = false // the op under test is the cached lookup
	ctx := context.Background()
	if _, err := obdrel.NewAnalyzerCtx(ctx, d, cfg); err != nil { // warm every stage
		log.Fatal(err)
	}
	const reps = 500
	t := TracingOverheadReport{Op: "warm NewAnalyzerCtx (all stages cached)", Reps: reps}

	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := obdrel.NewAnalyzerCtx(ctx, d, cfg); err != nil {
			log.Fatal(err)
		}
	}
	t.DisabledNs = time.Since(start).Nanoseconds() / reps

	tr := obs.NewTracer(obs.Options{RingSize: 4})
	start = time.Now()
	for i := 0; i < reps; i++ {
		tctx, root := tr.StartTrace(ctx, "bench", "", "")
		if _, err := obdrel.NewAnalyzerCtx(tctx, d, cfg); err != nil {
			log.Fatal(err)
		}
		if out := root.EndTrace(); out != nil {
			t.SpansPerOp = out.SpanCount
		}
	}
	t.EnabledNs = time.Since(start).Nanoseconds() / reps
	t.EnabledOverheadPct = float64(t.EnabledNs-t.DisabledNs) / float64(t.DisabledNs) * 100

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		bctx := context.Background()
		for i := 0; i < b.N; i++ {
			_, sp := obs.StartSpanJoin(bctx, "stage:", "bench")
			sp.End()
		}
	})
	t.SpanDisabledNsOp = float64(res.NsPerOp())
	t.SpanDisabledAllocs = res.AllocsPerOp()
	t.DisabledOverheadPct = float64(t.SpansPerOp) * t.SpanDisabledNsOp / float64(t.DisabledNs) * 100
	return t
}

// benchMaxVDD times the tentpole workload: a voltage bisection whose
// probes share the voltage-independent stages. Three phases on a
// reset stage cache — pinned (PinThermalVDD collapses the search to
// one thermal solve), then cold and warm searches whose cumulative
// stage counters become the report's stages section.
func benchMaxVDD(d *obdrel.Design, mcSamples, gridN int, seed int64, workers int) (MaxVDDReport, []StageReport) {
	const (
		ppm    = 10.0
		target = 5 * 8760.0
	)
	sc := obdrel.Stages()
	cfg := config(mcSamples, gridN, seed, workers)
	cfg.DisableStageCache = false // reuse is the subject here
	search := func(c *obdrel.Config) (int, int64) {
		probes := 0
		factory := func(ctx context.Context, pd *obdrel.Design, pc *obdrel.Config) (*obdrel.Analyzer, error) {
			probes++
			return obdrel.NewAnalyzerCtx(ctx, pd, pc)
		}
		start := time.Now()
		if _, err := obdrel.MaxVDDFromCtx(context.Background(), factory, d, c,
			obdrel.MethodStFast, ppm, target, 1.0, 1.5, 0.005); err != nil {
			log.Fatal(err)
		}
		return probes, time.Since(start).Nanoseconds()
	}
	builds := func(stage string) int64 { return sc.Stat(stage).Builds }

	r := MaxVDDReport{Design: d.Name}
	pinned := *cfg
	pinned.PinThermalVDD = pinned.VDD
	sc.Reset()
	_, r.PinnedNs = search(&pinned)
	r.PinnedThermalBuilds = builds(obdrel.StageThermal)

	sc.Reset()
	r.Probes, r.ColdNs = search(cfg)
	r.ColdThermalBuilds = builds(obdrel.StageThermal)
	r.ColdPCABuilds = builds(obdrel.StagePCA)
	_, r.WarmNs = search(cfg)
	r.WarmThermalBuilds = builds(obdrel.StageThermal) - r.ColdThermalBuilds
	r.WarmPCABuilds = builds(obdrel.StagePCA) - r.ColdPCABuilds
	r.Speedup = float64(r.ColdNs) / float64(r.WarmNs)

	var st []StageReport
	for _, s := range sc.Snapshot() {
		st = append(st, StageReport{
			Stage:           s.Stage,
			Hits:            s.Hits,
			Misses:          s.Misses,
			Builds:          s.Builds,
			CancelledBuilds: s.Cancels,
			BuildSeconds:    s.BuildSeconds,
			Entries:         s.Entries,
		})
	}
	return r, st
}

// benchDesign times each engine's steady-state query and isolates the
// MC FailureProb reduction serial-vs-parallel.
func benchDesign(d *obdrel.Design, mcSamples, gridN int, seed int64, workers int, quick bool) DesignReport {
	dr := DesignReport{Design: d.Name, Devices: d.TotalDevices()}
	an, err := obdrel.NewAnalyzer(d, config(mcSamples, gridN, seed, workers))
	if err != nil {
		log.Fatal(err)
	}
	ref, err := an.LifetimePPM(10, obdrel.MethodMC) // warms the MC engine too
	if err != nil {
		log.Fatal(err)
	}
	reps := 5
	if quick {
		reps = 2
	}
	methods := []obdrel.Method{
		obdrel.MethodMC, obdrel.MethodStFast, obdrel.MethodStMC,
		obdrel.MethodHybrid, obdrel.MethodGuard,
	}
	times := map[obdrel.Method]time.Duration{}
	for _, m := range methods {
		// Warm: engine construction (sampling, PCA, hybrid table) is a
		// one-time cost, not the steady-state query being measured.
		life, err := an.LifetimePPM(10, m)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := an.LifetimePPM(10, m); err != nil {
				log.Fatal(err)
			}
		}
		per := time.Since(start) / time.Duration(reps)
		times[m] = per
		dr.Engines = append(dr.Engines, EngineReport{
			Method:       m.String(),
			QueryNs:      per.Nanoseconds(),
			LifetimeH:    life,
			ErrVsMCPct:   (life - ref) / ref * 100,
			QueriesTimed: reps,
		})
	}
	for i := range dr.Engines {
		dr.Engines[i].SpeedupVsMC = float64(times[obdrel.MethodMC]) / float64(times[methods[i]])
	}
	dr.MCFailureProb = benchMCFailureProb(d, mcSamples, gridN, seed, workers, ref, reps)
	return dr
}

// benchMCFailureProb times the pure MC reduction (FailureProb over the
// sample histograms) with Workers:1 against the parallel pool. Both
// analyzers draw identical samples (the sampling plan is
// worker-independent), so the comparison is reduction-only.
func benchMCFailureProb(d *obdrel.Design, mcSamples, gridN int, seed int64, workers int, t float64, reps int) SerialParallel {
	timeOne := func(w int) int64 {
		an, err := obdrel.NewAnalyzer(d, config(mcSamples, gridN, seed, w))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := an.FailureProb(t, obdrel.MethodMC); err != nil { // warm: sampling
			log.Fatal(err)
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := an.FailureProb(t, obdrel.MethodMC); err != nil {
				log.Fatal(err)
			}
		}
		return (time.Since(start) / time.Duration(reps)).Nanoseconds()
	}
	sp := SerialParallel{SerialNs: timeOne(1), ParallelNs: timeOne(workers)}
	sp.Speedup = float64(sp.SerialNs) / float64(sp.ParallelNs)
	return sp
}

// benchSweep times a Table III-shaped sweep (every design × the four
// fast methods + the MC reference) serially and with the full fan-out.
func benchSweep(designs []*obdrel.Design, mcSamples, gridN int, seed int64, workers int) SerialParallel {
	sweep := func(w int) int64 {
		start := time.Now()
		par.For(w, len(designs), func(di int) {
			an, err := obdrel.NewAnalyzer(designs[di], config(mcSamples, gridN, seed, w))
			if err != nil {
				log.Fatal(err)
			}
			for _, m := range []obdrel.Method{
				obdrel.MethodMC, obdrel.MethodStFast, obdrel.MethodStMC,
				obdrel.MethodHybrid, obdrel.MethodGuard,
			} {
				if _, err := an.LifetimePPM(10, m); err != nil {
					log.Fatal(err)
				}
			}
		})
		return time.Since(start).Nanoseconds()
	}
	sp := SerialParallel{SerialNs: sweep(1), ParallelNs: sweep(workers)}
	sp.Speedup = float64(sp.SerialNs) / float64(sp.ParallelNs)
	return sp
}

// validateReport checks that an existing report file parses and
// carries the required fields — the CI smoke test for the schema.
func validateReport(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	// Peek at the envelope first: the serving-side report families
	// (kind "serving"/"chaos"/"fleet"/"cluster", schemas v1/v4/v6/v7)
	// are loadgen's, and feeding one here would otherwise die on an
	// opaque unknown-field error instead of pointing at the right
	// validator.
	var head struct {
		Schema string `json:"schema"`
		Kind   string `json:"kind"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", err
	}
	if head.Kind != "" {
		return "", fmt.Errorf("schema %q kind %q is a loadgen report; validate it with 'loadgen -validate %s'", head.Schema, head.Kind, path)
	}
	var rep Report
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return "", err
	}
	switch {
	case rep.Schema != Schema && rep.Schema != SchemaV2 && rep.Schema != SchemaV3 && rep.Schema != SchemaV5:
		return "", fmt.Errorf("schema %q, want %q, %q, %q or %q", rep.Schema, Schema, SchemaV2, SchemaV3, SchemaV5)
	case rep.GoMaxProcs < 1:
		return "", fmt.Errorf("go_max_procs %d", rep.GoMaxProcs)
	case len(rep.Designs) == 0:
		return "", fmt.Errorf("no designs")
	case rep.Table3Sweep.SerialNs <= 0 || rep.Table3Sweep.ParallelNs <= 0:
		return "", fmt.Errorf("table3_sweep timings missing")
	}
	for _, d := range rep.Designs {
		if d.Design == "" || len(d.Engines) == 0 {
			return "", fmt.Errorf("design entry %+v incomplete", d)
		}
		for _, e := range d.Engines {
			if e.Method == "" || e.QueryNs <= 0 {
				return "", fmt.Errorf("%s: engine entry %+v incomplete", d.Design, e)
			}
		}
		if d.MCFailureProb.SerialNs <= 0 || d.MCFailureProb.ParallelNs <= 0 {
			return "", fmt.Errorf("%s: mc_failure_prob timings missing", d.Design)
		}
	}
	if rep.Schema == SchemaV2 || rep.Schema == SchemaV3 || rep.Schema == SchemaV5 {
		if err := validateStages(&rep); err != nil {
			return "", err
		}
	}
	if rep.Schema == SchemaV3 || rep.Schema == SchemaV5 {
		if err := validateTracing(&rep); err != nil {
			return "", err
		}
	}
	if rep.Schema == SchemaV5 {
		if err := validateKernels(&rep); err != nil {
			return "", err
		}
	}
	return rep.Schema, nil
}

// validateKernels gates the v5 raw-speed sections — the PR's
// acceptance bars: multigrid at least 5× SOR at 100×100 with the two
// solvers agreeing to 1e-7 K, warm st_fast/hybrid queries allocating
// exactly nothing, and file-served hybrid queries within 10% of the
// in-process p99.
func validateKernels(rep *Report) error {
	s := rep.Solver
	if s == nil || len(s.Legs) == 0 {
		return fmt.Errorf("v5 report without solver section")
	}
	var gate *SolverLeg
	for i := range s.Legs {
		l := &s.Legs[i]
		if l.MultigridNs <= 0 || l.Cycles < 1 {
			return fmt.Errorf("solver leg %+v incomplete", l)
		}
		if l.Grid == 100 {
			gate = l
		}
	}
	switch {
	case gate == nil:
		return fmt.Errorf("solver section lacks the 100×100 gate leg")
	case gate.SORNs <= 0 || gate.SORIters < 1:
		return fmt.Errorf("100×100 leg did not run SOR")
	case gate.MultigridNs*5 > gate.SORNs:
		return fmt.Errorf("multigrid only %.2fx SOR at 100×100, want ≥ 5x",
			float64(gate.SORNs)/float64(gate.MultigridNs))
	case gate.MaxTempDiffK > 1e-7:
		return fmt.Errorf("solvers disagree by %.3e K at 100×100, want ≤ 1e-7", gate.MaxTempDiffK)
	}
	q := rep.QueryAllocs
	switch {
	case q == nil:
		return fmt.Errorf("v5 report without query_allocs section")
	case q.StFastFailureProbAllocs != 0 || q.StFastLifetimeAllocs != 0 ||
		q.HybridFailureProbAllocs != 0 || q.HybridLifetimeAllocs != 0:
		return fmt.Errorf("warm queries allocate (st_fast %d/%d, hybrid %d/%d), want 0",
			q.StFastFailureProbAllocs, q.StFastLifetimeAllocs,
			q.HybridFailureProbAllocs, q.HybridLifetimeAllocs)
	}
	tf := rep.TableFile
	switch {
	case tf == nil:
		return fmt.Errorf("v5 report without table_file section")
	case tf.InProcP99Ns <= 0 || tf.MmapP99Ns <= 0:
		return fmt.Errorf("table_file timings missing")
	case tf.SavesDelta < 1:
		return fmt.Errorf("table_file benchmark spilled %d files, want ≥ 1", tf.SavesDelta)
	case tf.LoadsDelta < 1:
		return fmt.Errorf("table_file benchmark loaded %d files, want ≥ 1", tf.LoadsDelta)
	case tf.RejectsDelta != 0:
		return fmt.Errorf("table_file benchmark rejected %d files, want 0", tf.RejectsDelta)
	case float64(tf.MmapP99Ns) > 1.1*float64(tf.InProcP99Ns):
		return fmt.Errorf("file-served p99 %.0fns exceeds 1.1× in-process p99 %.0fns",
			float64(tf.MmapP99Ns), float64(tf.InProcP99Ns))
	}
	return nil
}

// validateTracing gates the v3 sections: run metadata must be stamped
// and the tracing-overhead measurement must prove the disabled path is
// genuinely free — zero allocations on the span fast path and a
// projected untraced-request overhead under the 2% acceptance bar.
func validateTracing(rep *Report) error {
	t := rep.TracingOverhead
	switch {
	case rep.GoVersion == "":
		return fmt.Errorf("v3 report without go_version")
	case rep.NumCPU < 1:
		return fmt.Errorf("num_cpu %d", rep.NumCPU)
	case t == nil:
		return fmt.Errorf("v3 report without tracing_overhead section")
	case t.DisabledNs <= 0 || t.EnabledNs <= 0 || t.Reps <= 0:
		return fmt.Errorf("tracing_overhead timings missing")
	case t.SpansPerOp < 1:
		return fmt.Errorf("enabled trace recorded %d spans per op, want ≥ 1", t.SpansPerOp)
	case t.SpanDisabledAllocs != 0:
		return fmt.Errorf("disabled span path allocates (%d allocs/op), want 0", t.SpanDisabledAllocs)
	case t.SpanDisabledNsOp <= 0:
		return fmt.Errorf("span micro-benchmark missing")
	case t.DisabledOverheadPct >= 2:
		return fmt.Errorf("projected disabled-tracing overhead %.3f%%, want < 2%%", t.DisabledOverheadPct)
	}
	// fault_path is optional (committed reports may predate it), but
	// when present it must prove the disarmed path is free.
	if fp := rep.FaultPath; fp != nil {
		switch {
		case fp.DisarmedAllocsOp != 0:
			return fmt.Errorf("disarmed fault path allocates (%d allocs/op), want 0", fp.DisarmedAllocsOp)
		case fp.DisarmedNsOp <= 0 || fp.DisarmedNsOp >= 15:
			return fmt.Errorf("disarmed fault path costs %.1f ns/op, want (0, 15)", fp.DisarmedNsOp)
		}
	}
	return nil
}

// validateStages gates the v2 stage-timing sections: the report must
// carry per-stage counters and a MaxVDD reuse measurement whose
// numbers prove the cache actually worked — one PCA build across the
// whole cold bisection, zero rebuilds when warm, one thermal solve
// when pinned.
func validateStages(rep *Report) error {
	r := rep.MaxVDDReuse
	switch {
	case len(rep.Stages) == 0:
		return fmt.Errorf("v2 report without stages section")
	case r == nil:
		return fmt.Errorf("v2 report without maxvdd_reuse section")
	case r.Probes < 8:
		return fmt.Errorf("maxvdd_reuse ran %d probes, want ≥ 8", r.Probes)
	case r.ColdNs <= 0 || r.WarmNs <= 0 || r.PinnedNs <= 0:
		return fmt.Errorf("maxvdd_reuse timings missing")
	case r.ColdPCABuilds != 1:
		return fmt.Errorf("cold search ran %d PCA builds, want 1", r.ColdPCABuilds)
	case r.WarmThermalBuilds != 0 || r.WarmPCABuilds != 0:
		return fmt.Errorf("warm search rebuilt stages (thermal=%d pca=%d), want 0",
			r.WarmThermalBuilds, r.WarmPCABuilds)
	case r.PinnedThermalBuilds != 1:
		return fmt.Errorf("pinned search ran %d thermal solves, want exactly 1", r.PinnedThermalBuilds)
	case !rep.Quick && r.Speedup <= 1:
		return fmt.Errorf("warm search not faster than cold (speedup %.3f)", r.Speedup)
	}
	need := map[string]bool{}
	for _, s := range obdrel.StageNames() {
		need[s] = true
	}
	for _, s := range rep.Stages {
		if s.Stage == "" || s.Builds < 0 || s.Misses < s.Builds {
			return fmt.Errorf("stage entry %+v implausible", s)
		}
		delete(need, s.Stage)
	}
	if len(need) > 0 {
		return fmt.Errorf("stages section missing %d analysis stages", len(need))
	}
	return nil
}
