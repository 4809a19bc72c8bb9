// Command benchmark drives the obdreld serving stack over four
// closed-loop workloads, checks every answer it can against the
// library, and reports end-to-end metrics from an untraced phase and a
// per-layer breakdown from a traced one. See README.md.
//
// Each workload runs in child processes of its own, so process-wide
// caches never carry over between workloads or between the repeated
// set-ups that setup_s takes the median of.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"obdrel"
)

// setupRuns is how many fresh child processes set a workload up; the
// report's setup_s is their median.
const setupRuns = 3

// readyLine is what a child prints once set up; the parent's clock for
// setup_s stops when it reads it.
const readyLine = "ready"

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs all four, each with its traced phase")
		seed     = flag.Uint64("seed", 1, "seed every generated input is drawn from")
		seconds  = flag.Float64("seconds", 10, "length of the untraced timed phase; the traced phase runs a third as long")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced phase, 0 the end-to-end metrics")
		spansDir = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced phase writes its spans to, as JSONL")
		child    = flag.String("child", "", "internal: run the workload in this process (run or setup)")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	if *child != "" {
		s, err := specByName(*name)
		if err == nil {
			err = childMain(context.Background(), s, *seed, d, *trace == 1, *child == "setup", *spansDir, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if err := parentMain(*name, *seed, d, *trace == 1, *spansDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// outcome is what one workload child reports back.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"` // the first few failures
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Samples   int                `json:"samples"` // untraced latency samples
}

// addFail records an op's first failure.
func addFail(fails map[int]error, seq int, err error) {
	if _, dup := fails[seq]; !dup {
		fails[seq] = err
	}
}

// childMain sets the workload up, tells the parent, and — unless this
// child only sets up — runs the phases and prints the outcome as a
// JSON line.
func childMain(ctx context.Context, s *spec, seed uint64, d time.Duration, traced, setupOnly bool, spansDir string, out io.Writer) error {
	tr := &tracer{}
	w := s.start(s, seed, tr)
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("%s set-up: %w", s.name, err)
	}
	fmt.Fprintln(out, readyLine)
	if setupOnly {
		return nil
	}
	o, spans, err := measure(ctx, s, w, tr, seed, d, traced)
	if err != nil {
		return err
	}
	if traced {
		if err := writeSpans(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", s.name, seed)), spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// measure runs the untraced phase, checks its answers, and — when
// traced — runs the traced phase and derives the per-layer metrics.
func measure(ctx context.Context, s *spec, w workload, tr *tracer, seed uint64, d time.Duration, traced bool) (*outcome, []span, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := runPhase(ctx, s.clients, d, 0, w.op)
	runtime.ReadMemStats(&m1)
	if ph.ops == 0 {
		return nil, nil, fmt.Errorf("%s: no op completed in %v", s.name, d)
	}
	fails := ph.fails
	o := &outcome{Attempted: ph.ops, Samples: len(ph.lat), E2E: map[string]float64{
		"throughput":  ph.throughput(),
		"p50_ms":      ph.p50(),
		"tail_ms":     percentile(append([]float64(nil), ph.lat...), s.tail),
		"peak_rss_mb": peakRSS(),
	}}

	// The untraced answer check: the kept ops, or a seeded sample of
	// them, re-answered by the library.
	l := newLib()
	for _, r := range sampleRecs(ph.recs, s.sample, seed) {
		for i := range r.groups {
			if _, err := l.replay(ctx, &r.groups[i]); err != nil {
				addFail(fails, r.seq, err)
			}
		}
	}

	var spans []span
	if traced {
		tr.begin()
		tp := runPhase(ctx, s.clients, d/3, ph.next, w.op)
		spans = tr.end()
		o.Attempted += tp.ops
		for seq, err := range tp.fails {
			addFail(fails, seq, err)
		}
		engine := map[int]time.Duration{}
		for _, r := range tp.recs {
			for i := range r.groups {
				spent, err := l.replay(ctx, &r.groups[i])
				if err != nil {
					addFail(fails, r.seq, err)
				}
				engine[r.seq] += spent
			}
		}
		o.Layers = layerMetrics(tp, spans, engine, l)
		if err := w.layers(tp, spans, o.Layers); err != nil {
			return nil, nil, err
		}
		o.Layers["proc.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ph.ops)
		o.Layers["proc.gc_pause_ms_per_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ph.wall.Seconds()
		o.Layers["trace.overhead_pct"] = (tp.p50()/o.E2E["p50_ms"] - 1) * 100
	}
	o.Failed = len(fails)
	seqs := make([]int, 0, len(fails))
	for seq := range fails {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs[:min(len(seqs), 5)] {
		o.Errors = append(o.Errors, fmt.Sprintf("op %d: %v", seq, fails[seq]))
	}
	return o, spans, nil
}

// sampleRecs returns n of the kept ops drawn from the seed, or all of
// them when n is 0 or covers them.
func sampleRecs(recs []opRec, n int, seed uint64) []opRec {
	if n == 0 || n >= len(recs) {
		return recs
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]opRec, 0, n)
	for _, i := range rng(seed, streamCheck).Perm(len(recs))[:n] {
		out = append(out, recs[i])
	}
	return out
}

// layerMetrics derives the per-layer metrics every workload reports
// from the traced phase's spans and the engine replay.
func layerMetrics(tp *phase, spans []span, engine map[int]time.Duration, l *lib) map[string]float64 {
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	rows, _ := selfTimes(spans, engine)
	for _, r := range rowNames {
		m[rowMetric(r)] = rows[r]
	}
	var client, handler, build []float64
	stageBuilds, stageNs := map[string]float64{}, map[string]float64{}
	var peerHits, rejected float64
	for _, s := range spans {
		switch s.Name {
		case "client":
			client = append(client, float64(s.dur())/1e3)
			if st := s.Attrs["status"]; st == 429 || st == 503 {
				rejected++
			}
		case "server":
			handler = append(handler, float64(s.dur())/1e3)
		case "registry.build":
			build = append(build, float64(s.dur())/1e6)
			for k, v := range s.Attrs {
				stage, field, _ := strings.Cut(k, ".")
				switch field {
				case "builds":
					stageBuilds[stage] += v
				case "build_ns":
					stageNs[stage] += v
				case "peer_hits":
					peerHits += v
				}
			}
		}
	}
	ops := float64(max(tp.ops, 1))
	lookups := 0
	for _, r := range tp.recs {
		lookups += r.lookups
	}
	m["client_us_mean"] = mean(client)
	m["server.handler_us_p50"] = median(handler)
	m["server.handler_us_p99"] = tailOrZero(handler, 0.99)
	m["server.rejected_per_op"] = rejected / ops
	m["registry.builds_per_op"] = float64(len(build)) / ops
	m["registry.build_ms_p50"] = median(build)
	if lookups > 0 {
		m["registry.hit_ratio"] = 1 - float64(len(build))/float64(lookups)
	}
	local := 0.0
	for _, st := range obdrel.StageNames() {
		m["pipeline."+st+".builds_per_op"] = stageBuilds[st] / ops
		if stageBuilds[st] > 0 {
			m["pipeline."+st+".build_ms_mean"] = stageNs[st] / stageBuilds[st] / 1e6
		}
		local += stageBuilds[st]
	}
	m["pipeline.local_builds_per_op"] = local / ops
	m["pipeline.peer_hits_per_op"] = peerHits / ops
	for _, meth := range engineMethods {
		m["engine."+meth+".build_ms_p50"] = median(l.samples[meth+".build"])
		m["engine."+meth+".lifetime_us_p50"] = median(l.samples[meth+"."+kindLifetime])
		m["engine."+meth+".failureprob_us_p50"] = median(l.samples[meth+"."+kindFailureProb])
	}
	return m
}

// rowMetric names the per-layer metric of a self-time row.
func rowMetric(row string) string {
	if row == "unattributed" {
		return "unattributed_us_mean"
	}
	return row + ".self_us_mean"
}

// writeSpans writes the traced phase's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc does not report it.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// parentMain runs one workload, or all four, each in child processes,
// and prints the report; its last line is the JSON result.
func parentMain(name string, seed uint64, d time.Duration, traced bool, spansDir string) error {
	todo := specs
	reps := setupRuns
	if name != "" {
		s, err := specByName(name)
		if err != nil {
			return err
		}
		todo = []*spec{s}
		if traced {
			reps = 1 // setup_s is an end-to-end metric; a traced run does not report it
		}
	} else {
		traced = true
	}
	fmt.Println(stamp(seed))
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, s := range todo {
		o, err := runWorkload(s, seed, d, traced, reps, spansDir)
		if err != nil {
			return err
		}
		printOutcome(s, o, traced, reps)
		result.Attempted += o.Attempted
		result.Failed += o.Failed
		result.Correct = result.Correct && o.Failed == 0
		prefix := ""
		if name == "" {
			prefix = s.name + "/"
		}
		defs, values := endToEnd, o.E2E
		if traced && name != "" {
			defs, values = perLayer, o.Layers
		}
		for _, def := range defs {
			result.Metrics[prefix+def.name] = map[string]any{"value": values[def.name], "unit": def.unit}
		}
		if name == "" {
			for _, def := range perLayer {
				result.Metrics[prefix+def.name] = map[string]any{"value": o.Layers[def.name], "unit": def.unit}
			}
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload sets the workload up reps times, each in a fresh child,
// and runs the phases in the last one.
func runWorkload(s *spec, seed uint64, d time.Duration, traced bool, reps int, spansDir string) (*outcome, error) {
	// Bound the whole workload, so a hung request cannot hang the run:
	// set-ups, both phases, and the checks and replay take well under
	// two minutes plus three phase lengths.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute+3*d)
	defer cancel()
	var setups []float64
	var o *outcome
	for i := 0; i < reps; i++ {
		last := i == reps-1
		secs, got, err := spawn(ctx, s, seed, d, traced, !last, spansDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		o = got
	}
	o.E2E["setup_s"] = median(setups)
	return o, nil
}

// spawn runs one child and returns its set-up time — from process
// start to its ready line — and, unless it only set up, its outcome.
func spawn(ctx context.Context, s *spec, seed uint64, d time.Duration, traced, setupOnly bool, spansDir string) (float64, *outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	mode, trace := "run", "0"
	if setupOnly {
		mode = "setup"
	}
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", s.name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(d.Seconds(), 'g', -1, 64),
		"-trace", trace, "-spans", spansDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var setup float64
	var o *outcome
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if sc.Text() == readyLine {
			setup = time.Since(start).Seconds()
			continue
		}
		o = &outcome{}
		if err := json.Unmarshal(sc.Bytes(), o); err != nil {
			o = nil
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child: %w", s.name, err)
	}
	switch {
	case setup == 0:
		return 0, nil, fmt.Errorf("%s child never became ready", s.name)
	case o == nil && !setupOnly:
		return 0, nil, fmt.Errorf("%s child reported no outcome", s.name)
	}
	return setup, o, nil
}

// stamp identifies the run: seed, toolchain, parallelism and revision.
func stamp(seed uint64) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				rev = kv.Value
			}
		}
	}
	return fmt.Sprintf("obdrel benchmark  seed=%d  %s  GOMAXPROCS=%d  nproc=%d  rev=%s",
		seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), rev)
}

// printOutcome prints one workload's metrics with their units.
func printOutcome(s *spec, o *outcome, traced bool, reps int) {
	fmt.Printf("\n== %s  (%d closed-loop client(s)) — %s\n", s.name, s.clients, s.why)
	fmt.Printf("  ops: %d attempted, %d failed\n", o.Attempted, o.Failed)
	for _, e := range o.Errors {
		fmt.Println("  failure:", e)
	}
	for _, def := range endToEnd {
		note := ""
		switch def.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d child set-up(s)", reps)
		case "tail_ms":
			n, r := o.Samples, rank(o.Samples, s.tail)
			note = fmt.Sprintf("p%g of %d samples, %d beyond", s.tail*100, n, n-r)
			if !supported(n, s.tail) {
				note += fmt.Sprintf(" — fewer than %d, read with care", minBeyond)
			}
		case "p50_ms":
			note = fmt.Sprintf("%d samples", o.Samples)
		}
		if v, ok := o.E2E[def.name]; ok {
			fmt.Printf("  %-14s %12.4f %-6s %s\n", def.name, v, def.unit, note)
		}
	}
	if !traced {
		return
	}
	fmt.Println("  per layer, traced phase (rows are self time per op; they sum to client_us_mean):")
	for _, def := range perLayer {
		fmt.Printf("    %-34s %14.4f %s\n", def.name, o.Layers[def.name], def.unit)
	}
}

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the service sees, from the
// untraced phase.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// engineMethods are the engines the workloads query.
var engineMethods = []string{"st_fast", "hybrid", "guard"}

// perLayer are the per-layer metrics of the traced phase; every
// workload reports all of them, 0 where it does not exercise a layer.
var perLayer = func() []metricDef {
	defs := []metricDef{{"client_us_mean", "us", "lower"}}
	for _, r := range rowNames {
		defs = append(defs, metricDef{rowMetric(r), "us", "lower"})
	}
	for _, st := range obdrel.StageNames() {
		defs = append(defs,
			metricDef{"pipeline." + st + ".build_ms_mean", "ms", "lower"},
			metricDef{"pipeline." + st + ".builds_per_op", "count", "lower"})
	}
	defs = append(defs,
		metricDef{"pipeline.local_builds_per_op", "count", "lower"},
		metricDef{"pipeline.peer_hits_per_op", "count", "higher"},
		metricDef{"registry.builds_per_op", "count", "lower"},
		metricDef{"registry.build_ms_p50", "ms", "lower"},
		metricDef{"registry.hit_ratio", "ratio", "higher"},
		metricDef{"server.handler_us_p50", "us", "lower"},
		metricDef{"server.handler_us_p99", "us", "lower"},
		metricDef{"server.rejected_per_op", "count", "lower"})
	for _, m := range engineMethods {
		defs = append(defs,
			metricDef{"engine." + m + ".build_ms_p50", "ms", "lower"},
			metricDef{"engine." + m + ".lifetime_us_p50", "us", "lower"},
			metricDef{"engine." + m + ".failureprob_us_p50", "us", "lower"})
	}
	defs = append(defs,
		metricDef{"batch.server_elapsed_ms_p50", "ms", "lower"},
		metricDef{"batch.groups_per_op", "count", "lower"},
		metricDef{"batch.reused_ratio", "ratio", "higher"},
		metricDef{"batch.shared_ratio", "ratio", "higher"},
		metricDef{"batch.eval_cpu_ms_mean", "ms", "lower"},
		metricDef{"artifact.serve_us_p50", "us", "lower"},
		metricDef{"artifact.serve_us_p99", "us", "lower"},
		metricDef{"artifact.fetches_per_op", "count", "lower"},
		metricDef{"artifact.bytes_per_op", "B", "lower"})
	for _, st := range codecStages {
		defs = append(defs,
			metricDef{"artifact.decode_us." + st, "us", "lower"},
			metricDef{"artifact.encode_us." + st, "us", "lower"})
	}
	return append(defs,
		metricDef{"proc.alloc_bytes_per_op", "B", "lower"},
		metricDef{"proc.gc_pause_ms_per_s", "ms/s", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"})
}()
