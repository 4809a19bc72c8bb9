package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSeedFixesRequests(t *testing.T) {
	for _, s := range specs {
		list := func(seed uint64) []string {
			w := s.start(s, seed, &tracer{})
			out := make([]string, 60)
			for i := range out {
				out[i] = w.request(i)
			}
			return out
		}
		a, b, c := list(7), list(7), list(8)
		same, differ := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differ = differ || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: seed 7 gave two different request lists", s.name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", s.name)
		}
	}
}

func TestColdExploreNeverRepeatsRho(t *testing.T) {
	c := newColdExplore(specs[2], 3, &tracer{}).(*coldExplore)
	seen := map[float64]bool{0.5: true} // the set-up's paper value
	for seq := 0; seq < 5000; seq++ {
		rho := c.query(seq).a.rho
		if seen[rho] {
			t.Fatalf("op %d repeats rho_dist %v", seq, rho)
		}
		seen[rho] = true
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.75, 8}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("p%g = %v, want %v", c.q*100, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
	// p99 keeps 10 samples beyond it from 1000 samples on.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {40, 0.75, true}, {39, 0.75, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if tailOrZero(xs, 0.99) != 0 {
		t.Error("an unsupported tail is not reported as 0")
	}
}

func TestSelfTimesClipAndSum(t *testing.T) {
	at := func(name string, op int, start, end int64, attrs map[string]float64) span {
		return span{Name: name, Op: op, Start: start * 1000, End: end * 1000, Attrs: attrs}
	}
	spans := []span{
		// Op 1: a build with a 30 µs pca stage and a 10 µs owner serve
		// inside it; 5 µs of engine.
		at("client", 1, 0, 100, nil),
		at("server", 1, 10, 90, nil),
		at("registry.build", -1, 20, 70, map[string]float64{"pca.build_ns": 30e3}),
		at("artifact.serve", -1, 40, 50, nil),
		// Op 2: the replayed engine time outruns the server span, so the
		// server's self time clips at 0 and the overshoot is unattributed.
		at("client", 2, 200, 260, nil),
		at("server", 2, 205, 255, nil),
	}
	engine := map[int]time.Duration{1: 5 * time.Microsecond, 2: 70 * time.Microsecond}
	rows, n := selfTimes(spans, engine)
	if n != 2 {
		t.Fatalf("attributed %d ops, want 2", n)
	}
	want := map[string]float64{
		"http": (20 + 10) / 2.0, "server": (80 - 50 - 5) / 2.0, "registry": (50 - 30 - 10) / 2.0,
		"artifact": 10 / 2.0, "pipeline.pca": 30 / 2.0, "engine": (5 + 70) / 2.0, "unattributed": -20 / 2.0,
	}
	sum := 0.0
	for _, r := range rowNames {
		sum += rows[r]
		if math.Abs(rows[r]-want[r]) > 1e-9 {
			t.Errorf("%s = %v µs, want %v", r, rows[r], want[r])
		}
	}
	if client := (100 + 60) / 2.0; math.Abs(sum-client) > 1e-9 {
		t.Errorf("rows sum to %v µs, want the client mean %v", sum, client)
	}
}

func TestCover(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: -5, End: 10}, {Start: 5, End: 20}, {Start: 50, End: 60}, {Start: 95, End: 130}}
	if got := cover(parent, kids); got != 20+10+5 {
		t.Errorf("cover = %d, want 35", got)
	}
}

// TestSmoke runs every workload for about a second on an 8×8 grid with
// 16×16 hybrid tables: set-up, the untraced phase, its answer check,
// the traced phase and the replay, all in this process.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	ctx := context.Background()
	for _, base := range specs {
		s := *base
		s.grid, s.table = 8, 16
		t.Run(s.name, func(t *testing.T) {
			tr := &tracer{}
			w := s.start(&s, 1, tr)
			defer w.close()
			if err := w.setup(ctx); err != nil {
				t.Fatal(err)
			}
			o, spans, err := measure(ctx, &s, w, tr, 1, 600*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if o.Attempted == 0 || o.Failed != 0 {
				t.Fatalf("%d attempted, %d failed: %v", o.Attempted, o.Failed, o.Errors)
			}
			if len(spans) == 0 {
				t.Fatal("traced phase recorded no spans")
			}
			for _, def := range perLayer {
				if _, ok := o.Layers[def.name]; !ok {
					t.Errorf("per-layer metric %s missing", def.name)
				}
			}
			sum := 0.0
			for _, r := range rowNames {
				sum += o.Layers[rowMetric(r)]
			}
			if c := o.Layers["client_us_mean"]; math.Abs(sum-c) > 1e-6*c {
				t.Errorf("rows sum to %v µs, client mean %v", sum, c)
			}
			switch s.name {
			case "cold-explore":
				if got := o.Layers["pipeline.pca.builds_per_op"]; got != 1 {
					t.Errorf("pca builds per op = %v, want 1", got)
				}
			case "peer-fill":
				if got := o.Layers["pipeline.local_builds_per_op"]; got != 0 {
					t.Errorf("joiner local builds per op = %v, want 0", got)
				}
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metrics
// this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }          `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), program %q (%s)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
