package obdrel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"obdrel/internal/artifact"
	"obdrel/internal/core"
	"obdrel/internal/grid"
	"obdrel/internal/linalg"
	"obdrel/internal/pipeline"
)

// densePCA is the dense factorization the block PCA replaced, kept as
// a test oracle: one EigenSym of the full n×n covariance under the
// keep rule at keepFraction 1, stored as a single identity-basis block.
func densePCA(t *testing.T, m *grid.Model) *grid.PCA {
	t.Helper()
	vals, vecs, err := linalg.EigenSymCtx(context.Background(), m.Covariance())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	k, captured := 0, 0.0
	for k < len(vals) && vals[k] > 1e-12*vals[0] {
		captured += vals[k]
		k++
		if captured >= total-1e-15*total {
			break
		}
	}
	n := len(vals)
	loadings := make([]float64, n*k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			loadings[i*k+j] = vecs.At(i, j) * math.Sqrt(vals[j])
		}
	}
	p, err := grid.NewPCA(m.Nx, m.Ny, []grid.PCABlock{{Eigenvalues: vals[:k], Loadings: loadings}}, total, captured)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSamplingEnginesMatchDenseOracle is Table III for the two engines
// that read the PCA: st_MC and MC lifetimes from the block PCA stay
// within a stated relative tolerance of the same engines fed the dense
// oracle, at the paper's 25×25 grid, on C1–C6 at 1 and 10 per
// million, with Table III's sample counts except MC at 300 chips to
// bound the test's run time. Both sides draw the same seeded components
// but project them through different (equally valid) eigenbases —
// signs and degenerate pairs may differ — so the answers differ by
// sampling noise, measured at ≤0.1%; the gate is 0.5% for both engines.
func TestSamplingEnginesMatchDenseOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("dense 625×625 eigensolve and twelve sampling engines")
	}
	const tol = 0.005
	oracles := map[string]*grid.PCA{}
	for _, d := range Benchmarks() {
		an, err := NewAnalyzerCtxIn(context.Background(), pipeline.NewCache(8), d, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		block, err := an.pca(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		dieKey := fmt.Sprintf("%gx%g", d.W, d.H)
		if oracles[dieKey] == nil {
			model, err := DefaultConfig().variationModel(d.W, d.H)
			if err != nil {
				t.Fatal(err)
			}
			oracles[dieKey] = densePCA(t, model)
		}
		dense := oracles[dieKey]
		cfg := an.cfg
		for _, eng := range []struct {
			name  string
			build func(*grid.PCA) (core.Engine, error)
		}{
			{"st_MC", func(p *grid.PCA) (core.Engine, error) {
				return core.NewStMC(an.chip, p, core.StMCOptions{Samples: cfg.StMCSamples, Bins: cfg.StMCBins, Seed: cfg.Seed})
			}},
			{"MC", func(p *grid.PCA) (core.Engine, error) {
				return core.NewMonteCarlo(an.chip, p, core.MCOptions{Samples: 300, Seed: cfg.Seed})
			}},
		} {
			eb, err := eng.build(block)
			if err != nil {
				t.Fatal(err)
			}
			ed, err := eng.build(dense)
			if err != nil {
				t.Fatal(err)
			}
			for _, ppm := range []float64{1, 10} {
				tb, err := core.LifetimePPM(eb, an.chip, ppm)
				if err != nil {
					t.Fatal(err)
				}
				td, err := core.LifetimePPM(ed, an.chip, ppm)
				if err != nil {
					t.Fatal(err)
				}
				rel := math.Abs(tb-td) / td
				t.Logf("%s %s %g ppm: block %.6g h, dense %.6g h, %.3f%%", d.Name, eng.name, ppm, tb, td, 100*rel)
				if rel > tol {
					t.Errorf("%s %s at %g ppm: block PCA %.6g h vs dense oracle %.6g h (%.2f%% > %.1f%%)",
						d.Name, eng.name, ppm, tb, td, 100*rel, 100*tol)
				}
			}
		}
	}
}

// TestPCACodecBlockForm: the pca artifact carries the block layout —
// four reflection blocks with unequal kept columns, or the quad-tree's
// single identity block — and decodes to a factor that is bit-identical
// field by field and in the shifts it produces.
func TestPCACodecBlockForm(t *testing.T) {
	exp, err := grid.NewModel(2.2, 1.3, 0.8, 7, 6, 0.02, 0.015, 0.01, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	qt := *exp
	qt.Structure = grid.StructQuadTree
	for _, m := range []*grid.Model{exp, &qt} {
		p, err := m.ComputePCA(0.97)
		if err != nil {
			t.Fatal(err)
		}
		key := fp16(StagePCA, m.Structure.String())
		sealed, err := artifact.Encode(StagePCA, key, p)
		if err != nil {
			t.Fatal(err)
		}
		v, err := artifact.Decode(StagePCA, key, sealed)
		if err != nil {
			t.Fatal(err)
		}
		q := v.(*grid.PCA)
		if q.Nx != p.Nx || q.Ny != p.Ny || q.K != p.K || len(q.Blocks) != len(p.Blocks) ||
			!sameBits(q.Eigenvalues, p.Eigenvalues) ||
			!sameBits([]float64{q.TotalVariance, q.CapturedVariance}, []float64{p.TotalVariance, p.CapturedVariance}) {
			t.Fatalf("%v: decoded header differs", m.Structure)
		}
		for b := range p.Blocks {
			if !sameBits(q.Blocks[b].Eigenvalues, p.Blocks[b].Eigenvalues) || !sameBits(q.Blocks[b].Loadings, p.Blocks[b].Loadings) {
				t.Fatalf("%v: block %d differs after round trip", m.Structure, b)
			}
		}
		z := p.SampleComponents(rand.New(rand.NewSource(3)))
		if !sameBits(q.GridShifts(z), p.GridShifts(z)) {
			t.Fatalf("%v: decoded factor maps components differently", m.Structure)
		}
		// Every truncation of the payload is rejected, never a panic.
		codec, _ := artifact.Lookup(StagePCA)
		payload, err := codec.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut += 1 + len(payload)/97 {
			if _, err := codec.Decode(payload[:cut]); err == nil {
				t.Fatalf("%v: payload truncated to %d bytes decoded", m.Structure, cut)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPCAMemoryOwnedByStageCache: analyzers no longer pin their PCA,
// so however many distinct-ρ analyzers stay alive, the pca stage holds
// at most StageByteBudget bytes — and an analyzer whose PCA was
// evicted rebuilds it deterministically, answering st_MC bit-identically.
func TestPCAMemoryOwnedByStageCache(t *testing.T) {
	if testing.Short() {
		t.Skip("forty 25×25 PCA builds")
	}
	cache := pipeline.NewCache(64)
	cfgAt := func(rho float64) *Config {
		cfg := DefaultConfig()
		cfg.RhoDist = rho
		cfg.StMCSamples = 500
		return cfg
	}
	first, err := NewAnalyzerCtxIn(context.Background(), cache, C1(), cfgAt(0.25))
	if err != nil {
		t.Fatal(err)
	}
	live := []*Analyzer{first}
	for i := 1; i < 40; i++ {
		an, err := NewAnalyzerCtxIn(context.Background(), cache, C1(), cfgAt(0.25+0.0125*float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, an)
		if st := cache.Stat(StagePCA); st.Bytes > pipeline.StageByteBudget {
			t.Fatalf("after %d analyzers the pca stage holds %d bytes > budget %d", i+1, st.Bytes, pipeline.StageByteBudget)
		}
	}
	st := cache.Stat(StagePCA)
	if st.Builds != 40 || st.Entries >= 40 {
		t.Fatalf("pca stage: %d builds, %d entries; want 40 builds and evictions", st.Builds, st.Entries)
	}
	if _, held := cache.Peek(StagePCA, StageFingerprints(C1(), cfgAt(0.25))[StagePCA]); held {
		t.Fatal("the first analyzer's PCA survived 39 newer ones; the test no longer exercises eviction")
	}
	got, err := first.LifetimePPM(10, MethodStMC)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Stat(StagePCA).Builds; n != 41 {
		t.Fatalf("st_MC on the evicted analyzer made %d pca builds in total, want 41", n)
	}
	fresh, err := NewAnalyzerCtxIn(context.Background(), pipeline.NewCache(8), C1(), cfgAt(0.25))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.LifetimePPM(10, MethodStMC)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("st_MC after eviction = %v, fresh analyzer %v", got, want)
	}
	runtime.KeepAlive(live)
}
