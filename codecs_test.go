package obdrel

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"obdrel/internal/artifact"
	"obdrel/internal/blod"
	"obdrel/internal/core"
	"obdrel/internal/grid"
	"obdrel/internal/integrate"
	"obdrel/internal/obd"
	"obdrel/internal/pipeline"
	"obdrel/internal/thermal"
)

// TestEveryStageHasCodec is the reflection-style registration guard:
// every stage the graph can cache must have an artifact codec, so a
// newly added stage cannot silently become non-spillable (it would
// never reach the disk tier or serve peers, and a follower would
// quietly rebuild it). StageNames() is the authoritative roster of
// construction stages — the fingerprint-sensitivity test already pins
// that roster against the stage graph — and StageHybrid, which engines
// resolve lazily, and StageThermalOp, which thermal builds resolve
// lazily, are named explicitly.
func TestEveryStageHasCodec(t *testing.T) {
	for _, stage := range append(StageNames(), StageHybrid, StageThermalOp) {
		if _, ok := artifact.Lookup(stage); !ok {
			t.Errorf("stage %q has no artifact codec: register one in codecs.go", stage)
		}
	}
}

// TestStageCodecsRoundTripBitIdentical builds every stage artifact
// for a real design (with the extrinsic model enabled, so optional
// fields are exercised) and gates, for each stage:
//
//  1. Decode(Encode(v)) is deeply equal to v — every float compared
//     by bit pattern via reflection (reflect.DeepEqual on float64
//     uses ==; the re-encode check below closes the -0.0/NaN gap);
//  2. Encode(Decode(Encode(v))) is byte-identical to Encode(v) —
//     the serialized form is a fixed point, which is what makes the
//     sealed checksum a content address.
func TestStageCodecsRoundTripBitIdentical(t *testing.T) {
	d := C1()
	cfg := quickConfig()
	cfg.Extrinsic = obd.DefaultExtrinsic()
	cfg.WaferPattern = &grid.WaferPattern{DieX: 0.3, DieY: -0.2, DieSpan: 0.05, Bowl: 0.4, SlantX: 0.1, SlantY: -0.05}
	cfg.HybridNL, cfg.HybridNB = 24, 24
	cache := pipeline.NewCache(8)
	an, err := NewAnalyzerCtxIn(context.Background(), cache, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Prepare(MethodHybrid); err != nil {
		t.Fatal(err)
	}
	keys := stageKeys(d.Fingerprint(), d.W, d.H, cfg)
	keys[StageHybrid] = hybridTableKey(keys[StageChip], cfg)
	keys[StageThermalOp] = thermalOpKey(keys[StageFloorplan], cfg)
	for _, stage := range append(StageNames(), StageHybrid, StageThermalOp) {
		key := keys[stage]
		v, ok := cache.Peek(stage, key)
		if !ok {
			t.Fatalf("stage %s: no cached artifact under %s", stage, key)
		}
		sealed, err := artifact.Encode(stage, key, v)
		if err != nil {
			t.Fatalf("stage %s: encode: %v", stage, err)
		}
		v2, err := artifact.Decode(stage, key, sealed)
		if err != nil {
			t.Fatalf("stage %s: decode: %v", stage, err)
		}
		if got, want := reflect.TypeOf(v2), reflect.TypeOf(v); got != want {
			t.Fatalf("stage %s: decoded type %v, want %v", stage, got, want)
		}
		if !reflect.DeepEqual(v2, v) {
			t.Errorf("stage %s: decoded artifact differs from original", stage)
		}
		sealed2, err := artifact.Encode(stage, key, v2)
		if err != nil {
			t.Fatalf("stage %s: re-encode: %v", stage, err)
		}
		if string(sealed2) != string(sealed) {
			t.Errorf("stage %s: re-encoded container is not byte-identical (%d vs %d bytes)",
				stage, len(sealed2), len(sealed))
		}
	}
}

// TestAnalyzerFromDecodedArtifactsBitIdentical is the end-to-end
// bit-identity gate behind peer cache-fill: an analyzer assembled
// entirely from decoded artifacts (the follower's view) must answer
// exactly — ±0 ULP — like one assembled from the originals.
func TestAnalyzerFromDecodedArtifactsBitIdentical(t *testing.T) {
	d := C1()
	cfg := quickConfig()
	ctx := context.Background()

	// Leader: build everything into cacheA, then move every artifact
	// through the wire format into cacheB.
	cacheA := pipeline.NewCache(8)
	a1, err := NewAnalyzerCtxIn(ctx, cacheA, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := stageKeys(d.Fingerprint(), d.W, d.H, cfg)
	cacheB := pipeline.NewCache(8)
	dir := t.TempDir()
	cacheB.SetTiers(pipeline.Tiers{Dir: dir})
	for _, stage := range StageNames() {
		v, ok := cacheA.Peek(stage, keys[stage])
		if !ok {
			t.Fatalf("stage %s missing from leader cache", stage)
		}
		sealed, err := artifact.Encode(stage, keys[stage], v)
		if err != nil {
			t.Fatal(err)
		}
		if err := artifact.WriteFile(dir, stage, keys[stage], sealed); err != nil {
			t.Fatal(err)
		}
	}

	// Follower: every stage resolves from the disk tier; the build
	// closures must never run.
	a2, err := NewAnalyzerCtxIn(ctx, cacheB, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range StageNames() {
		if st := cacheB.Stat(stage); st.Builds != 0 || st.DiskHits != 1 {
			t.Errorf("stage %s: builds=%d diskHits=%d, want 0/1", stage, st.Builds, st.DiskHits)
		}
	}
	if st := cacheB.Stat(StageThermalOp); st.Builds != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("follower resolved the thermal operator: builds=%d lookups=%d, want none", st.Builds, st.Hits+st.Misses)
	}

	for _, tt := range []float64{1, 5, 11.3} {
		p1, err := a1.FailureProb(tt, MethodStFast)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := a2.FailureProb(tt, MethodStFast)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Errorf("FailureProb(%v): leader %v, follower %v", tt, p1, p2)
		}
	}
	l1, err := a1.LifetimePPM(100, MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := a2.LifetimePPM(100, MethodStFast)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Errorf("LifetimePPM: leader %v, follower %v", l1, l2)
	}
}

// FuzzHybridTablesDecode feeds the hybrid codec the payloads a disk
// file or a peer could hand it. Decode must never panic, must reject
// malformed input with an error and no artifact, and must accept only
// payloads that make valid tables, in canonical form: re-encoding an
// accepted artifact gives the same bytes, so the sealed checksum stays
// a content address.
func FuzzHybridTablesDecode(f *testing.F) {
	codec, ok := artifact.Lookup(StageHybrid)
	if !ok {
		f.Fatal("no hybrid codec")
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := codec.Decode(payload)
		if err != nil {
			if v != nil {
				t.Fatalf("rejected payload (%v) returned an artifact", err)
			}
			return
		}
		ht := v.(*hybridTables)
		for k, blk := range ht.blocks {
			if _, err := integrate.NewTable2DFromData(ht.ls, ht.bs, blk); err != nil {
				t.Fatalf("accepted payload's block %d is not a table: %v", k, err)
			}
		}
		again, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoding an accepted payload gave %d different bytes from %d", len(again), len(payload))
		}
	})
}

// FuzzPCADecode feeds arbitrary payloads to the pca codec. A PCA
// artifact arrives from disk or a peer and feeds st_MC and MC sampling
// directly, so decode must never panic, a rejection returns no
// artifact, and an accepted payload re-encodes to the same bytes and
// holds only finite, non-negative eigenvalues and variances and finite
// loadings. The seed corpus under testdata/fuzz/FuzzPCADecode holds a
// valid 3×3 four-block PCA, a valid quad-tree PCA, and hostile
// variants of them.
func FuzzPCADecode(f *testing.F) {
	codec, ok := artifact.Lookup(StagePCA)
	if !ok {
		f.Fatal("no pca codec")
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := codec.Decode(payload)
		if err != nil {
			if v != nil {
				t.Fatalf("rejected payload (%v) returned an artifact", err)
			}
			return
		}
		p := v.(*grid.PCA)
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if !finite(p.TotalVariance) || p.TotalVariance < 0 || !finite(p.CapturedVariance) || p.CapturedVariance < 0 {
			t.Fatalf("accepted payload's variances are total=%v captured=%v", p.TotalVariance, p.CapturedVariance)
		}
		for b, blk := range p.Blocks {
			for c, x := range blk.Eigenvalues {
				if !finite(x) || x < 0 {
					t.Fatalf("accepted payload's block %d eigenvalue %d is %v", b, c, x)
				}
			}
			for i, x := range blk.Loadings {
				if !finite(x) {
					t.Fatalf("accepted payload's block %d loading %d is %v", b, i, x)
				}
			}
		}
		again, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoding an accepted payload gave %d different bytes from %d", len(again), len(payload))
		}
	})
}

// FuzzThermalDecode feeds arbitrary payloads to the thermal codec
// (operator false) and the thermal operator codec (operator true).
// Both artifacts arrive from disk or a peer and feed the weibull stage
// and the coupled solve directly, so decode must never panic, a
// rejection returns an error and no artifact, and an accepted payload
// re-encodes to the same bytes with a consistent shape: a field of
// Nx·Ny cells and equal per-block lengths, or an operator that passes
// Validate. The seed corpus under testdata/fuzz/FuzzThermalDecode
// holds a valid artifact of each kind at a 3×2 solver grid and hostile
// variants of them.
func FuzzThermalDecode(f *testing.F) {
	stages := map[bool]string{false: StageThermal, true: StageThermalOp}
	f.Fuzz(func(t *testing.T, operator bool, payload []byte) {
		codec, ok := artifact.Lookup(stages[operator])
		if !ok {
			t.Fatalf("no %s codec", stages[operator])
		}
		v, err := codec.Decode(payload)
		if err != nil {
			if v != nil {
				t.Fatalf("rejected payload (%v) returned an artifact", err)
			}
			return
		}
		switch a := v.(type) {
		case *thermal.CoupledResult:
			if f := a.Field; f != nil && f.Nx*f.Ny != len(f.Temps) {
				t.Fatalf("accepted field is %dx%d with %d cells", f.Nx, f.Ny, len(f.Temps))
			}
			if n := len(a.BlockMean); len(a.BlockMax) != n || len(a.Powers) != n {
				t.Fatalf("accepted per-block lengths %d/%d/%d", n, len(a.BlockMax), len(a.Powers))
			}
		case *thermal.Operator:
			if err := a.Validate(); err != nil {
				t.Fatalf("accepted operator does not validate: %v", err)
			}
		default:
			t.Fatalf("decoded %T", v)
		}
		again, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoding an accepted payload gave %d different bytes from %d", len(again), len(payload))
		}
	})
}

// fuzzStages are the codecs FuzzStageDecode reaches, indexed by its
// stage argument modulo their count.
var fuzzStages = []string{StageFloorplan, StagePowerMap, StageCovariance, StageBLOD, StageWeibull, StageChip}

// FuzzStageDecode feeds arbitrary payloads to the floorplan, powermap,
// covariance, blod, weibull and chip codecs (stage selects one, modulo
// six). Each artifact arrives from disk or a peer, so decode must never
// panic, a rejection returns an error and no artifact, an accepted
// payload re-encodes to the same bytes (the sealed checksum stays a
// content address), and an accepted grid model, alone or inside a blod
// characterization or a chip, passes Validate. The seed corpus under
// testdata/fuzz/FuzzStageDecode holds a valid artifact of each stage at
// a 4×4 grid and the hostile payloads of
// TestStageCodecsRejectNonCanonicalPayloads.
func FuzzStageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, stage uint8, payload []byte) {
		name := fuzzStages[int(stage)%len(fuzzStages)]
		codec, ok := artifact.Lookup(name)
		if !ok {
			t.Fatalf("no %s codec", name)
		}
		v, err := codec.Decode(payload)
		if err != nil {
			if v != nil {
				t.Fatalf("%s: rejected payload (%v) returned an artifact", name, err)
			}
			return
		}
		var m *grid.Model
		switch a := v.(type) {
		case *grid.Model:
			m = a
		case *blod.Characterization:
			if a != nil {
				m = a.Model
			}
		case *core.Chip:
			m = a.Model
		}
		if m != nil {
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: accepted grid model does not validate: %v", name, err)
			}
		}
		again, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("%s: accepted artifact does not re-encode: %v", name, err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("%s: re-encoding an accepted payload gave %d different bytes from %d", name, len(again), len(payload))
		}
	})
}

// hostilePayloads are checksum-valid payloads no encoder produces: a
// covariance model whose grid is not positive (the PCA build indexes
// by it), and powermap and weibull payloads that would decode to a
// model whose encoding differs from the payload.
func hostilePayloads(t testing.TB) map[string]struct {
	stage   string
	payload []byte
} {
	model := func(nx, ny int) []byte {
		m, err := grid.NewModel(2.2, 1, 1, 4, 4, 0.02, 0.01, 0.01, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		m.Nx, m.Ny = nx, ny
		var w artifact.Writer
		encGridModel(&w, m)
		return w.Bytes()
	}
	power := func(hasMap bool, classes ...int) []byte {
		var w artifact.Writer
		w.Bool(true)
		for _, x := range []float64{1.2, 0.05, 0.02, 300} {
			w.F64(x)
		}
		w.Bool(hasMap)
		w.Int(len(classes))
		for _, c := range classes {
			w.Int(c)
			w.F64(float64(c + 1))
		}
		return w.Bytes()
	}
	// The weibull payload below claims absent device parameters yet
	// counts one; the "entry" bytes are the rest of a valid payload.
	var wb artifact.Writer
	wb.Bool(false)
	wb.Int(1)
	wb.Bool(false) // no extrinsic population
	wb.Int(1)      // one block info
	wb.String("b")
	for _, x := range []float64{60, 70, 1, 1e9, 0.5} {
		wb.F64(x)
	}
	wb.Int(10)
	return map[string]struct {
		stage   string
		payload []byte
	}{
		"covariance_negative_nx":  {StageCovariance, model(-5, 4)},
		"covariance_zero_nx":      {StageCovariance, model(0, 4)},
		"covariance_zero_ny":      {StageCovariance, model(4, 0)},
		"powermap_duplicate":      {StagePowerMap, power(true, 1, 1)},
		"powermap_unsorted":       {StagePowerMap, power(true, 2, 1)},
		"powermap_entries_no_map": {StagePowerMap, power(false, 1)},
		"weibull_absent_params":   {StageWeibull, wb.Bytes()},
	}
}

// TestStageCodecsRejectNonCanonicalPayloads: each hostile payload must
// fail decode with no artifact, so a corrupt but checksum-valid disk
// file or peer answer rebuilds instead of crashing a PCA build or
// breaking the checksum-as-content-address invariant.
func TestStageCodecsRejectNonCanonicalPayloads(t *testing.T) {
	for name, c := range hostilePayloads(t) {
		codec, ok := artifact.Lookup(c.stage)
		if !ok {
			t.Fatalf("no %s codec", c.stage)
		}
		if v, err := codec.Decode(c.payload); err == nil || v != nil {
			t.Errorf("%s: decode = (%v, %v), want an error and no artifact", name, v, err)
		}
	}
}
