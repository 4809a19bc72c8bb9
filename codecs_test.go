package obdrel

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"obdrel/internal/artifact"
	"obdrel/internal/blod"
	"obdrel/internal/core"
	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/integrate"
	"obdrel/internal/obd"
	"obdrel/internal/pipeline"
	"obdrel/internal/power"
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
// lazily, are named explicitly. Every codec must also be one
// FuzzStageDecode reaches.
func TestEveryStageHasCodec(t *testing.T) {
	for _, stage := range append(StageNames(), StageHybrid, StageThermalOp) {
		if _, ok := artifact.Lookup(stage); !ok {
			t.Errorf("stage %q has no artifact codec: register one in codecs.go", stage)
		}
		if !slices.Contains(fuzzStages, stage) {
			t.Errorf("stage %q is not in fuzzStages: append it, with seeds", stage)
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

// TestSealedBitErrorsRejected: artifact.Open rejects a sealed
// container of each stage after every single-bit flip anywhere in it,
// and after a burst at every bit offset: a seeded random length from 2
// to 32 bits, flipping its first and last bit and a random choice of
// the bits between. Header flips fail the header checks; payload flips
// fail the CRC-32C, which detects every burst of up to 32 bits. The
// config shrinks the grids so the containers stay a few KiB and the
// sweep is quick.
func TestSealedBitErrorsRejected(t *testing.T) {
	d := C1()
	cfg := quickConfig()
	cfg.GridNx, cfg.GridNy = 6, 6
	cfg.Thermal = thermal.DefaultSolver()
	cfg.Thermal.Nx, cfg.Thermal.Ny = 8, 8
	cfg.HybridNL, cfg.HybridNB = 8, 8
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
	rnd := rand.New(rand.NewPCG(32, 0x1EDC6F41))
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
		// flipped applies burst, opens the container, and undoes it.
		flipped := func(burst []int) error {
			for _, b := range burst {
				sealed[b/8] ^= 1 << (b % 8)
			}
			_, err := artifact.Open(sealed, stage, key)
			for _, b := range burst {
				sealed[b/8] ^= 1 << (b % 8)
			}
			return err
		}
		bits := 8 * len(sealed)
		for at := 0; at < bits; at++ {
			if flipped([]int{at}) == nil {
				t.Fatalf("stage %s: Open accepted a flip of bit %d", stage, at)
			}
			n := 2 + rnd.IntN(31)
			if at+n > bits {
				continue
			}
			burst := []int{at}
			for b := at + 1; b < at+n-1; b++ {
				if rnd.IntN(2) == 1 {
					burst = append(burst, b)
				}
			}
			burst = append(burst, at+n-1)
			if flipped(burst) == nil {
				t.Fatalf("stage %s: Open accepted a %d-bit burst flipping bits %v", stage, n, burst)
			}
		}
		if _, err := artifact.Open(sealed, stage, key); err != nil {
			t.Fatalf("stage %s: the restored container is rejected: %v", stage, err)
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

	// Follower: every stage it resolves comes from the disk tier; the
	// build closures must never run. Construction loads the chip and the
	// PCA. BLOD is an input of the chip build alone and covariance of
	// the PCA and BLOD builds, so a follower that loads both never looks
	// either up. Thermal and weibull load once a report reads them.
	a2, err := NewAnalyzerCtxIn(ctx, cacheB, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := func(when string, read bool) {
		t.Helper()
		for _, stage := range StageNames() {
			st := cacheB.Stat(stage)
			unread := (stage == StageThermal || stage == StageWeibull) && !read
			if stage == StageBLOD || stage == StageCovariance || unread {
				if st.Builds != 0 || st.Hits+st.Misses != 0 {
					t.Errorf("%s: follower resolved %s: builds=%d lookups=%d, want none", when, stage, st.Builds, st.Hits+st.Misses)
				}
				continue
			}
			if st.Builds != 0 || st.DiskHits != 1 {
				t.Errorf("%s: stage %s: builds=%d diskHits=%d, want 0/1", when, stage, st.Builds, st.DiskHits)
			}
		}
	}
	loads("construction", false)
	if got, want := a2.Blocks(), a1.Blocks(); !reflect.DeepEqual(got, want) {
		t.Errorf("Blocks: leader %v, follower %v", want, got)
	}
	loads("Blocks", true)
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

// c6Artifacts resolves every stage artifact of C6 at DefaultConfig,
// hybrid tables included, into a cache, and returns it with the key of
// each stage.
func c6Artifacts(tb testing.TB) (*pipeline.Cache, map[string]string) {
	tb.Helper()
	d, cfg := C6(), DefaultConfig()
	cache := pipeline.NewCache(8)
	an, err := NewAnalyzerCtxIn(context.Background(), cache, d, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := an.Prepare(MethodHybrid); err != nil {
		tb.Fatal(err)
	}
	keys := stageKeys(d.Fingerprint(), d.W, d.H, cfg)
	keys[StageHybrid] = hybridTableKey(keys[StageChip], cfg)
	keys[StageThermalOp] = thermalOpKey(keys[StageFloorplan], cfg)
	return cache, keys
}

// encodeAllocCeiling holds each C6 encode to the allocations it
// makes: the Writer's growth as it appends the payload, plus the one
// exactly-sized container Seal copies it into. Every encode takes the
// same path, so the first and a repeat encode count alike. A serve of a
// kept container allocates nothing (sealedHitAllocCeiling).
var encodeAllocCeiling = map[string]float64{
	StageThermal: 7, StagePCA: 11, StageBLOD: 17, StageChip: 20,
}

const sealedHitAllocCeiling = 0

// TestArtifactEncodeAllocs holds re-encoding C6's thermal, pca, blod
// and chip artifacts to encodeAllocCeiling, and a Sealed that finds
// the container it kept to no allocation at all.
func TestArtifactEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cache, keys := c6Artifacts(t)
	for _, stage := range []string{StageThermal, StagePCA, StageBLOD, StageChip} {
		key := keys[stage]
		v, ok := cache.Peek(stage, key)
		if !ok {
			t.Fatalf("stage %s: no cached artifact", stage)
		}
		var sealed []byte
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if sealed, err = artifact.Encode(stage, key, v); err != nil {
				t.Fatal(err)
			}
		})
		if cap(sealed) != len(sealed) {
			t.Errorf("%s: container of %d bytes holds %d spare", stage, len(sealed), cap(sealed)-len(sealed))
		}
		t.Logf("%s Encode (%d bytes): %.0f allocs/op", stage, len(sealed), allocs)
		if allocs > encodeAllocCeiling[stage] {
			t.Errorf("%s Encode allocates %.0f/op, ceiling %.0f", stage, allocs, encodeAllocCeiling[stage])
		}
		if _, ok := cache.Sealed(stage, key); !ok {
			t.Fatalf("stage %s: Sealed missed", stage)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, ok := cache.Sealed(stage, key); !ok {
				t.Fatal("Sealed missed")
			}
		})
		if allocs > sealedHitAllocCeiling {
			t.Errorf("%s Sealed of a kept container allocates %.0f/op, ceiling %d", stage, allocs, sealedHitAllocCeiling)
		}
	}
}

// BenchmarkStageCodec encodes and decodes each registered stage's C6
// artifact (DefaultConfig, hybrid prepared) through the sealed
// container, reporting allocations and container bytes per op.
func BenchmarkStageCodec(b *testing.B) {
	cache, keys := c6Artifacts(b)
	for _, stage := range fuzzStages {
		key := keys[stage]
		v, ok := cache.Peek(stage, key)
		if !ok {
			b.Fatalf("stage %s: no cached artifact", stage)
		}
		sealed, err := artifact.Encode(stage, key, v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(stage+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(sealed)))
			for i := 0; i < b.N; i++ {
				if _, err := artifact.Encode(stage, key, v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(stage+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(sealed)))
			for i := 0; i < b.N; i++ {
				if _, err := artifact.Decode(stage, key, sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fuzzStages are the codecs FuzzStageDecode reaches, indexed by its
// stage argument modulo their count. A new codec is appended, so every
// seed keeps selecting the codec it was written for.
var fuzzStages = []string{
	StageFloorplan, StagePowerMap, StageCovariance, StageBLOD, StageWeibull, StageChip,
	StagePCA, StageThermal, StageThermalOp, StageHybrid,
}

// FuzzStageDecode feeds arbitrary payloads to every stage codec (stage
// selects one of fuzzStages, modulo their count). Each artifact arrives
// from disk or a peer, so decode must never panic, a rejection returns
// an error and no artifact, an accepted payload re-encodes to the same
// bytes (the sealed checksum stays a content address), and an accepted
// artifact holds checkStageArtifact's invariants. The seed corpus under
// testdata/fuzz/FuzzStageDecode holds a valid artifact of each stage
// (a 4×4 grid, a 3×3 four-block and a quad-tree PCA, a 3×2 thermal
// solver grid), the hostile payloads of
// TestStageCodecsRejectNonCanonicalPayloads, and hostile variants of
// the valid ones.
func FuzzStageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, stage uint8, payload []byte) {
		decodeStage(t, fuzzStages[int(stage)%len(fuzzStages)], payload)
	})
}

// FuzzPCADecode, FuzzThermalDecode (thermal, or thermalop when operator
// is set) and FuzzHybridTablesDecode run FuzzStageDecode's body on the
// codecs with the largest payloads alone, seeded with FuzzStageDecode's
// seeds for them, so a -fuzz run spends its whole budget mutating one
// layout rather than a tenth of it.
func FuzzPCADecode(f *testing.F) {
	forStageSeeds(f, func(_, _ string, payload []byte) { f.Add(payload) }, StagePCA)
	f.Fuzz(func(t *testing.T, payload []byte) { decodeStage(t, StagePCA, payload) })
}

func FuzzThermalDecode(f *testing.F) {
	forStageSeeds(f, func(_, name string, payload []byte) { f.Add(name == StageThermalOp, payload) },
		StageThermal, StageThermalOp)
	f.Fuzz(func(t *testing.T, operator bool, payload []byte) {
		name := StageThermal
		if operator {
			name = StageThermalOp
		}
		decodeStage(t, name, payload)
	})
}

func FuzzHybridTablesDecode(f *testing.F) {
	forStageSeeds(f, func(_, _ string, payload []byte) { f.Add(payload) }, StageHybrid)
	f.Fuzz(func(t *testing.T, payload []byte) { decodeStage(t, StageHybrid, payload) })
}

// decodeStage is the body of the stage fuzz targets: the name codec
// must not panic on payload, must return no artifact with its error,
// and must hold checkStageArtifact's invariants on what it accepts.
func decodeStage(t *testing.T, name string, payload []byte) {
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
	checkStageArtifact(t, name, codec, v, payload)
}

// checkStageArtifact fails t unless v, the artifact the name codec
// accepted from payload, re-encodes to payload and holds the invariant
// its consumers index by:
//   - a grid model, alone or inside a blod characterization or a chip,
//     and a design, alone or inside a chip, pass Validate;
//   - a weibull artifact has one block info, and one extrinsic set if
//     any, per parameter set;
//   - a PCA has finite, non-negative eigenvalues and variances and
//     finite loadings;
//   - a thermal field has Nx·Ny cells and equal per-block lengths, and
//     a thermal operator passes Validate;
//   - every hybrid block makes a valid table.
func checkStageArtifact(t *testing.T, name string, codec artifact.Codec, v any, payload []byte) {
	t.Helper()
	var m *grid.Model
	var fd *floorplan.Design
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch a := v.(type) {
	case *floorplan.Design:
		fd = a
	case *power.Model:
	case *grid.Model:
		m = a
	case *blod.Characterization:
		if a != nil {
			m = a.Model
		}
	case *weibullArtifact:
		if n := len(a.params); len(a.info) != n || (a.ext != nil && len(a.ext) != n) {
			t.Fatalf("%s: accepted lengths params=%d info=%d ext=%d", name, n, len(a.info), len(a.ext))
		}
	case *core.Chip:
		fd, m = a.Design, a.Model
	case *grid.PCA:
		if !finite(a.TotalVariance) || a.TotalVariance < 0 || !finite(a.CapturedVariance) || a.CapturedVariance < 0 {
			t.Fatalf("%s: accepted variances are total=%v captured=%v", name, a.TotalVariance, a.CapturedVariance)
		}
		for b, blk := range a.Blocks {
			for c, x := range blk.Eigenvalues {
				if !finite(x) || x < 0 {
					t.Fatalf("%s: accepted block %d eigenvalue %d is %v", name, b, c, x)
				}
			}
			for i, x := range blk.Loadings {
				if !finite(x) {
					t.Fatalf("%s: accepted block %d loading %d is %v", name, b, i, x)
				}
			}
		}
	case *thermal.CoupledResult:
		if f := a.Field; f != nil && f.Nx*f.Ny != len(f.Temps) {
			t.Fatalf("%s: accepted field is %dx%d with %d cells", name, f.Nx, f.Ny, len(f.Temps))
		}
		if n := len(a.BlockMean); len(a.BlockMax) != n || len(a.Powers) != n {
			t.Fatalf("%s: accepted per-block lengths %d/%d/%d", name, n, len(a.BlockMax), len(a.Powers))
		}
	case *thermal.Operator:
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: accepted operator does not validate: %v", name, err)
		}
	case *hybridTables:
		for k, blk := range a.blocks {
			if _, err := integrate.NewTable2DFromData(a.ls, a.bs, blk); err != nil {
				t.Fatalf("%s: accepted block %d is not a table: %v", name, k, err)
			}
		}
	default:
		t.Fatalf("%s: decoded %T", name, v)
	}
	if m != nil {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: accepted grid model does not validate: %v", name, err)
		}
	}
	if fd != nil {
		if err := fd.Validate(); err != nil {
			t.Fatalf("%s: accepted design does not validate: %v", name, err)
		}
	}
	again, err := codec.Encode(v)
	if err != nil {
		t.Fatalf("%s: accepted artifact does not re-encode: %v", name, err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatalf("%s: re-encoding an accepted payload gave %d different bytes from %d", name, len(again), len(payload))
	}
}

// TestValidStageSeedsAccepted pins the payload layouts: every seed of
// FuzzStageDecode named valid (a "valid" segment of its
// underscore-separated name) must decode and re-encode byte for byte.
// In the fuzz body a layout change would only turn such a seed into a
// rejection, which passes.
func TestValidStageSeedsAccepted(t *testing.T) {
	seen := map[string]bool{}
	forStageSeeds(t, func(file, name string, payload []byte) {
		if !slices.Contains(strings.Split(file, "_"), "valid") {
			return
		}
		seen[name] = true
		t.Run(file, func(t *testing.T) {
			codec, _ := artifact.Lookup(name)
			v, err := codec.Decode(payload)
			if err != nil {
				t.Fatalf("%s: valid seed rejected: %v", name, err)
			}
			checkStageArtifact(t, name, codec, v, payload)
		})
	}, fuzzStages...)
	for _, name := range fuzzStages {
		if !seen[name] {
			t.Errorf("no valid FuzzStageDecode seed for stage %s", name)
		}
	}
}

// forStageSeeds calls fn with the file name, codec name and payload of
// every seed under testdata/fuzz/FuzzStageDecode whose stage selects
// one of the names codecs.
func forStageSeeds(tb testing.TB, fn func(file, name string, payload []byte), names ...string) {
	tb.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzStageDecode")
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		stage, payload := readStageSeed(tb, filepath.Join(dir, e.Name()))
		if name := fuzzStages[int(stage)%len(fuzzStages)]; slices.Contains(names, name) {
			fn(e.Name(), name, payload)
		}
	}
}

// readStageSeed parses a FuzzStageDecode corpus file: the version
// line, then a byte and a []byte Go literal.
func readStageSeed(t testing.TB, path string) (byte, []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a two-value corpus file", path)
	}
	lit := func(line, prefix string) string {
		q, ok := strings.CutPrefix(line, prefix+"(")
		if !ok || !strings.HasSuffix(q, ")") {
			t.Fatalf("%s: %q is not a %s literal", path, line, prefix)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
		if err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		return s
	}
	r, _ := utf8.DecodeRuneInString(lit(lines[1], "byte"))
	if r > 0xff {
		t.Fatalf("%s: stage %q is not a byte", path, r)
	}
	return byte(r), []byte(lit(lines[2], "[]byte"))
}

// hostilePayloads are checksum-valid payloads no encoder produces: a
// covariance model whose grid is not positive or past
// grid.MaxResolution (the PCA build indexes and allocates by it), C1's
// floorplan with a NaN block width and a negative device count (the
// powermap, thermal and chip stages place blocks by it), and powermap
// and weibull payloads that would decode to a model whose encoding
// differs from the payload, and weibull payloads whose block infos or
// extrinsic sets do not match the device parameters one for one (the
// chip assembles from the parameters while /v1/blocks and BurnIn walk
// the infos).
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
	fd, err := Benchmarks()[0].internal()
	if err != nil {
		t.Fatal(err)
	}
	fd.Blocks[0].W = math.NaN()
	fd.Blocks[1].Devices = -3
	var fw artifact.Writer
	encFloorplan(&fw, fd)
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
	weibull := func(params, infos, ext int) []byte {
		wa := &weibullArtifact{params: make([]obd.Params, params), info: make([]BlockInfo, infos)}
		for i := range wa.params {
			wa.params[i] = obd.Params{Alpha: 1e9, B: 0.5}
		}
		for i := range wa.info {
			wa.info[i] = BlockInfo{Name: "b", MeanTempC: 60, MaxTempC: 70, PowerW: 1, Alpha: 1e9, B: 0.5, Devices: 10}
		}
		if ext > 0 {
			wa.ext = make([]obd.ExtrinsicParams, ext)
			for i := range wa.ext {
				wa.ext[i] = obd.ExtrinsicParams{AlphaE: 1e6, BetaE: 0.8, DefectFraction: 0.01}
			}
		}
		var w artifact.Writer
		encWeibull(&w, wa)
		return w.Bytes()
	}
	return map[string]struct {
		stage   string
		payload []byte
	}{
		"covariance_negative_nx":  {StageCovariance, model(-5, 4)},
		"covariance_zero_nx":      {StageCovariance, model(0, 4)},
		"covariance_zero_ny":      {StageCovariance, model(4, 0)},
		"covariance_huge_nx":      {StageCovariance, model(1<<20, 4)},
		"floorplan_invalid":       {StageFloorplan, fw.Bytes()},
		"powermap_duplicate":      {StagePowerMap, power(true, 1, 1)},
		"powermap_unsorted":       {StagePowerMap, power(true, 2, 1)},
		"powermap_entries_no_map": {StagePowerMap, power(false, 1)},
		"weibull_absent_params":   {StageWeibull, wb.Bytes()},
		"weibull_extra_info":      {StageWeibull, weibull(1, 2, 0)},
		"weibull_missing_info":    {StageWeibull, weibull(2, 1, 0)},
		"weibull_short_extrinsic": {StageWeibull, weibull(2, 2, 1)},
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
