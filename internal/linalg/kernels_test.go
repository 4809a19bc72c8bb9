package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// setAVX2 points the element-wise loops at the AVX2 kernels (on) or
// the Go loops (off) until t's cleanup.
func setAVX2(t testing.TB, on bool) {
	t.Helper()
	if on && !haveAVX2 {
		t.Fatal("setAVX2(true) on a CPU without AVX2")
	}
	old := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = old })
}

// forEachPath runs f as a subtest on the Go loops and, where the CPU
// has AVX2, again on the AVX2 kernels, so the Go loops are tested on
// every host.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	paths := []bool{false}
	if haveAVX2 {
		paths = append(paths, true)
	} else {
		t.Log("no AVX2 on this CPU: only the Go loops run")
	}
	for _, on := range paths {
		name := "go"
		if on {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			setAVX2(t, on)
			f(t)
		})
	}
}

// kernelValue draws an operand: mostly ordinary magnitudes, with ±0,
// subnormals and values near overflow mixed in.
func kernelValue(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(8) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		return sign * math.MaxFloat64 * (0.5 + rng.Float64()/2)
	case 3:
		return sign * math.Ldexp(rng.Float64(), rng.Intn(2100)-1075)
	default:
		return rng.NormFloat64()
	}
}

// sameBits reports whether x and y have the same bits; NaNs match any
// NaN, since the hardware's choice of NaN payload is not part of the
// contract.
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// TestKernelsBitIdenticalToGoLoops runs each element-wise loop on the
// AVX2 kernels and on the Go loops over the same operands, at every
// length from 0 to 67 and slice offsets 0–3 (so the kernels see every
// tail length and unaligned rows), and requires the same bits in every
// output element.
func TestKernelsBitIdenticalToGoLoops(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU: only the Go loops run")
	}
	kernels := []struct {
		name    string
		rows    int
		scalars int
		run     func(r [][]float64, s []float64)
	}{
		{"rotate", 2, 2, func(r [][]float64, s []float64) { rotate(r[0], r[1], s[0], s[1]) }},
		{"rotate2", 3, 4, func(r [][]float64, s []float64) { rotate2(r[0], r[1], r[2], s[0], s[1], s[2], s[3]) }},
		{"addScaled", 2, 1, func(r [][]float64, s []float64) { addScaled(r[0], r[1], s[0]) }},
		{"subScaled", 2, 1, func(r [][]float64, s []float64) { subScaled(r[0], r[1], s[0]) }},
		{"subScaled2", 3, 2, func(r [][]float64, s []float64) { subScaled2(r[0], r[1], r[2], s[0], s[1]) }},
	}
	rng := rand.New(rand.NewSource(42))
	for _, kc := range kernels {
		for n := 0; n <= 67; n++ {
			for off := 0; off <= 3; off++ {
				for trial := 0; trial < 3; trial++ {
					in := make([][]float64, kc.rows)
					for i := range in {
						in[i] = make([]float64, off+n)
						for k := range in[i] {
							in[i][k] = kernelValue(rng)
						}
					}
					s := make([]float64, kc.scalars)
					for i := range s {
						s[i] = kernelValue(rng)
					}
					out := func(on bool) [][]float64 {
						r := make([][]float64, kc.rows)
						for i := range r {
							r[i] = append([]float64(nil), in[i]...)[off:]
						}
						old := useAVX2
						useAVX2 = on
						kc.run(r, s)
						useAVX2 = old
						return r
					}
					want, got := out(false), out(true)
					for i := range want {
						for k := range want[i] {
							if !sameBits(got[i][k], want[i][k]) {
								t.Fatalf("%s n=%d offset %d: row %d element %d = %v (%#x), Go loop %v (%#x)",
									kc.name, n, off, i, k, got[i][k], math.Float64bits(got[i][k]),
									want[i][k], math.Float64bits(want[i][k]))
							}
						}
					}
				}
			}
		}
	}
}
