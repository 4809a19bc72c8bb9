package linalg

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, read once with CPUID and XGETBV.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// The AVX2 kernels take equal-length slices whose length is a multiple
// of 4 and follow the Go loops in kernels.go operation for operation.

//go:noescape
func rotateAVX2(a, b []float64, c, s float64)

//go:noescape
func rotate2AVX2(a, b, x []float64, c0, s0, c1, s1 float64)

//go:noescape
func addScaledAVX2(dst, x []float64, s float64)

//go:noescape
func subScaledAVX2(dst, x []float64, s float64)

//go:noescape
func subScaled2AVX2(dst, x, y []float64, s, t float64)
