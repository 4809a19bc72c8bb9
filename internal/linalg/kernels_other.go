//go:build !amd64

package linalg

// haveAVX2 is false off amd64, so only the Go loops run.
const haveAVX2 = false

func rotateAVX2(a, b []float64, c, s float64)               { panic("linalg: AVX2 kernel off amd64") }
func rotate2AVX2(a, b, x []float64, c0, s0, c1, s1 float64) { panic("linalg: AVX2 kernel off amd64") }
func addScaledAVX2(dst, x []float64, s float64)             { panic("linalg: AVX2 kernel off amd64") }
func subScaledAVX2(dst, x []float64, s float64)             { panic("linalg: AVX2 kernel off amd64") }
func subScaled2AVX2(dst, x, y []float64, s, t float64)      { panic("linalg: AVX2 kernel off amd64") }
