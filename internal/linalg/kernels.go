package linalg

// The eigensolver's element-wise O(n³) loops. With AVX2 each hands its
// first len &^ 3 elements to a kernel in kernels_amd64.s that does the
// same operations four elements at a time, and runs the rest here. The
// kernels round every product and add in the Go expression's order, so
// both paths give the same bits.

// useAVX2 selects the AVX2 kernels. Tests clear it to run the Go loops
// on an AVX2 host.
var useAVX2 = haveAVX2

// vecHead returns how many leading elements of an n-element loop the
// AVX2 kernel takes.
func vecHead(n int) int {
	if useAVX2 {
		return n &^ 3
	}
	return 0
}

// rotate applies the plane rotation (c, s) to rows a and b:
// b ← s·a + c·b, a ← c·a − s·b.
func rotate(a, b []float64, c, s float64) {
	if k := vecHead(len(a)); k > 0 {
		rotateAVX2(a[:k], b[:k], c, s)
		a, b = a[k:], b[k:]
	}
	b = b[:len(a)]
	for k, h := range b {
		b[k] = s*a[k] + c*h
		a[k] = c*a[k] - s*h
	}
}

// rotate2 is rotate(b, x, c1, s1) followed by rotate(a, b, c0, s0),
// in one pass: each element of b leaves the first rotation as the
// operand of the second.
func rotate2(a, b, x []float64, c0, s0, c1, s1 float64) {
	if k := vecHead(len(a)); k > 0 {
		rotate2AVX2(a[:k], b[:k], x[:k], c0, s0, c1, s1)
		a, b, x = a[k:], b[k:], x[k:]
	}
	b, x = b[:len(a)], x[:len(a)]
	for k, h := range x {
		y := b[k]
		x[k] = s1*y + c1*h
		y = c1*y - s1*h
		b[k] = s0*a[k] + c0*y
		a[k] = c0*a[k] - s0*y
	}
}

// addScaled sets dst[k] += x[k]·s.
func addScaled(dst, x []float64, s float64) {
	if k := vecHead(len(dst)); k > 0 {
		addScaledAVX2(dst[:k], x[:k], s)
		dst, x = dst[k:], x[k:]
	}
	x = x[:len(dst)]
	for k, v := range x {
		dst[k] += v * s
	}
}

// subScaled sets dst[k] -= s·x[k].
func subScaled(dst, x []float64, s float64) {
	if k := vecHead(len(dst)); k > 0 {
		subScaledAVX2(dst[:k], x[:k], s)
		dst, x = dst[k:], x[k:]
	}
	x = x[:len(dst)]
	for k, v := range x {
		dst[k] -= s * v
	}
}

// subScaled2 sets dst[k] -= s·x[k] + t·y[k].
func subScaled2(dst, x, y []float64, s, t float64) {
	if k := vecHead(len(dst)); k > 0 {
		subScaled2AVX2(dst[:k], x[:k], y[:k], s, t)
		dst, x, y = dst[k:], x[k:], y[k:]
	}
	x, y = x[:len(dst)], y[:len(dst)]
	for k, v := range x {
		dst[k] -= s*v + t*y[k]
	}
}
