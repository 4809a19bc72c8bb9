package linalg

import "testing"

// HaveAVX2 and SetAVX2 let the external tests (package linalg_test)
// run a caller of the eigensolver on both paths.
var HaveAVX2 = haveAVX2

func SetAVX2(t testing.TB, on bool) { setAVX2(t, on) }
