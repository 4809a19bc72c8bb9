package server

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"obdrel"
)

// TestEvalKeyGolden pins the eval key of one query per kind: batch
// items group their evaluations by it, so its bytes are part of the
// planner's contract.
func TestEvalKeyGolden(t *testing.T) {
	cases := []struct {
		q    query
		want string
	}{
		{query{kind: kindLifetime, m: obdrel.MethodStFast, ppm: 10},
			"lifetime|m=st_fast|ppm=10|t=0|target=0|vlo=0|vhi=0|tolv=0"},
		{query{kind: kindFailureProb, m: obdrel.MethodHybrid, ppm: 10, t: 87600.5},
			"failureprob|m=hybrid|ppm=10|t=87600.5|target=0|vlo=0|vhi=0|tolv=0"},
		{query{kind: kindMaxVDD, m: obdrel.MethodGuard, ppm: 1e-7, target: 123456789, vLo: 0.9, vHi: 1.5, tolV: 0.005},
			"maxvdd|m=guard|ppm=1e-07|t=0|target=1.23456789e+08|vlo=0.9|vhi=1.5|tolv=0.005"},
		{query{kind: kindTrace, m: obdrel.MethodStMC, ppm: 3.25, t: 1e21},
			"trace|m=st_MC|ppm=3.25|t=1e+21|target=0|vlo=0|vhi=0|tolv=0"},
	}
	for _, c := range cases {
		if got := c.q.evalKey(); got != c.want {
			t.Errorf("evalKey = %q, want %q", got, c.want)
		}
	}
}

// TestEvalKeyMatchesFmt holds evalKey byte-identical to its fmt
// spelling over random float bits, the specially spelled floats and
// every method, including one outside the named set.
func TestEvalKeyMatchesFmt(t *testing.T) {
	specials := []float64{math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), 1e21, 1e-7}
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	kinds := []string{kindLifetime, kindFailureProb, kindMaxVDD, kindTrace}
	for i := 0; i < 5000; i++ {
		q := query{kind: kinds[i%len(kinds)], m: obdrel.Method(i % 8),
			ppm: float(), t: float(), target: float(), vLo: float(), vHi: float(), tolV: float()}
		want := fmt.Sprintf("%s|m=%s|ppm=%g|t=%g|target=%g|vlo=%g|vhi=%g|tolv=%g",
			q.kind, q.m, q.ppm, q.t, q.target, q.vLo, q.vHi, q.tolV)
		if got := q.evalKey(); got != want {
			t.Fatalf("evalKey = %q, fmt spelling %q", got, want)
		}
	}
}
