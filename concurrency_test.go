package obdrel_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"obdrel"
	"obdrel/internal/pipeline"
)

// TestConcurrentQueries exercises one Analyzer from many goroutines
// simultaneously — lazy engine construction must be race-free and all
// goroutines must see identical answers. Run with -race to verify the
// synchronization.
func TestConcurrentQueries(t *testing.T) {
	an, err := obdrel.NewAnalyzer(obdrel.C1(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	methods := []obdrel.Method{
		obdrel.MethodStFast, obdrel.MethodHybrid, obdrel.MethodGuard, obdrel.MethodStMC,
	}
	const workers = 16
	results := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, m := range methods {
				life, err := an.LifetimePPM(10, m)
				if err != nil {
					t.Errorf("worker %d method %v: %v", w, m, err)
					return
				}
				results[w] = append(results[w], life)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatalf("worker %d returned %d results", w, len(results[w]))
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d result %d differs: %v vs %v",
					w, i, results[w][i], results[0][i])
			}
		}
	}
}

// TestConcurrentQueriesMC drives the Monte-Carlo engine — whose query
// path now fans out over an internal worker pool — from many
// goroutines at once. Under -race this checks that nested parallelism
// (concurrent FailureProb calls, each spawning reduction workers) is
// clean and that all callers see identical answers.
func TestConcurrentQueriesMC(t *testing.T) {
	cfg := fastConfig()
	cfg.MCSamples = 150
	cfg.Workers = 4
	an, err := obdrel.NewAnalyzer(obdrel.C1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			life, err := an.LifetimePPM(10, obdrel.MethodMC)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = life
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d MC lifetime differs: %v vs %v", w, results[w], results[0])
		}
	}
}

// TestWorkersEquivalence pins the Config.Workers contract end to end:
// every worker count gives bit-identical answers. 1000 MC samples span
// several 256-sample reduction chunks, so a worker-dependent reduction
// plan would show in the MC answers.
func TestWorkersEquivalence(t *testing.T) {
	methods := []obdrel.Method{
		obdrel.MethodStFast, obdrel.MethodStMC, obdrel.MethodHybrid,
		obdrel.MethodGuard, obdrel.MethodMC,
	}
	times := []float64{1e4, 1e5, 1e6}
	answers := func(workers int) []float64 {
		cfg := fastConfig()
		cfg.MCSamples = 1000
		cfg.Workers = workers
		// One fresh stage cache per worker count — this test must
		// rebuild every substrate stage per worker count, or the
		// comparison compares one build with itself.
		an, err := obdrel.NewAnalyzerCtxIn(context.Background(), pipeline.NewCache(64), obdrel.C1(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, m := range methods {
			life, err := an.LifetimePPM(10, m)
			if err != nil {
				t.Fatalf("workers=%d method %v: %v", workers, m, err)
			}
			out = append(out, life)
		}
		for _, tq := range times {
			p, err := an.FailureProb(tq, obdrel.MethodMC)
			if err != nil {
				t.Fatalf("workers=%d MC FailureProb(%g): %v", workers, tq, err)
			}
			out = append(out, p)
		}
		return out
	}
	labels := make([]string, 0, len(methods)+len(times))
	for _, m := range methods {
		labels = append(labels, m.String()+" 10-ppm lifetime")
	}
	for _, tq := range times {
		labels = append(labels, fmt.Sprintf("MC FailureProb(%g)", tq))
	}
	ref := answers(1)
	for _, w := range []int{4, 7} {
		got := answers(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s: workers=%d %v != workers=1 %v", labels[i], w, got[i], ref[i])
			}
		}
	}
}

// TestConcurrentMixedMethodQueries pins the README's "safe for
// concurrent queries" claim under the serving layer's real traffic
// shape: one Analyzer answering lifetime, failure-probability,
// contribution, and curve queries across several methods at once,
// while a MaxVDD voltage search (which builds sibling analyzers from
// the same config) runs alongside. Run with -race; every repeated
// query must also return the identical answer.
func TestConcurrentMixedMethodQueries(t *testing.T) {
	cfg := fastConfig()
	cfg.MCSamples = 150
	an, err := obdrel.NewAnalyzer(obdrel.C1(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	refLife, err := an.LifetimePPM(10, obdrel.MethodHybrid)
	if err != nil {
		t.Fatal(err)
	}
	refProb, err := an.FailureProb(1e5, obdrel.MethodStFast)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	const loops = 4

	// Lifetime queries across four engines at once.
	for _, m := range []obdrel.Method{
		obdrel.MethodStFast, obdrel.MethodHybrid, obdrel.MethodGuard, obdrel.MethodMC,
	} {
		wg.Add(1)
		go func(m obdrel.Method) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				if _, err := an.LifetimePPM(10, m); err != nil {
					errCh <- err
					return
				}
			}
		}(m)
	}
	// Failure-probability + repeatability check against the
	// single-threaded reference answers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			life, err := an.LifetimePPM(10, obdrel.MethodHybrid)
			if err != nil {
				errCh <- err
				return
			}
			if life != refLife {
				errCh <- fmt.Errorf("hybrid lifetime drifted under concurrency: %v vs %v", life, refLife)
				return
			}
			p, err := an.FailureProb(1e5, obdrel.MethodStFast)
			if err != nil {
				errCh <- err
				return
			}
			if p != refProb {
				errCh <- fmt.Errorf("st_fast failure prob drifted under concurrency: %v vs %v", p, refProb)
				return
			}
		}
	}()
	// Block decomposition and curve sampling exercise engine
	// accessors beyond plain FailureProb.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			if _, err := an.FailureContributions(1e5); err != nil {
				errCh <- err
				return
			}
			if _, _, err := an.ReliabilityCurve(1e3, 1e6, 8, obdrel.MethodHybrid); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// A voltage search builds sibling analyzers from the same config
	// concurrently — the registry-backed /v1/maxvdd path in miniature.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := obdrel.MaxVDD(obdrel.C1(), cfg, obdrel.MethodHybrid, 10, 1000, 1.0, 1.3, 0.1)
		if err != nil {
			errCh <- err
			return
		}
		if !(v >= 1.0 && v <= 1.3) {
			errCh <- fmt.Errorf("MaxVDD out of bracket: %v", v)
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
