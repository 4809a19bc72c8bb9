// Command tables regenerates the paper's evaluation tables.
//
//	tables -table 2   # experiment parameter setup
//	tables -table 3   # accuracy & runtime of all methods vs MC, C1–C6
//	tables -table 4   # accuracy vs correlation distance
//	tables -table 5   # accuracy vs grid resolution (C2)
//
// Absolute runtimes depend on the host; the reproduction targets are
// the error magnitudes (~1% for the statistical engines, ~50%+ for
// guard band) and the runtime ordering hybrid ≪ st_fast ≈ st_MC ≪ MC.
// Use -mc-samples and -designs to trade fidelity for speed.
//
// Sweep cells (designs × settings) fan out over -workers goroutines,
// and every analyzer stage is itself parallel; rows print in table
// order regardless of completion order. The PCA of the correlation
// model is cached across cells, so e.g. the Table IV sweep runs one
// eigendecomposition per ρ_dist instead of one per cell. Use
// -workers 1 for serial execution with undisturbed per-method
// runtimes.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"obdrel"
	"obdrel/internal/par"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	var (
		table     = flag.Int("table", 3, "table to regenerate: 2, 3, 4 or 5")
		mcSamples = flag.Int("mc-samples", 1000, "Monte-Carlo sample chips for the reference")
		gridN     = flag.Int("grid", 25, "spatial-correlation grid resolution")
		designs   = flag.String("designs", "C1,C2,C3,C4,C5,C6", "comma-separated design subset")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallelism for the sweep and all engines (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()

	selected, err := pickDesigns(*designs)
	if err != nil {
		log.Fatal(err)
	}
	switch *table {
	case 2:
		table2()
	case 3:
		table3(selected, *mcSamples, *gridN, *seed, *workers)
	case 4:
		table4(selected, *mcSamples, *gridN, *seed, *workers)
	case 5:
		table5(*mcSamples, *seed, *workers)
	default:
		log.Fatalf("unknown table %d (want 2, 3, 4 or 5)", *table)
	}
}

func pickDesigns(csv string) ([]*obdrel.Design, error) {
	all := map[string]*obdrel.Design{}
	for _, d := range obdrel.Benchmarks() {
		all[d.Name] = d
	}
	var out []*obdrel.Design
	for _, name := range strings.Split(csv, ",") {
		d, ok := all[strings.ToUpper(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown design %q", name)
		}
		out = append(out, d)
	}
	return out, nil
}

func baseConfig(mcSamples, gridN int, seed int64, workers int) *obdrel.Config {
	cfg := obdrel.DefaultConfig()
	cfg.MCSamples = mcSamples
	cfg.GridNx, cfg.GridNy = gridN, gridN
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

// table2 prints the experiment parameter setup (paper Table II).
func table2() {
	fmt.Println("Table II — experiment parameter setup")
	fmt.Println("  nominal oxide thickness u0            2.2 nm")
	fmt.Println("  nominal supply voltage VDD            1.2 V")
	fmt.Println("  total variation 3σ/u0                 4%")
	fmt.Println("  inter-die variance ratio              50%")
	fmt.Println("  spatially correlated variance ratio   25%")
	fmt.Println("  independent variance ratio            25%")
	fmt.Println("  correlation distance ρ_dist           0.5 (of chip dimension)")
	fmt.Println("  correlation grid                      25×25")
	fmt.Println("  nominal Weibull slope β = b·u0        1.32")
}

// table3 reproduces Table III: lifetime-estimation error at 1 and 10
// per million for st_fast, st_MC, hybrid and guard against the MC
// reference, plus per-method runtimes and speedups. Designs fan out
// over the worker pool; each design's row is assembled independently
// and printed in design order.
func table3(designs []*obdrel.Design, mcSamples, gridN int, seed int64, workers int) {
	fmt.Printf("Table III — accuracy and runtime vs MC (%d samples), %d×%d grid\n",
		mcSamples, gridN, gridN)
	fmt.Printf("%-4s %-9s | %-31s | %-31s | %s\n", "", "",
		"err@1/million (%)", "err@10/million (%)", "runtime (s) / speedup vs MC")
	fmt.Printf("%-4s %-9s | %7s %7s %7s %7s | %7s %7s %7s %7s | %s\n",
		"ckt", "#device",
		"st_fast", "st_MC", "hybrid", "guard",
		"st_fast", "st_MC", "hybrid", "guard", "st_fast     st_MC      hybrid          MC")
	rows := make([]string, len(designs))
	par.For(workers, len(designs), func(di int) {
		rows[di] = table3Row(designs[di], mcSamples, gridN, seed, workers)
	})
	for _, row := range rows {
		fmt.Print(row)
	}
	fmt.Println("\nnote: the hybrid column is steady-state query time; its one-time")
	fmt.Println("per-design table build is reported at the row end. The guard-band")
	fmt.Println("column is the closed-form Eq. 34 — effectively free but ~50%+ wrong.")
	fmt.Println("Runtimes are wall-clock inside a possibly parallel sweep; use")
	fmt.Println("-workers 1 for undisturbed per-method timings.")
}

func table3Row(d *obdrel.Design, mcSamples, gridN int, seed int64, workers int) string {
	cfg := baseConfig(mcSamples, gridN, seed, workers)
	an, err := obdrel.NewAnalyzer(d, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Reference: MC at both criteria, timed including sampling.
	mcStart := time.Now()
	ref1, err := an.LifetimePPM(1, obdrel.MethodMC)
	if err != nil {
		log.Fatal(err)
	}
	ref10, err := an.LifetimePPM(10, obdrel.MethodMC)
	if err != nil {
		log.Fatal(err)
	}
	mcTime := time.Since(mcStart)

	methods := []obdrel.Method{obdrel.MethodStFast, obdrel.MethodStMC, obdrel.MethodHybrid, obdrel.MethodGuard}
	errs1 := map[obdrel.Method]float64{}
	errs10 := map[obdrel.Method]float64{}
	times := map[obdrel.Method]time.Duration{}
	var hybridBuild time.Duration
	for _, m := range methods {
		// A fresh analyzer isolates each method's engine
		// construction in its runtime, as the paper's per-method
		// runtimes do.
		anM, err := obdrel.NewAnalyzer(d, baseConfig(mcSamples, gridN, seed, workers))
		if err != nil {
			log.Fatal(err)
		}
		if m == obdrel.MethodHybrid {
			// The table build is a one-time design-level
			// precomputation (Section IV-E); time it separately
			// and report only the steady-state query cost, as the
			// paper does.
			start := time.Now()
			if _, err := anM.FailureProb(ref10, m); err != nil {
				log.Fatal(err)
			}
			hybridBuild = time.Since(start)
		}
		start := time.Now()
		l1, err := anM.LifetimePPM(1, m)
		if err != nil {
			log.Fatal(err)
		}
		l10, err := anM.LifetimePPM(10, m)
		if err != nil {
			log.Fatal(err)
		}
		times[m] = time.Since(start)
		errs1[m] = abs(l1-ref1) / ref1 * 100
		errs10[m] = abs(l10-ref10) / ref10 * 100
	}
	speedup := func(m obdrel.Method) float64 {
		return mcTime.Seconds() / times[m].Seconds()
	}
	return fmt.Sprintf("%-4s %-9d | %7.1f %7.1f %7.1f %7.0f | %7.1f %7.1f %7.1f %7.0f | %6.3f/%-6.0f %5.3f/%-5.0f %8.6f/%-8.0f %.2f (hybrid build %.2fs)\n",
		d.Name, d.TotalDevices(),
		errs1[obdrel.MethodStFast], errs1[obdrel.MethodStMC], errs1[obdrel.MethodHybrid], errs1[obdrel.MethodGuard],
		errs10[obdrel.MethodStFast], errs10[obdrel.MethodStMC], errs10[obdrel.MethodHybrid], errs10[obdrel.MethodGuard],
		times[obdrel.MethodStFast].Seconds(), speedup(obdrel.MethodStFast),
		times[obdrel.MethodStMC].Seconds(), speedup(obdrel.MethodStMC),
		times[obdrel.MethodHybrid].Seconds(), speedup(obdrel.MethodHybrid),
		mcTime.Seconds(), hybridBuild.Seconds())
}

// table4 reproduces Table IV: st_fast accuracy vs MC for three
// correlation distances. All design×ρ cells fan out together; the pca
// stage cache collapses the eigendecompositions to one per ρ.
func table4(designs []*obdrel.Design, mcSamples, gridN int, seed int64, workers int) {
	rhos := []float64{0.25, 0.5, 0.75}
	fmt.Printf("Table IV — st_fast lifetime error (%%) vs MC for correlation distances\n")
	fmt.Printf("%-4s", "ckt")
	for _, rho := range rhos {
		fmt.Printf(" | ρ=%.2f: 1/mil 10/mil", rho)
	}
	fmt.Println()
	type cell struct{ e1, e10 float64 }
	cells := make([]cell, len(designs)*len(rhos))
	par.For(workers, len(cells), func(ci int) {
		d := designs[ci/len(rhos)]
		rho := rhos[ci%len(rhos)]
		cfg := baseConfig(mcSamples, gridN, seed, workers)
		cfg.RhoDist = rho
		an, err := obdrel.NewAnalyzer(d, cfg)
		if err != nil {
			log.Fatal(err)
		}
		e1, e10 := errorsVsMC(an)
		cells[ci] = cell{e1, e10}
	})
	for di, d := range designs {
		fmt.Printf("%-4s", d.Name)
		for ri := range rhos {
			c := cells[di*len(rhos)+ri]
			fmt.Printf(" |       %6.2f %6.2f", c.e1, c.e10)
		}
		fmt.Println()
	}
}

// table5 reproduces Table V: st_fast on coarser analysis grids vs the
// MC reference computed on the finest (25×25) grid, design C2. The
// per-ρ references are computed once (not per cell, as the serial
// sweep used to) and all grid×ρ cells then fan out together.
func table5(mcSamples int, seed int64, workers int) {
	rhos := []float64{0.25, 0.5, 0.75}
	grids := []int{10, 20, 25}
	fmt.Println("Table V — C2: st_fast grid-resolution error (%) vs MC at 25×25")
	fmt.Printf("%-8s", "grid")
	for _, rho := range rhos {
		fmt.Printf(" | ρ=%.2f: 1/mil 10/mil", rho)
	}
	fmt.Println()
	d := obdrel.C2()
	// References at the finest grid, one per ρ.
	refs1 := make([]float64, len(rhos))
	refs10 := make([]float64, len(rhos))
	par.For(workers, len(rhos), func(ri int) {
		refCfg := baseConfig(mcSamples, 25, seed, workers)
		refCfg.RhoDist = rhos[ri]
		refAn, err := obdrel.NewAnalyzer(d, refCfg)
		if err != nil {
			log.Fatal(err)
		}
		if refs1[ri], err = refAn.LifetimePPM(1, obdrel.MethodMC); err != nil {
			log.Fatal(err)
		}
		if refs10[ri], err = refAn.LifetimePPM(10, obdrel.MethodMC); err != nil {
			log.Fatal(err)
		}
	})
	type cell struct{ e1, e10 float64 }
	cells := make([]cell, len(grids)*len(rhos))
	par.For(workers, len(cells), func(ci int) {
		g := grids[ci/len(rhos)]
		ri := ci % len(rhos)
		cfg := baseConfig(mcSamples, g, seed, workers)
		cfg.RhoDist = rhos[ri]
		an, err := obdrel.NewAnalyzer(d, cfg)
		if err != nil {
			log.Fatal(err)
		}
		l1, err := an.LifetimePPM(1, obdrel.MethodStFast)
		if err != nil {
			log.Fatal(err)
		}
		l10, err := an.LifetimePPM(10, obdrel.MethodStFast)
		if err != nil {
			log.Fatal(err)
		}
		cells[ci] = cell{abs(l1-refs1[ri]) / refs1[ri] * 100, abs(l10-refs10[ri]) / refs10[ri] * 100}
	})
	for gi, g := range grids {
		fmt.Printf("%-8s", fmt.Sprintf("%d×%d", g, g))
		for ri := range rhos {
			c := cells[gi*len(rhos)+ri]
			fmt.Printf(" |       %6.2f %6.2f", c.e1, c.e10)
		}
		fmt.Println()
	}
}

// errorsVsMC returns st_fast's 1- and 10-per-million errors against
// the same analyzer's MC reference.
func errorsVsMC(an *obdrel.Analyzer) (e1, e10 float64) {
	ref1, err := an.LifetimePPM(1, obdrel.MethodMC)
	if err != nil {
		log.Fatal(err)
	}
	ref10, err := an.LifetimePPM(10, obdrel.MethodMC)
	if err != nil {
		log.Fatal(err)
	}
	l1, err := an.LifetimePPM(1, obdrel.MethodStFast)
	if err != nil {
		log.Fatal(err)
	}
	l10, err := an.LifetimePPM(10, obdrel.MethodStFast)
	if err != nil {
		log.Fatal(err)
	}
	return abs(l1-ref1) / ref1 * 100, abs(l10-ref10) / ref10 * 100
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
