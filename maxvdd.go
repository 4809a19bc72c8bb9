package obdrel

import (
	"context"
	"fmt"
	"math"

	"obdrel/internal/fault"
	"obdrel/internal/obs"
)

// MaxVDD finds the highest supply voltage in [vLo, vHi] at which the
// design still meets an n-per-million lifetime requirement of at
// least targetHours, using the given analysis method. This is the
// design decision the paper's introduction motivates: "any pessimism
// in oxide reliability analysis limits the maximum operating voltage
// and thus the maximum achievable chip-performance."
//
// Every probe voltage requires a fresh Weibull characterization, and —
// unless Config.PinThermalVDD fixes the thermal operating point — a
// fresh thermal solve (the thermal profile moves with VDD); the search
// bisects on voltage: lifetime is strictly decreasing in VDD through
// both the power-law voltage acceleration and the hotter die. The
// voltage-independent stages (covariance, PCA, BLOD) are shared across
// all probes through the stage cache. The result is resolved to tolV
// volts (default 5 mV when 0). It returns an error when even vLo
// fails the requirement; if vHi already meets it, vHi is returned.
func MaxVDD(d *Design, cfg *Config, method Method, ppm, targetHours, vLo, vHi, tolV float64) (float64, error) {
	return MaxVDDCtx(context.Background(), d, cfg, method, ppm, targetHours, vLo, vHi, tolV)
}

// MaxVDDCtx is MaxVDD with cancellation support: ctx is checked before
// every probe and threaded into each probe's stage builds, so
// cancelling the context stops the search and its in-flight substrate
// computation.
func MaxVDDCtx(ctx context.Context, d *Design, cfg *Config, method Method, ppm, targetHours, vLo, vHi, tolV float64) (float64, error) {
	return MaxVDDFromCtx(ctx, NewAnalyzerCtx, d, cfg, method, ppm, targetHours, vLo, vHi, tolV)
}

// AnalyzerFactoryCtx builds (or retrieves — e.g. from a serving-layer
// registry) the Analyzer for a design/config pair under a context
// governing the build. NewAnalyzerCtx is the plain factory; long-running
// services pass a caching one so repeated voltage searches — whose
// bisections revisit the same probe voltages — reuse characterized
// analyzers instead of rebuilding them.
type AnalyzerFactoryCtx func(context.Context, *Design, *Config) (*Analyzer, error)

// MaxVDDFromCtx is the context-aware search core: an explicit factory
// plus a context that aborts the bisection between probes and cancels
// the in-flight probe's stage builds (when the factory honours it).
// Context errors abort the search; any other probe failure above vLo —
// typically power/thermal runaway — is treated as "fails the
// requirement", since a voltage the chip cannot even characterize at
// certainly does not meet a lifetime target.
func MaxVDDFromCtx(ctx context.Context, build AnalyzerFactoryCtx, d *Design, cfg *Config, method Method, ppm, targetHours, vLo, vHi, tolV float64) (float64, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	if !(vLo > 0) || !(vHi > vLo) || math.IsInf(vHi, 0) {
		return 0, fmt.Errorf("obdrel: invalid voltage bracket [%v, %v]", vLo, vHi)
	}
	if !(targetHours > 0) || math.IsInf(targetHours, 0) {
		return 0, fmt.Errorf("obdrel: invalid lifetime requirement %v h", targetHours)
	}
	if err := validPPM(ppm); err != nil {
		return 0, err
	}
	if tolV <= 0 || math.IsNaN(tolV) {
		tolV = 0.005
	}
	// Search telemetry: a maxvdd.search span parents one maxvdd.probe
	// span per bisection probe, each carrying the probed voltage, the
	// lifetime it achieved, and whether it met the requirement. The
	// probe's stage lookups (thermal, weibull, …) nest beneath it.
	ctx, search := obs.StartSpan(ctx, "maxvdd.search")
	probes := 0
	if search != nil {
		search.SetAttr("target_hours", targetHours)
		search.SetAttr("ppm", ppm)
		search.SetAttr("tol_v", tolV)
		defer func() {
			search.SetAttr("probes", probes)
			search.End()
		}()
	}
	meets := func(v float64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		probes++
		pctx, sp := obs.StartSpan(ctx, "maxvdd.probe")
		if sp != nil {
			sp.SetAttr("vdd_v", v)
			defer sp.End()
		}
		// maxvdd.probe: one fault evaluation per bisection probe. An
		// injected failure flows through the same path as a real
		// characterization failure: above vLo it means "fails the
		// requirement", at vLo it aborts the search.
		if err := fault.Inject(pctx, "maxvdd.probe"); err != nil {
			if sp != nil {
				sp.SetAttr("error", err.Error())
			}
			return false, fmt.Errorf("obdrel: at %v V: %w", v, err)
		}
		probe := *cfg
		probe.VDD = v
		an, err := build(pctx, d, &probe)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return false, fmt.Errorf("obdrel: at %v V: %w", v, err)
		}
		life, err := an.LifetimePPM(ppm, method)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return false, fmt.Errorf("obdrel: at %v V: %w", v, err)
		}
		ok := life >= targetHours
		if sp != nil {
			sp.SetAttr("lifetime_h", life)
			sp.SetAttr("meets", ok)
		}
		return ok, nil
	}
	okLo, err := meets(vLo)
	if err != nil {
		return 0, err
	}
	if !okLo {
		return 0, fmt.Errorf("obdrel: the requirement fails even at %v V", vLo)
	}
	// Above vLo, a voltage where the characterization itself fails —
	// typically power/thermal runaway — certainly fails the
	// reliability requirement; the search treats it as out of reach
	// rather than aborting. A cancelled context, however, aborts.
	okHi, err := meets(vHi)
	if err != nil {
		if ctx.Err() != nil {
			return 0, err
		}
		okHi = false
	}
	if okHi {
		return vHi, nil
	}
	lo, hi := vLo, vHi // invariant: lo meets, hi does not
	for hi-lo > tolV {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			if ctx.Err() != nil {
				return 0, err
			}
			ok = false
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Floor(lo/tolV) * tolV, nil
}
