// Package obd implements the device-level oxide-breakdown model of
// Section III: time-to-breakdown is Weibull-distributed with a
// thickness-dependent slope,
//
//	F(t | x) = 1 - exp(-a · (t/α)^(b·x))                     (Eq. 4)
//
// where a is the device area normalized to the minimum device area,
// x the oxide thickness (nm), α the characteristic life and b the
// slope-per-thickness. Both α and b depend on the block's operating
// temperature and supply voltage [7]–[9]; Characterize produces them
// from a Tech description.
//
// The functional forms follow the thin-oxide TDDB literature the
// paper cites: α follows an Arrhenius law in 1/T with a power-law
// voltage acceleration, and the Weibull slope β = b·x decreases
// mildly with temperature. The absolute constants are calibrated so
// that the nominal 2.2 nm device has β ≈ 1.3 at use conditions and a
// stressed device (3.1 V, 100 °C — the Fig. 3 condition) breaks down
// on the 10⁴-second scale, matching the paper's measurement plot.
package obd

import (
	"errors"
	"fmt"
	"math"
)

// BoltzmannEV is the Boltzmann constant in eV/K.
const BoltzmannEV = 8.617333262e-5

// CelsiusToKelvin converts a temperature.
func CelsiusToKelvin(tC float64) float64 { return tC + 273.15 }

// Params are the device-level reliability parameters of one
// temperature-uniform block: the Weibull characteristic life Alpha
// (hours) and the slope-per-thickness B (1/nm) of Eq. 4.
type Params struct {
	Alpha float64
	B     float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if !(p.Alpha > 0) || !(p.B > 0) {
		return fmt.Errorf("obd: invalid device parameters α=%v b=%v", p.Alpha, p.B)
	}
	return nil
}

// SampleFailureTime inverts the Weibull CDF for a uniform variate u in
// (0, 1): T = α · (-ln(1-u)/a)^(1/(b·x)).
func (p Params) SampleFailureTime(u, x, a float64) float64 {
	return p.Alpha * math.Pow(-math.Log1p(-u)/a, 1/(p.B*x))
}

// Tech describes a technology's OBD characteristics; Characterize
// instantiates block-level Params from it.
type Tech struct {
	// U0 is the nominal oxide thickness (nm).
	U0 float64
	// Alpha0 is the characteristic life (hours) of a minimum-area
	// device at TRefC and VRef.
	Alpha0 float64
	// TRefC is the reference temperature (°C) and VRef the reference
	// supply voltage (V) at which Alpha0 and B0 are quoted.
	TRefC, VRef float64
	// EaEV is the apparent activation energy (eV) of the Arrhenius
	// temperature acceleration of α.
	EaEV float64
	// NV is the exponent of the power-law voltage acceleration:
	// α ∝ (V/VRef)^(-NV).
	NV float64
	// B0 is the Weibull slope per nm at TRefC: β = B0·x.
	B0 float64
	// CB is the linear temperature derating of b (1/K):
	// b(T) = B0·(1 - CB·(T - TRefC)), floored at 0.25·B0.
	CB float64
}

// DefaultTech returns the calibrated 45 nm-class technology used by
// the benchmarks (Table II: u0 = 2.2 nm, VDD = 1.2 V).
func DefaultTech() *Tech {
	return &Tech{
		U0:     2.2,
		Alpha0: 1e15,
		TRefC:  45,
		VRef:   1.2,
		EaEV:   0.6,
		NV:     32,
		B0:     0.6,
		CB:     0.001,
	}
}

// Validate checks the technology description.
func (tech *Tech) Validate() error {
	switch {
	case !(tech.U0 > 0):
		return errors.New("obd: nominal thickness must be positive")
	case !(tech.Alpha0 > 0):
		return errors.New("obd: Alpha0 must be positive")
	case !(tech.VRef > 0):
		return errors.New("obd: VRef must be positive")
	case tech.EaEV < 0 || tech.NV < 0:
		return errors.New("obd: acceleration parameters must be non-negative")
	case !(tech.B0 > 0):
		return errors.New("obd: B0 must be positive")
	case tech.CB < 0:
		return errors.New("obd: CB must be non-negative")
	}
	return nil
}

// Characterize returns the device-level reliability parameters at
// operating temperature tC (°C) and supply voltage v (V):
//
//	α(T, V) = Alpha0 · exp(Ea/k · (1/T - 1/TRef)) · (V/VRef)^(-NV)
//	b(T)    = B0 · (1 - CB·(T - TRef)), floored at 0.25·B0
//
// Hotter and higher-voltage blocks get a smaller α (they age faster)
// and a slightly shallower Weibull slope.
func (tech *Tech) Characterize(tC, v float64) (Params, error) {
	if err := tech.Validate(); err != nil {
		return Params{}, err
	}
	if !(v > 0) {
		return Params{}, fmt.Errorf("obd: supply voltage must be positive, got %v", v)
	}
	tK := CelsiusToKelvin(tC)
	if !(tK > 0) {
		return Params{}, fmt.Errorf("obd: temperature %v °C below absolute zero", tC)
	}
	tRefK := CelsiusToKelvin(tech.TRefC)
	alpha := tech.Alpha0 *
		math.Exp(tech.EaEV/BoltzmannEV*(1/tK-1/tRefK)) *
		math.Pow(v/tech.VRef, -tech.NV)
	b := tech.B0 * (1 - tech.CB*(tC-tech.TRefC))
	if floor := 0.25 * tech.B0; b < floor {
		b = floor
	}
	p := Params{Alpha: alpha, B: b}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
