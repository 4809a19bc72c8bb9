// Package floorplan describes chip designs at the granularity the
// reliability analysis needs: rectangular functional blocks with
// device counts and switching-activity factors. A "block" here is the
// paper's temperature-uniform region (Section I, footnote 1) — devices
// inside one block share a temperature and hence share the
// device-level reliability parameters α and b.
//
// The package also provides the six benchmark designs of the paper's
// evaluation: C1–C5 are seeded synthetic slicing-tree circuits from
// 50K to 0.5M devices and C6 is an EV6/alpha-like processor with 15
// functional modules and 0.84M devices, plus the many-core design used
// for the Fig. 1(b) thermal profile.
package floorplan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Class categorizes a functional block; it selects the power densities
// of the Wattch-like power model.
type Class int

// Block classes, ordered roughly by switching intensity.
const (
	ClassCache Class = iota
	ClassRegFile
	ClassControl
	ClassALU
	ClassFPU
	ClassQueue
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCache:
		return "cache"
	case ClassRegFile:
		return "regfile"
	case ClassControl:
		return "control"
	case ClassALU:
		return "alu"
	case ClassFPU:
		return "fpu"
	case ClassQueue:
		return "queue"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Block is a rectangular functional block. Coordinates are in the
// design's (arbitrary but consistent) length unit, with the origin at
// the chip's lower-left corner.
type Block struct {
	Name       string
	X, Y, W, H float64
	// Devices is the number of gate oxides in the block. Device area
	// is normalized to the minimum device area, so the block's total
	// normalized oxide area A_j equals Devices.
	Devices int
	Class   Class
	// Activity is the average switching activity in [0, 1], input to
	// the power model.
	Activity float64
}

// Area returns the geometric block area.
func (b *Block) Area() float64 { return b.W * b.H }

// NormalizedOxideArea returns A_j, the summed device area normalized
// to the minimum device area (Table I of the paper).
func (b *Block) NormalizedOxideArea() float64 { return float64(b.Devices) }

// Design is a full chip: a set of non-overlapping blocks on a W×H die.
type Design struct {
	Name   string
	W, H   float64
	Blocks []Block
}

// Validate checks geometric and structural consistency: positive die
// and block dimensions, blocks within the die, no block overlaps, and
// at least one device per block.
func (d *Design) Validate() error {
	if !(d.W > 0) || !(d.H > 0) {
		return fmt.Errorf("floorplan: design %q has non-positive dimensions %v×%v", d.Name, d.W, d.H)
	}
	if len(d.Blocks) == 0 {
		return fmt.Errorf("floorplan: design %q has no blocks", d.Name)
	}
	const tol = 1e-9
	for i := range d.Blocks {
		b := &d.Blocks[i]
		if !(b.W > 0) || !(b.H > 0) {
			return fmt.Errorf("floorplan: block %q has non-positive dimensions", b.Name)
		}
		if b.X < -tol || b.Y < -tol || b.X+b.W > d.W+tol || b.Y+b.H > d.H+tol {
			return fmt.Errorf("floorplan: block %q extends outside the die", b.Name)
		}
		if b.Devices <= 0 {
			return fmt.Errorf("floorplan: block %q has %d devices", b.Name, b.Devices)
		}
		if b.Activity < 0 || b.Activity > 1 {
			return fmt.Errorf("floorplan: block %q activity %v outside [0,1]", b.Name, b.Activity)
		}
		for j := i + 1; j < len(d.Blocks); j++ {
			if overlaps(b, &d.Blocks[j], tol) {
				return fmt.Errorf("floorplan: blocks %q and %q overlap", b.Name, d.Blocks[j].Name)
			}
		}
	}
	return nil
}

func overlaps(a, b *Block, tol float64) bool {
	return a.X+a.W > b.X+tol && b.X+b.W > a.X+tol &&
		a.Y+a.H > b.Y+tol && b.Y+b.H > a.Y+tol
}

// classDensity is the relative device density per unit area for each
// class — caches pack devices far more densely than datapath logic.
var classDensity = [numClasses]float64{
	ClassCache:   3.0,
	ClassRegFile: 1.8,
	ClassControl: 0.9,
	ClassALU:     1.0,
	ClassFPU:     1.1,
	ClassQueue:   1.2,
}

// classActivity is the default switching activity per class.
var classActivity = [numClasses]float64{
	ClassCache:   0.25,
	ClassRegFile: 0.50,
	ClassControl: 0.45,
	ClassALU:     0.90,
	ClassFPU:     0.70,
	ClassQueue:   0.40,
}

// Synthetic generates a deterministic pseudo-random design with
// nBlocks blocks tiling a 1×1 die and totalDevices devices distributed
// by block area and class density. The same (name, seed) always
// produces the same design, making the C1–C5 benchmarks reproducible.
func Synthetic(name string, nBlocks, totalDevices int, seed int64) (*Design, error) {
	if nBlocks <= 0 {
		return nil, errors.New("floorplan: Synthetic requires nBlocks > 0")
	}
	if totalDevices < nBlocks {
		return nil, errors.New("floorplan: Synthetic requires at least one device per block")
	}
	rng := rand.New(rand.NewSource(seed))
	type rect struct{ x, y, w, h float64 }
	rects := []rect{{0, 0, 1, 1}}
	// Recursive slicing: repeatedly split the largest rectangle with a
	// ratio in [0.35, 0.65], alternating cut direction by aspect.
	for len(rects) < nBlocks {
		// Find the largest rect.
		li := 0
		for i := range rects {
			if rects[i].w*rects[i].h > rects[li].w*rects[li].h {
				li = i
			}
		}
		r := rects[li]
		ratio := 0.35 + 0.3*rng.Float64()
		var a, b rect
		if r.w >= r.h {
			a = rect{r.x, r.y, r.w * ratio, r.h}
			b = rect{r.x + r.w*ratio, r.y, r.w * (1 - ratio), r.h}
		} else {
			a = rect{r.x, r.y, r.w, r.h * ratio}
			b = rect{r.x, r.y + r.h*ratio, r.w, r.h * (1 - ratio)}
		}
		rects[li] = a
		rects = append(rects, b)
	}
	d := &Design{Name: name, W: 1, H: 1, Blocks: make([]Block, nBlocks)}
	weights := make([]float64, nBlocks)
	wsum := 0.0
	for i, r := range rects {
		class := Class(rng.Intn(int(numClasses)))
		d.Blocks[i] = Block{
			Name: fmt.Sprintf("%s_b%d_%s", name, i, class),
			X:    r.x, Y: r.y, W: r.w, H: r.h,
			Class:    class,
			Activity: classActivity[class] * (0.8 + 0.4*rng.Float64()),
		}
		if d.Blocks[i].Activity > 1 {
			d.Blocks[i].Activity = 1
		}
		weights[i] = r.w * r.h * classDensity[class]
		wsum += weights[i]
	}
	distributeDevices(d.Blocks, weights, wsum, totalDevices)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: generated design invalid: %w", err)
	}
	return d, nil
}

// distributeDevices assigns totalDevices across blocks proportionally
// to weights using largest-remainder rounding, guaranteeing at least
// one device per block and an exact total.
func distributeDevices(blocks []Block, weights []float64, wsum float64, totalDevices int) {
	n := len(blocks)
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, n)
	assigned := 0
	for i := range blocks {
		exact := float64(totalDevices) * weights[i] / wsum
		whole := int(math.Floor(exact))
		if whole < 1 {
			whole = 1
		}
		blocks[i].Devices = whole
		assigned += whole
		fracs[i] = frac{i, exact - float64(whole)}
	}
	// Distribute (or reclaim) the remainder by largest fraction.
	for assigned < totalDevices {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i].f > fracs[best].f {
				best = i
			}
		}
		blocks[fracs[best].i].Devices++
		fracs[best].f = -1
		assigned++
	}
	for assigned > totalDevices {
		// Reclaim from the largest block that can spare a device.
		big := -1
		for i := range blocks {
			if blocks[i].Devices > 1 && (big < 0 || blocks[i].Devices > blocks[big].Devices) {
				big = i
			}
		}
		if big < 0 {
			break
		}
		blocks[big].Devices--
		assigned--
	}
}
