package floorplan

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBenchmarkDeviceCounts(t *testing.T) {
	cases := []struct {
		d      *Design
		want   int
		blocks int
	}{
		{C1(), 50_000, 8},
		{C2(), 80_000, 10},
		{C3(), 100_000, 12},
		{C4(), 200_000, 12},
		{C5(), 500_000, 14},
		{C6(), 840_000, 15},
	}
	for _, c := range cases {
		if got := totalDevices(c.d); got != c.want {
			t.Errorf("%s: %d devices, want %d", c.d.Name, got, c.want)
		}
		if got := len(c.d.Blocks); got != c.blocks {
			t.Errorf("%s: %d blocks, want %d", c.d.Name, got, c.blocks)
		}
		if err := c.d.Validate(); err != nil {
			t.Errorf("%s: %v", c.d.Name, err)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	a, b := C3(), C3()
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatal("block counts differ between invocations")
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatalf("block %d differs between invocations: %+v vs %+v", i, a.Blocks[i], b.Blocks[i])
		}
	}
}

func TestSyntheticTilesTheDie(t *testing.T) {
	d, err := Synthetic("t", 9, 10_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	area := 0.0
	for i := range d.Blocks {
		area += d.Blocks[i].Area()
	}
	if math.Abs(area-1) > 1e-9 {
		t.Errorf("blocks cover area %v, want 1", area)
	}
}

func TestSyntheticValidatesInputs(t *testing.T) {
	if _, err := Synthetic("t", 0, 100, 1); err == nil {
		t.Error("zero blocks should error")
	}
	if _, err := Synthetic("t", 10, 5, 1); err == nil {
		t.Error("fewer devices than blocks should error")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	d := &Design{
		Name: "bad", W: 1, H: 1,
		Blocks: []Block{
			{Name: "a", X: 0, Y: 0, W: 0.6, H: 1, Devices: 10, Activity: 0.5},
			{Name: "b", X: 0.5, Y: 0, W: 0.5, H: 1, Devices: 10, Activity: 0.5},
		},
	}
	if err := d.Validate(); err == nil {
		t.Error("overlapping blocks should fail validation")
	}
}

func TestValidateCatchesOutOfBounds(t *testing.T) {
	d := &Design{
		Name: "bad", W: 1, H: 1,
		Blocks: []Block{
			{Name: "a", X: 0.8, Y: 0, W: 0.5, H: 0.5, Devices: 10, Activity: 0.5},
		},
	}
	if err := d.Validate(); err == nil {
		t.Error("out-of-bounds block should fail validation")
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	base := func() *Design {
		return &Design{
			Name: "d", W: 1, H: 1,
			Blocks: []Block{{Name: "a", X: 0, Y: 0, W: 1, H: 1, Devices: 10, Activity: 0.5}},
		}
	}
	d := base()
	d.Blocks[0].Devices = 0
	if err := d.Validate(); err == nil {
		t.Error("zero devices should fail")
	}
	d = base()
	d.Blocks[0].W = 0
	if err := d.Validate(); err == nil {
		t.Error("zero width should fail")
	}
	d = base()
	d.Blocks[0].Activity = 1.5
	if err := d.Validate(); err == nil {
		t.Error("activity > 1 should fail")
	}
	d = base()
	d.W = 0
	if err := d.Validate(); err == nil {
		t.Error("zero die width should fail")
	}
	d = base()
	d.Blocks = nil
	if err := d.Validate(); err == nil {
		t.Error("empty design should fail")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassCache: "cache", ClassRegFile: "regfile", ClassControl: "control",
		ClassALU: "alu", ClassFPU: "fpu", ClassQueue: "queue",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Class(99).String(); got != "class(99)" {
		t.Errorf("unknown class = %q", got)
	}
}

func TestManyCore(t *testing.T) {
	d, err := ManyCore(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != 32 {
		t.Errorf("blocks = %d, want 32", len(d.Blocks))
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
	if got := totalDevices(d); got != 16000 {
		t.Errorf("devices = %d, want 16000", got)
	}
	if _, err := ManyCore(0, 1000); err == nil {
		t.Error("zero cores should error")
	}
	if _, err := ManyCore(2, 1); err == nil {
		t.Error("one device per tile should error")
	}
}

// Property: Synthetic always produces a valid design with the exact
// device count for any sane parameters.
func TestSyntheticProperty(t *testing.T) {
	f := func(seed int64, rawBlocks, rawDev uint8) bool {
		nBlocks := 1 + int(rawBlocks)%20
		devices := nBlocks + int(rawDev)*100
		d, err := Synthetic("p", nBlocks, devices, seed)
		if err != nil {
			return false
		}
		return d.Validate() == nil && totalDevices(d) == devices && len(d.Blocks) == nBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// totalDevices returns the design's device count m.
func totalDevices(d *Design) int {
	n := 0
	for i := range d.Blocks {
		n += d.Blocks[i].Devices
	}
	return n
}
