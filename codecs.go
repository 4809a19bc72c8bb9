package obdrel

import (
	"errors"
	"fmt"
	"sort"

	"obdrel/internal/artifact"
	"obdrel/internal/blod"
	"obdrel/internal/core"
	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/integrate"
	"obdrel/internal/obd"
	"obdrel/internal/power"
	"obdrel/internal/thermal"
)

// This file registers the artifact codec of every analysis stage, in
// the package that owns the artifact types (the weibull artifact is
// unexported, so registration cannot live anywhere else). Payloads
// are flat little-endian field dumps via artifact.Writer/Reader:
// floats travel as IEEE-754 bit patterns, so Decode(Encode(v)) is
// bit-identical and a peer-filled or disk-loaded artifact answers
// queries exactly like the locally built one.
//
// Invariants the codecs rely on:
//   - every stage artifact is immutable after its build (the stage
//     cache contract), so encoding never races a writer;
//   - the fingerprint key already versions the *inputs*; the codec
//     only needs to version the *layout*, which the container's
//     format version covers.
//
// A reflection-guarded test (codecs_test.go) pins that every stage in
// StageNames(), StageHybrid and StageThermalOp has a codec, and that
// FuzzStageDecode reaches it, so a new stage cannot silently become
// non-spillable or unfuzzed.
//
// Each stage is one artifact.Register call on an enc/dec pair;
// Register owns the type assertion, the Writer and Reader, and the
// trailing-byte check. The decoders of artifacts that also travel
// inside another (floorplan, grid model, blod) report failures through
// the reader alone and register through readOnly.

func init() {
	artifact.Register(StageFloorplan, encFloorplan, readOnly(decFloorplan))
	artifact.Register(StagePowerMap, encPower, readOnly(decPower))
	artifact.Register(StageThermal, encThermal, decThermal)
	artifact.Register(StageThermalOp, encThermalOp, decThermalOp)
	artifact.Register(StageCovariance, encGridModel, readOnly(decGridModel))
	artifact.Register(StagePCA, encPCA, decPCA)
	artifact.Register(StageBLOD, encBlod, readOnly(decBlod))
	artifact.Register(StageWeibull, encWeibull, decWeibull)
	artifact.Register(StageChip, encChip, decChip)
	artifact.Register(StageHybrid, encHybrid, decHybrid)
}

// readOnly adapts a decoder whose every failure poisons the reader to
// the signature artifact.Register takes.
func readOnly[T any](dec func(*artifact.Reader) T) func(*artifact.Reader) (T, error) {
	return func(r *artifact.Reader) (T, error) { return dec(r), nil }
}

func encThermal(w *artifact.Writer, cr *thermal.CoupledResult) {
	w.Bool(cr.Field != nil)
	if cr.Field != nil {
		w.Int(cr.Field.Nx)
		w.Int(cr.Field.Ny)
		w.F64(cr.Field.W)
		w.F64(cr.Field.H)
		w.F64s(cr.Field.Temps)
		w.Int(cr.Field.Iterations)
	}
	w.F64s(cr.BlockMean)
	w.F64s(cr.BlockMax)
	w.F64s(cr.Powers)
	w.Int(cr.Rounds)
}

func decThermal(r *artifact.Reader) (*thermal.CoupledResult, error) {
	cr := &thermal.CoupledResult{}
	if r.Bool() {
		cr.Field = &thermal.Field{
			Nx: r.Int(), Ny: r.Int(),
			W: r.F64(), H: r.F64(),
			Temps: r.F64s(), Iterations: r.Int(),
		}
	}
	cr.BlockMean = r.F64s()
	cr.BlockMax = r.F64s()
	cr.Powers = r.F64s()
	cr.Rounds = r.Int()
	// Shape checks, so a checksum-valid but malformed payload fails the
	// load and rebuilds instead of reaching the weibull stage's
	// per-block indexing.
	if f := cr.Field; f != nil && (f.Nx <= 0 || f.Ny <= 0 || f.Nx > len(f.Temps) || f.Ny > len(f.Temps) || f.Nx*f.Ny != len(f.Temps)) {
		return nil, fmt.Errorf("obdrel: thermal artifact: %dx%d field with %d cells", f.Nx, f.Ny, len(f.Temps))
	}
	if n := len(cr.BlockMean); len(cr.BlockMax) != n || len(cr.Powers) != n {
		return nil, errors.New("obdrel: thermal artifact: per-block lengths differ")
	}
	return cr, nil
}

func encThermalOp(w *artifact.Writer, op *thermal.Operator) {
	w.Int(op.Nx)
	w.Int(op.Ny)
	w.F64(op.W)
	w.F64(op.H)
	w.Int(op.B)
	w.F64s(op.CellRise)
	w.F64s(op.MeanRise)
}

func decThermalOp(r *artifact.Reader) (*thermal.Operator, error) {
	op := &thermal.Operator{
		Nx: r.Int(), Ny: r.Int(),
		W: r.F64(), H: r.F64(),
		B:        r.Int(),
		CellRise: r.F64s(),
		MeanRise: r.F64s(),
	}
	if err := op.Validate(); err != nil {
		return nil, fmt.Errorf("obdrel: thermal operator artifact: %w", err)
	}
	return op, nil
}

func encWeibull(w *artifact.Writer, wa *weibullArtifact) {
	encObdParams(w, wa.params)
	encExtrinsic(w, wa.ext)
	w.Int(len(wa.info))
	for _, bi := range wa.info {
		w.String(bi.Name)
		w.F64(bi.MeanTempC)
		w.F64(bi.MaxTempC)
		w.F64(bi.PowerW)
		w.F64(bi.Alpha)
		w.F64(bi.B)
		w.Int(bi.Devices)
	}
}

func decWeibull(r *artifact.Reader) (*weibullArtifact, error) {
	wa := &weibullArtifact{params: decObdParams(r), ext: decExtrinsic(r)}
	wa.info = make([]BlockInfo, r.Len(8))
	for i := range wa.info {
		wa.info[i] = BlockInfo{
			Name:      r.String(),
			MeanTempC: r.F64(),
			MaxTempC:  r.F64(),
			PowerW:    r.F64(),
			Alpha:     r.F64(),
			B:         r.F64(),
			Devices:   r.Int(),
		}
	}
	// The chip assembles from params, while /v1/blocks lists info and
	// BurnIn indexes params by it, so every per-block slice has one
	// entry per block.
	if n := len(wa.params); len(wa.info) != n || (wa.ext != nil && len(wa.ext) != n) {
		return nil, fmt.Errorf("obdrel: weibull artifact: %d parameter sets, %d block infos, %d extrinsic sets",
			n, len(wa.info), len(wa.ext))
	}
	return wa, nil
}

func encChip(w *artifact.Writer, chip *core.Chip) {
	encFloorplan(w, chip.Design)
	encGridModel(w, chip.Model)
	encBlod(w, chip.Char)
	encObdParams(w, chip.Params)
	encExtrinsic(w, chip.Extrinsic)
}

// decChip reassembles through the real constructor, so a decoded chip
// passes the exact validation a built one does: a corrupt but
// checksum-valid payload cannot smuggle in an inconsistent chip.
func decChip(r *artifact.Reader) (*core.Chip, error) {
	fd, m, ch := decFloorplan(r), decGridModel(r), decBlod(r)
	return assembleChip(fd, m, ch, &weibullArtifact{params: decObdParams(r), ext: decExtrinsic(r)})
}

func encHybrid(w *artifact.Writer, ht *hybridTables) {
	w.F64s(ht.ls)
	w.F64s(ht.bs)
	w.Int(len(ht.blocks))
	for _, b := range ht.blocks {
		w.F64s(b)
	}
}

func decHybrid(r *artifact.Reader) (*hybridTables, error) {
	ht := &hybridTables{ls: r.F64s(), bs: r.F64s()}
	// 9 bytes is an empty F64s: presence flag plus length.
	ht.blocks = make([][]float64, r.Len(9))
	for i := range ht.blocks {
		ht.blocks[i] = r.F64s()
	}
	// Validate the geometry a table needs (finite, increasing axes;
	// nl·nb entries per block) here, so a checksum-valid but malformed
	// payload fails the load and rebuilds. The block count is the
	// chip's to check, at engine build.
	if len(ht.blocks) == 0 {
		return nil, errors.New("obdrel: hybrid artifact: no block tables")
	}
	for i, b := range ht.blocks {
		if _, err := integrate.NewTable2DFromData(ht.ls, ht.bs, b); err != nil {
			return nil, fmt.Errorf("obdrel: hybrid artifact: block %d: %w", i, err)
		}
	}
	return ht, nil
}

func encFloorplan(w *artifact.Writer, fd *floorplan.Design) {
	w.Bool(fd != nil)
	if fd == nil {
		return
	}
	w.String(fd.Name)
	w.F64(fd.W)
	w.F64(fd.H)
	w.Int(len(fd.Blocks))
	for i := range fd.Blocks {
		b := &fd.Blocks[i]
		w.String(b.Name)
		w.F64(b.X)
		w.F64(b.Y)
		w.F64(b.W)
		w.F64(b.H)
		w.Int(b.Devices)
		w.Int(int(b.Class))
		w.F64(b.Activity)
	}
}

func decFloorplan(r *artifact.Reader) *floorplan.Design {
	if !r.Bool() {
		return nil
	}
	fd := &floorplan.Design{
		Name: r.String(),
		W:    r.F64(),
		H:    r.F64(),
	}
	n := r.Len(8)
	fd.Blocks = make([]floorplan.Block, n)
	for i := range fd.Blocks {
		fd.Blocks[i] = floorplan.Block{
			Name: r.String(),
			X:    r.F64(), Y: r.F64(), W: r.F64(), H: r.F64(),
			Devices:  r.Int(),
			Class:    floorplan.Class(r.Int()),
			Activity: r.F64(),
		}
	}
	// Every built design is valid, and the powermap, thermal and chip
	// stages place blocks by it, so a payload describing an invalid one
	// fails the read.
	if r.Err() == nil {
		if err := fd.Validate(); err != nil {
			r.Fail("%v", err)
		}
	}
	return fd
}

func encPower(w *artifact.Writer, pm *power.Model) {
	w.Bool(pm != nil)
	if pm == nil {
		return
	}
	w.F64(pm.VNom)
	w.F64(pm.LeakDensity0)
	w.F64(pm.LeakTCoeff)
	w.F64(pm.TRef)
	// Maps have no iteration order; sort by class so the encoding —
	// and therefore the sealed checksum — is canonical.
	w.Bool(pm.DynDensity != nil)
	classes := make([]int, 0, len(pm.DynDensity))
	for c := range pm.DynDensity {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	w.Int(len(classes))
	for _, c := range classes {
		w.Int(c)
		w.F64(pm.DynDensity[floorplan.Class(c)])
	}
}

func decPower(r *artifact.Reader) *power.Model {
	if !r.Bool() {
		return nil
	}
	pm := &power.Model{
		VNom:         r.F64(),
		LeakDensity0: r.F64(),
		LeakTCoeff:   r.F64(),
		TRef:         r.F64(),
	}
	hasMap := r.Bool()
	n := r.Len(16)
	if !hasMap {
		if n != 0 {
			r.Fail("powermap without a class map lists %d classes", n)
		}
		return pm
	}
	// encPower writes each class once in ascending order; anything else
	// would decode to the same model but re-encode differently.
	pm.DynDensity = make(map[floorplan.Class]float64, n)
	for i, prev := 0, 0; i < n; i++ {
		c := r.Int()
		if i > 0 && c <= prev {
			r.Fail("powermap classes not strictly increasing at %d", i)
			return pm
		}
		prev = c
		pm.DynDensity[floorplan.Class(c)] = r.F64()
	}
	return pm
}

func encGridModel(w *artifact.Writer, m *grid.Model) {
	w.Bool(m != nil)
	if m == nil {
		return
	}
	w.F64(m.U0)
	w.F64(m.W)
	w.F64(m.H)
	w.Int(m.Nx)
	w.Int(m.Ny)
	w.F64(m.SigmaG)
	w.F64(m.SigmaS)
	w.F64(m.SigmaE)
	w.F64(m.RhoDist)
	w.Int(int(m.Structure))
	w.Int(m.QTLevels)
	w.F64(m.QTDecay)
	w.Bool(m.Pattern != nil)
	if m.Pattern != nil {
		w.F64(m.Pattern.DieX)
		w.F64(m.Pattern.DieY)
		w.F64(m.Pattern.DieSpan)
		w.F64(m.Pattern.Bowl)
		w.F64(m.Pattern.SlantX)
		w.F64(m.Pattern.SlantY)
	}
}

func decGridModel(r *artifact.Reader) *grid.Model {
	if !r.Bool() {
		return nil
	}
	m := &grid.Model{
		U0: r.F64(), W: r.F64(), H: r.F64(),
		Nx: r.Int(), Ny: r.Int(),
		SigmaG: r.F64(), SigmaS: r.F64(), SigmaE: r.F64(),
		RhoDist:   r.F64(),
		Structure: grid.Structure(r.Int()),
		QTLevels:  r.Int(),
		QTDecay:   r.F64(),
	}
	if r.Bool() {
		m.Pattern = &grid.WaferPattern{
			DieX: r.F64(), DieY: r.F64(), DieSpan: r.F64(),
			Bowl: r.F64(), SlantX: r.F64(), SlantY: r.F64(),
		}
	}
	// Every built model is valid, and the PCA and BLOD stages index by
	// its grid, so a payload describing an invalid one fails the read.
	if r.Err() == nil {
		if err := m.Validate(); err != nil {
			r.Fail("%v", err)
		}
	}
	return m
}

// encPCA writes the block form of a PCA: the grid, then each block's
// retained eigenvalues and scaled columns. The block basis, component
// order and K are implied by the grid and block count, so grid.NewPCA
// re-derives them on decode.
func encPCA(w *artifact.Writer, p *grid.PCA) {
	w.Int(p.Nx)
	w.Int(p.Ny)
	w.Int(len(p.Blocks))
	for _, b := range p.Blocks {
		w.F64s(b.Eigenvalues)
		w.F64s(b.Loadings)
	}
	w.F64(p.TotalVariance)
	w.F64(p.CapturedVariance)
}

func decPCA(r *artifact.Reader) (*grid.PCA, error) {
	nx, ny, nb := r.Int(), r.Int(), r.Int()
	if nb < 0 || nb > 4 {
		return nil, errors.New("obdrel: pca artifact: bad block count")
	}
	blocks := make([]grid.PCABlock, nb)
	for i := range blocks {
		blocks[i].Eigenvalues = r.F64s()
		blocks[i].Loadings = r.F64s()
	}
	p, err := grid.NewPCA(nx, ny, blocks, r.F64(), r.F64())
	if err != nil {
		return nil, fmt.Errorf("obdrel: pca artifact: %w", err)
	}
	return p, nil
}

func encBlod(w *artifact.Writer, ch *blod.Characterization) {
	w.Bool(ch != nil)
	if ch == nil {
		return
	}
	w.Int(len(ch.Blocks))
	for i := range ch.Blocks {
		b := &ch.Blocks[i]
		w.String(b.Name)
		w.F64(b.MJ)
		w.F64(b.AJ)
		w.F64(b.U0)
		w.F64(b.USigma)
		w.F64(b.V0)
		w.F64(b.TrB)
		w.F64(b.TrB2)
		w.F64(b.AHat)
		w.F64(b.BHat)
		w.Bool(b.Degenerate)
		w.Ints(b.Grids)
		w.F64s(b.Weights)
		w.F64s(b.NomOff)
	}
	encGridModel(w, ch.Model)
}

func decBlod(r *artifact.Reader) *blod.Characterization {
	if !r.Bool() {
		return nil
	}
	ch := &blod.Characterization{}
	n := r.Len(8)
	ch.Blocks = make([]blod.BlockChar, n)
	for i := range ch.Blocks {
		ch.Blocks[i] = blod.BlockChar{
			Name: r.String(),
			MJ:   r.F64(), AJ: r.F64(), U0: r.F64(), USigma: r.F64(),
			V0: r.F64(), TrB: r.F64(), TrB2: r.F64(),
			AHat: r.F64(), BHat: r.F64(),
			Degenerate: r.Bool(),
			Grids:      r.Ints(),
			Weights:    r.F64s(),
			NomOff:     r.F64s(),
		}
	}
	ch.Model = decGridModel(r)
	return ch
}

func encExtrinsic(w *artifact.Writer, ext []obd.ExtrinsicParams) {
	w.Bool(ext != nil)
	if ext == nil {
		return
	}
	w.Int(len(ext))
	for _, e := range ext {
		w.F64(e.AlphaE)
		w.F64(e.BetaE)
		w.F64(e.DefectFraction)
	}
}

func decExtrinsic(r *artifact.Reader) []obd.ExtrinsicParams {
	if !r.Bool() {
		return nil
	}
	ext := make([]obd.ExtrinsicParams, r.Len(24))
	for i := range ext {
		ext[i] = obd.ExtrinsicParams{AlphaE: r.F64(), BetaE: r.F64(), DefectFraction: r.F64()}
	}
	return ext
}

func encObdParams(w *artifact.Writer, ps []obd.Params) {
	w.Bool(ps != nil)
	w.Int(len(ps))
	for _, p := range ps {
		w.F64(p.Alpha)
		w.F64(p.B)
	}
}

func decObdParams(r *artifact.Reader) []obd.Params {
	present := r.Bool()
	n := r.Len(16)
	if !present {
		if n != 0 {
			r.Fail("absent device parameters list %d entries", n)
		}
		return nil
	}
	ps := make([]obd.Params, n)
	for i := range ps {
		ps[i] = obd.Params{Alpha: r.F64(), B: r.F64()}
	}
	return ps
}
