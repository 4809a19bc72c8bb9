package obdrel

import (
	"context"
	"fmt"

	"obdrel/internal/blod"
	"obdrel/internal/core"
	"obdrel/internal/floorplan"
	"obdrel/internal/grid"
	"obdrel/internal/obd"
	"obdrel/internal/obs"
	"obdrel/internal/par"
	"obdrel/internal/pipeline"
	"obdrel/internal/power"
	"obdrel/internal/thermal"
)

// The stage names of the analysis graph, in dependency order. Each
// stage produces one immutable artifact, cached under a fingerprint
// of only the inputs it depends on (see fingerprint.go for the
// canonical segments and DESIGN.md §9 for the dependency table):
//
//	floorplan ──┬─────────────► thermal ──► weibull ──┐
//	  ┆         │  powermap ──────┘  ┆                 ├─► chip
//	  ┆         └─► covariance ─┬─► blod ──────────────┘
//	  ┆                         └─► pca   (sampling engines only)
//	  └┄┄► thermalop ┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┄┘   (lazy, per die and solver grid)
//
// StageHybrid hangs off chip and StageThermalOp off floorplan, but
// neither is a construction stage, so StageNames() leaves both out.
// The analyzer resolves hybrid on first hybrid use. The thermal
// operator — the die's field per watt in each block, which every
// voltage, activity and leakage model shares — is resolved only from
// inside a thermal build, so a node that loads or peer-fills its
// thermal artifacts never builds one. Both are cached, spilled and
// peer-filled like the rest, since the tiers find codecs through
// artifact.Lookup.
const (
	StageFloorplan  = "floorplan"
	StagePowerMap   = "powermap"
	StageThermal    = "thermal"
	StageCovariance = "covariance"
	StagePCA        = "pca"
	StageBLOD       = "blod"
	StageWeibull    = "weibull"
	StageChip       = "chip"
	StageHybrid     = "hybrid"
	StageThermalOp  = "thermalop"
)

// StageNames lists the construction stages in dependency order; it
// omits StageHybrid and StageThermalOp, which resolve lazily.
func StageNames() []string {
	return []string{
		StageFloorplan, StagePowerMap, StageThermal, StageCovariance,
		StagePCA, StageBLOD, StageWeibull, StageChip,
	}
}

// sharedStages is the process-wide stage-artifact cache used by
// NewAnalyzer, the mission and trace constructors, and the serving
// layer. Every artifact is immutable after its build, so sharing
// across analyzers is safe; 64 entries per stage comfortably covers a
// MaxVDD bisection's probe set plus a table sweep.
var sharedStages = pipeline.NewCache(64)

// Stages returns the process-wide stage cache — for observability
// (Snapshot on /metrics) and capacity tuning by daemons.
func Stages() *pipeline.Cache { return sharedStages }

// StageFingerprints returns the cache key of every analysis stage for
// a (design, config) pair. Keys are canonical: two configs that
// resolve to the same stage inputs share the stage's key, and a knob
// perturbs exactly the keys of the stages depending on it. A nil
// config selects DefaultConfig, matching NewAnalyzer.
func StageFingerprints(d *Design, cfg *Config) map[string]string {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	return stageKeys(d.Fingerprint(), d.W, d.H, cfg)
}

// stageKeys computes all stage cache keys from the design fingerprint
// and die geometry — everything a stage consumes from the design half.
// Each config segment is written once, newline-terminated, into segs;
// every key then hashes its stage name, the design fingerprint where
// the stage reads the floorplan, and the segments it depends on, which
// sit in segs in the order the keys hash them.
func stageKeys(dfp string, dieW, dieH float64, cfg *Config) map[string]string {
	var segBuf, keyBuf [1024]byte
	segs := cfg.segPower(segBuf[:0]).end()
	endPower := len(segs)
	segs = cfg.segThermal(segs).end()
	endThermal := len(segs)
	segs = cfg.segCovariance(segs, dieW, dieH).end()
	endCov := len(segs)
	segs = cfg.segPCA(segs, dieW, dieH).end()
	endPCA := len(segs)
	segs = cfg.segWeibull(segs).end()
	power, powerThermal := segs[:endPower], segs[:endThermal]
	cov, pca, weib := segs[endThermal:endCov], segs[endCov:endPCA], segs[endPCA:]
	k := keyText(keyBuf[:0])
	ks := map[string]string{
		StageFloorplan:  fp16(StageFloorplan, dfp),
		StagePowerMap:   k.line(StagePowerMap).lines(power).sum(),
		StageThermal:    k.line(StageThermal).line(dfp).lines(powerThermal).sum(),
		StageCovariance: k.line(StageCovariance).lines(cov).sum(),
		StagePCA:        k.line(StagePCA).lines(pca).sum(),
		StageBLOD:       k.line(StageBLOD).line(dfp).lines(cov).sum(),
		StageWeibull:    k.line(StageWeibull).line(dfp).lines(powerThermal).lines(weib).sum(),
	}
	ks[StageChip] = fp16(StageChip, ks[StageBLOD], ks[StageWeibull])
	return ks
}

// weibullArtifact is the weibull stage's output: the per-block device
// Weibull parameters α(T,V)/b(T,V) at each block's operating point,
// the optional extrinsic-population parameters, and the operating
// points themselves for reporting.
type weibullArtifact struct {
	params []obd.Params
	ext    []obd.ExtrinsicParams
	info   []BlockInfo
}

// stageGraph resolves one analyzer construction through the stage
// cache. It carries the resolved config components and the
// precomputed stage keys; artifacts flow through return values so a
// build never reaches around the cache.
type stageGraph struct {
	cache *pipeline.Cache
	d     *Design
	dfp   string // d.Fingerprint()
	cfg   *Config
	tech  *obd.Tech
	pm    *power.Model
	ts    *thermal.Solver
	keys  map[string]string
}

// stageGet adapts pipeline.Get to the graph's needs: typed artifact
// out, cache-result bookkeeping dropped (the cache keeps its own
// stats).
func stageGet[O any](ctx context.Context, c *pipeline.Cache, stage, key string, build func(context.Context) (O, error)) (O, error) {
	v, _, err := pipeline.Get(ctx, c, stage, key, build)
	return v, err
}

func (g *stageGraph) floorplan(ctx context.Context) (*floorplan.Design, error) {
	return stageGet(ctx, g.cache, StageFloorplan, g.keys[StageFloorplan],
		func(context.Context) (*floorplan.Design, error) {
			return g.d.internal()
		})
}

func (g *stageGraph) powermap(ctx context.Context) (*power.Model, error) {
	return stageGet(ctx, g.cache, StagePowerMap, g.keys[StagePowerMap],
		func(context.Context) (*power.Model, error) {
			if err := g.pm.Validate(); err != nil {
				return nil, err
			}
			return g.pm, nil
		})
}

func (g *stageGraph) thermal(ctx context.Context, fd *floorplan.Design, pm *power.Model) (*thermal.CoupledResult, error) {
	return stageGet(ctx, g.cache, StageThermal, g.keys[StageThermal],
		func(bctx context.Context) (*thermal.CoupledResult, error) {
			op, err := g.thermalOp(bctx, fd)
			if err != nil {
				return nil, fmt.Errorf("obdrel: thermal analysis: %w", err)
			}
			veff := g.cfg.thermalVDD()
			coupled, err := g.ts.SolveCoupledCtx(bctx, op, fd, func(temps []float64) ([]float64, error) {
				return pm.DesignPowers(fd, veff, temps)
			}, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("obdrel: thermal analysis: %w", err)
			}
			return coupled, nil
		})
}

// thermalOp resolves the die's thermal operator, keyed by the
// floorplan and the solver's grid and conductances only. Only the
// thermal build closures call it.
func (g *stageGraph) thermalOp(ctx context.Context, fd *floorplan.Design) (*thermal.Operator, error) {
	return stageGet(ctx, g.cache, StageThermalOp, thermalOpKey(g.keys[StageFloorplan], g.cfg),
		func(context.Context) (*thermal.Operator, error) {
			return g.ts.NewOperator(fd, g.cfg.Workers)
		})
}

func (g *stageGraph) covariance(ctx context.Context) (*grid.Model, error) {
	return stageGet(ctx, g.cache, StageCovariance, g.keys[StageCovariance],
		func(context.Context) (*grid.Model, error) {
			return g.cfg.variationModel(g.d.W, g.d.H)
		})
}

func (g *stageGraph) pca(ctx context.Context, model *grid.Model) (*grid.PCA, error) {
	return stageGet(ctx, g.cache, StagePCA, g.keys[StagePCA],
		func(bctx context.Context) (*grid.PCA, error) {
			keep := g.cfg.resolvedKeep()
			// Build-only annotations: this closure runs once per cache
			// miss, so boxing the values is off the hot path.
			obs.Annotate(bctx, "keep", keep)
			return model.ComputePCACtx(bctx, keep, g.cfg.Workers)
		})
}

// pcaResolver returns the analyzer's handle on the pca stage: each
// call resolves it through the cache again instead of pinning the
// artifact.
func (g *stageGraph) pcaResolver(model *grid.Model) func(context.Context) (*grid.PCA, error) {
	return func(ctx context.Context) (*grid.PCA, error) {
		return g.pca(ctx, model)
	}
}

// hybridResolver returns the analyzer's handle on the hybrid stage:
// the per-block ln D_j tables of chip, keyed by chipKey and the table
// geometry. Like pcaResolver it resolves through the cache on each
// call; the engine calls it once, when it is built.
func (g *stageGraph) hybridResolver(chip *core.Chip, chipKey string) func(context.Context) (*hybridTables, error) {
	return func(ctx context.Context) (*hybridTables, error) {
		return stageGet(ctx, g.cache, StageHybrid, hybridTableKey(chipKey, g.cfg),
			func(context.Context) (*hybridTables, error) {
				e, err := core.NewHybrid(chip, core.HybridOptions{
					NL: g.cfg.HybridNL, NB: g.cfg.HybridNB, L0: g.cfg.L0,
					Workers: g.cfg.Workers,
				})
				if err != nil {
					return nil, err
				}
				ls, bs, blocks := e.TableData()
				return &hybridTables{ls: ls, bs: bs, blocks: blocks}, nil
			})
	}
}

func (g *stageGraph) blod(ctx context.Context, fd *floorplan.Design, model *grid.Model) (*blod.Characterization, error) {
	return stageGet(ctx, g.cache, StageBLOD, g.keys[StageBLOD],
		func(bctx context.Context) (*blod.Characterization, error) {
			obs.Annotate(bctx, "blocks", len(fd.Blocks))
			return blod.CharacterizeCtx(bctx, fd, model)
		})
}

func (g *stageGraph) weibull(ctx context.Context, fd *floorplan.Design, coupled *thermal.CoupledResult) (*weibullArtifact, error) {
	return stageGet(ctx, g.cache, StageWeibull, g.keys[StageWeibull],
		func(bctx context.Context) (*weibullArtifact, error) {
			obs.Annotate(bctx, "blocks", len(fd.Blocks))
			obs.Annotate(bctx, "vdd_v", g.cfg.VDD)
			blockTemp := func(i int) float64 {
				if g.cfg.UseBlockMaxTemp {
					return coupled.BlockMax[i]
				}
				return coupled.BlockMean[i]
			}
			w := &weibullArtifact{
				params: make([]obd.Params, len(fd.Blocks)),
				info:   make([]BlockInfo, len(fd.Blocks)),
			}
			for i := range fd.Blocks {
				if err := bctx.Err(); err != nil {
					return nil, err
				}
				p, err := g.tech.Characterize(blockTemp(i), g.cfg.VDD)
				if err != nil {
					return nil, fmt.Errorf("obdrel: block %q: %w", fd.Blocks[i].Name, err)
				}
				w.params[i] = p
				w.info[i] = BlockInfo{
					Name:      fd.Blocks[i].Name,
					MeanTempC: coupled.BlockMean[i],
					MaxTempC:  coupled.BlockMax[i],
					PowerW:    coupled.Powers[i],
					Alpha:     p.Alpha,
					B:         p.B,
					Devices:   fd.Blocks[i].Devices,
				}
			}
			if g.cfg.Extrinsic != nil {
				w.ext = make([]obd.ExtrinsicParams, len(fd.Blocks))
				for i := range fd.Blocks {
					ep, err := g.tech.CharacterizeExtrinsic(g.cfg.Extrinsic, blockTemp(i), g.cfg.VDD)
					if err != nil {
						return nil, fmt.Errorf("obdrel: block %q extrinsic: %w", fd.Blocks[i].Name, err)
					}
					w.ext[i] = ep
				}
			}
			return w, nil
		})
}

func (g *stageGraph) chip(ctx context.Context, fd *floorplan.Design, model *grid.Model, char *blod.Characterization, w *weibullArtifact) (*core.Chip, error) {
	return stageGet(ctx, g.cache, StageChip, g.keys[StageChip],
		func(context.Context) (*core.Chip, error) {
			return assembleChip(fd, model, char, w)
		})
}

// assembleChip builds the chip from its substrate and per-block
// Weibull parameters. SetExtrinsic mutates the chip; it happens only
// here, before the chip reaches the cache or an analyzer, so every
// chip is immutable to its consumers.
func assembleChip(fd *floorplan.Design, model *grid.Model, char *blod.Characterization, w *weibullArtifact) (*core.Chip, error) {
	chip, err := core.NewChip(fd, model, char, w.params)
	if err != nil {
		return nil, err
	}
	if w.ext != nil {
		if err := chip.SetExtrinsic(w.ext); err != nil {
			return nil, err
		}
	}
	return chip, nil
}

// newStageGraph is the prologue every analyzer constructor shares: it
// validates cfg (nil selects DefaultConfig) and d, then resolves the
// floorplan and power-map stages with the technology validated between
// them.
func newStageGraph(ctx context.Context, cache *pipeline.Cache, d *Design, cfg *Config) (*stageGraph, *floorplan.Design, *power.Model, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if d == nil {
		return nil, nil, nil, errNilDesign
	}
	dfp := d.Fingerprint()
	g := &stageGraph{
		cache: cache,
		d:     d,
		dfp:   dfp,
		cfg:   cfg,
		tech:  cfg.resolvedTech(),
		pm:    cfg.resolvedPower(),
		ts:    cfg.resolvedThermal(),
		keys:  stageKeys(dfp, d.W, d.H, cfg),
	}
	fd, err := g.floorplan(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := g.tech.Validate(); err != nil {
		return nil, nil, nil, err
	}
	pm, err := g.powermap(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, fd, pm, nil
}

// substrate resolves the voltage-independent tail every constructor
// shares: covariance, then PCA and BLOD side by side. BLOD reads only
// the covariance model, so the two builds are independent; they run
// as one par.ForCtx pair over cfg.Workers, and with Workers resolving
// to 1 the PCA resolves first and BLOD second, inline. A PCA error
// cancels BLOD and wins over BLOD's error, as the serial order would
// have it; both resolutions have returned when substrate does. The
// PCA is resolved eagerly so its errors surface here and its build is
// attributed to this construction, but not retained.
func (g *stageGraph) substrate(ctx context.Context, fd *floorplan.Design) (*grid.Model, *blod.Characterization, error) {
	model, err := g.covariance(ctx)
	if err != nil {
		return nil, nil, err
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var char *blod.Characterization
	var pcaErr, blodErr error
	err = par.ForCtx(pctx, g.cfg.Workers, 2, func(i int) {
		if i == 0 {
			if _, pcaErr = g.pca(pctx, model); pcaErr != nil {
				cancel()
			}
			return
		}
		char, blodErr = g.blod(pctx, fd, model)
	})
	switch {
	case pcaErr != nil:
		return nil, nil, pcaErr
	case blodErr != nil:
		return nil, nil, blodErr
	case err != nil:
		return nil, nil, err
	}
	return model, char, nil
}

// analyzer wraps a resolved chip in the query facade; chipKey names
// the chip's hybrid tables in the stage cache.
func (g *stageGraph) analyzer(fd *floorplan.Design, model *grid.Model, chip *core.Chip, chipKey string, info []BlockInfo, field *thermal.Field) *Analyzer {
	return &Analyzer{
		cfg:       g.cfg,
		design:    fd,
		model:     model,
		pca:       g.pcaResolver(model),
		hybrid:    g.hybridResolver(chip, chipKey),
		chip:      chip,
		tech:      g.tech,
		blockInfo: info,
		field:     field,
		engines:   make(map[Method]core.Engine),
	}
}

// NewAnalyzerCtxIn is NewAnalyzerCtx against an explicit stage cache
// instead of the process-wide one. The serving layer uses it to give
// each node its own stage cache (with its own disk/peer tiers), which
// is also what lets a multi-node cluster run inside one test process
// without the nodes sharing artifacts through sharedStages. A nil
// cache disables caching entirely: every stage builds under ctx, with
// no flights. Stages resolve in dependency order, with the same
// validation sequence and error wrapping as the pre-stage-graph
// monolithic constructor, except that the PCA and BLOD resolve side
// by side (see substrate). With cfg.Workers resolving to 1 they
// resolve PCA first, so the order is that constructor's exactly; at
// any worker count a PCA error wins over a BLOD error.
func NewAnalyzerCtxIn(ctx context.Context, cache *pipeline.Cache, d *Design, cfg *Config) (*Analyzer, error) {
	g, fd, pm, err := newStageGraph(ctx, cache, d, cfg)
	if err != nil {
		return nil, err
	}
	coupled, err := g.thermal(ctx, fd, pm)
	if err != nil {
		return nil, err
	}
	model, char, err := g.substrate(ctx, fd)
	if err != nil {
		return nil, err
	}
	w, err := g.weibull(ctx, fd, coupled)
	if err != nil {
		return nil, err
	}
	chip, err := g.chip(ctx, fd, model, char, w)
	if err != nil {
		return nil, err
	}
	return g.analyzer(fd, model, chip, g.keys[StageChip], w.info, coupled.Field), nil
}
