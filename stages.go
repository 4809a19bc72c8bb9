package obdrel

import (
	"context"
	"fmt"
	"sync"

	"obdrel/internal/blod"
	"obdrel/internal/core"
	"obdrel/internal/fault"
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
// Each stage's build pulls its own inputs through the cache when it
// runs: chip pulls blod and weibull, weibull pulls
// thermal, and blod and pca pull covariance. So an artifact a disk or
// peer tier supplies never resolves the stages under it, and an
// analyzer construction asks only for what every answer reads (see
// NewAnalyzerCtxIn).
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
// cache. It carries the resolved config components, the precomputed
// stage keys, and the floorplan and power map the prologue resolved,
// which every build reads. Every other artifact flows through return
// values: each stage's build resolves its own inputs through the cache
// when it runs, so a build never reaches around the cache, and an
// artifact that arrives from a tier never pulls its inputs at all.
type stageGraph struct {
	cache    *pipeline.Cache
	d        *Design
	dfp      string // d.Fingerprint()
	cfg      *Config
	tech     *obd.Tech
	pm       *power.Model
	ts       *thermal.Solver
	keys     map[string]string
	fd       *floorplan.Design // the floorplan stage's artifact
	powerMap *power.Model      // the powermap stage's artifact

	mu sync.Mutex
	// pulls shares each stage's resolution across the construction
	// (see stageGet); nil once the construction has returned.
	pulls map[pullKey]*pulled
}

type pullKey struct{ stage, key string }

// pulled is one stage resolution shared across a construction. Its
// fields are guarded by stageGraph.mu; done is made by the first
// caller that has to wait, and closed once the outcome is in.
type pulled struct {
	finished bool
	done     chan struct{}
	v        any
	err      error
}

// stageGet resolves a stage through the cache, typed, for the
// construction g is running. The first caller for a (stage, key)
// resolves it, and every other caller in the construction — the
// constructor's own list and the builds that pull it as an input —
// shares that outcome, failure included. So a failing input costs
// the construction one build, not one per consumer, and with no cache
// each input builds once. A cancelled resolution is not shared: the
// next caller resolves again under its own context. Once the
// construction has returned, every call goes to the cache, so the
// analyzer's resolvers never pin an artifact.
func stageGet[O any](ctx context.Context, g *stageGraph, stage, key string, build func(context.Context) (O, error)) (O, error) {
	k := pullKey{stage, key}
	for {
		g.mu.Lock()
		if g.pulls == nil {
			g.mu.Unlock()
			return cacheGet(ctx, g, stage, key, build)
		}
		p, shared := g.pulls[k]
		if !shared {
			p = &pulled{}
			g.pulls[k] = p
			g.mu.Unlock()
			// A build shares its artifact the moment it has one, so a
			// consumer waiting on it starts without waiting for this
			// caller to wake.
			v, _, err := pipeline.Get(ctx, g.cache, stage, key, func(bctx context.Context) (O, error) {
				v, err := build(bctx)
				if err == nil {
					g.finish(k, p, v, nil)
				}
				return v, err
			})
			g.finish(k, p, v, err)
			return v, err
		}
		if p.finished {
			g.mu.Unlock()
			return p.v.(O), p.err
		}
		if p.done == nil {
			p.done = make(chan struct{})
		}
		done := p.done
		g.mu.Unlock()
		select {
		case <-done:
			// A cancelled outcome was deleted: the next round resolves
			// again; any other is now finished.
		case <-ctx.Done():
			var zero O
			return zero, ctx.Err()
		}
	}
}

// cacheGet resolves a stage straight through the cache, typed. The
// stages only one caller resolves per construction — the prologue's,
// the thermal operator, the hybrid tables — skip stageGet's sharing.
func cacheGet[O any](ctx context.Context, g *stageGraph, stage, key string, build func(context.Context) (O, error)) (O, error) {
	v, _, err := pipeline.Get(ctx, g.cache, stage, key, build)
	return v, err
}

// finish records a shared resolution's outcome unless one is already
// recorded, and wakes the callers waiting on it. A cancelled outcome
// is dropped instead, so the next caller resolves again.
func (g *stageGraph) finish(k pullKey, p *pulled, v any, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p.finished {
		return
	}
	p.finished, p.v, p.err = true, v, err
	if fault.ClassOf(err) == fault.Cancelled && g.pulls != nil {
		delete(g.pulls, k)
	}
	if p.done != nil {
		close(p.done)
	}
}

// endPulls ends the construction's sharing of resolutions.
func (g *stageGraph) endPulls() {
	g.mu.Lock()
	g.pulls = nil
	g.mu.Unlock()
}

func (g *stageGraph) floorplan(ctx context.Context) (*floorplan.Design, error) {
	return cacheGet(ctx, g, StageFloorplan, g.keys[StageFloorplan],
		func(context.Context) (*floorplan.Design, error) {
			return g.d.internal()
		})
}

func (g *stageGraph) powermap(ctx context.Context) (*power.Model, error) {
	return cacheGet(ctx, g, StagePowerMap, g.keys[StagePowerMap],
		func(context.Context) (*power.Model, error) {
			if err := g.pm.Validate(); err != nil {
				return nil, err
			}
			return g.pm, nil
		})
}

func (g *stageGraph) thermal(ctx context.Context) (*thermal.CoupledResult, error) {
	return stageGet(ctx, g, StageThermal, g.keys[StageThermal],
		func(bctx context.Context) (*thermal.CoupledResult, error) {
			op, err := g.thermalOp(bctx)
			if err != nil {
				return nil, fmt.Errorf("obdrel: thermal analysis: %w", err)
			}
			fd, veff := g.fd, g.cfg.thermalVDD()
			coupled, err := g.ts.SolveCoupledCtx(bctx, op, fd, func(temps []float64) ([]float64, error) {
				return g.powerMap.DesignPowers(fd, veff, temps)
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
func (g *stageGraph) thermalOp(ctx context.Context) (*thermal.Operator, error) {
	return cacheGet(ctx, g, StageThermalOp, thermalOpKey(g.keys[StageFloorplan], g.cfg),
		func(context.Context) (*thermal.Operator, error) {
			return g.ts.NewOperator(g.fd, g.cfg.Workers)
		})
}

func (g *stageGraph) covariance(ctx context.Context) (*grid.Model, error) {
	return stageGet(ctx, g, StageCovariance, g.keys[StageCovariance],
		func(context.Context) (*grid.Model, error) {
			return g.cfg.variationModel(g.d.W, g.d.H)
		})
}

// pca resolves the PCA of the covariance model. The analyzer keeps
// this method as its handle on the stage: each call resolves it
// through the cache again instead of pinning the artifact.
func (g *stageGraph) pca(ctx context.Context) (*grid.PCA, error) {
	return stageGet(ctx, g, StagePCA, g.keys[StagePCA],
		func(bctx context.Context) (*grid.PCA, error) {
			model, err := g.covariance(bctx)
			if err != nil {
				return nil, err
			}
			keep := g.cfg.resolvedKeep()
			// Build-only annotations: this closure runs once per cache
			// miss, so boxing the values is off the hot path.
			obs.Annotate(bctx, "keep", keep)
			return model.ComputePCACtx(bctx, keep, g.cfg.Workers)
		})
}

// hybridResolver returns the analyzer's handle on the hybrid stage:
// the per-block ln D_j tables of chip, keyed by chipKey and the table
// geometry. Like pca it resolves through the cache on each call; the
// engine calls it once, when it is built.
func (g *stageGraph) hybridResolver(chip *core.Chip, chipKey string) func(context.Context) (*hybridTables, error) {
	return func(ctx context.Context) (*hybridTables, error) {
		return cacheGet(ctx, g, StageHybrid, hybridTableKey(chipKey, g.cfg),
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

func (g *stageGraph) blod(ctx context.Context) (*blod.Characterization, error) {
	return stageGet(ctx, g, StageBLOD, g.keys[StageBLOD],
		func(bctx context.Context) (*blod.Characterization, error) {
			model, err := g.covariance(bctx)
			if err != nil {
				return nil, err
			}
			obs.Annotate(bctx, "blocks", len(g.fd.Blocks))
			return blod.CharacterizeCtx(bctx, g.fd, model)
		})
}

func (g *stageGraph) weibull(ctx context.Context) (*weibullArtifact, error) {
	return stageGet(ctx, g, StageWeibull, g.keys[StageWeibull],
		func(bctx context.Context) (*weibullArtifact, error) {
			coupled, err := g.thermal(bctx)
			if err != nil {
				return nil, err
			}
			fd := g.fd
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

// chip pulls BLOD and the Weibull parameters side by side (see
// resolve), so that on a cold node the BLOD build runs beside the
// thermal solve the Weibull stage waits on. The grid model comes with
// the BLOD characterization, which was built from it.
func (g *stageGraph) chip(ctx context.Context) (*core.Chip, error) {
	return stageGet(ctx, g, StageChip, g.keys[StageChip],
		func(bctx context.Context) (*core.Chip, error) {
			var (
				char *blod.Characterization
				w    *weibullArtifact
			)
			if err := g.resolve(bctx, into(g, StageBLOD, &char, g.blod),
				into(g, StageWeibull, &w, g.weibull)); err != nil {
				return nil, err
			}
			return assembleChip(g.fd, char.Model, char, w)
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
func newStageGraph(ctx context.Context, cache *pipeline.Cache, d *Design, cfg *Config) (*stageGraph, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, errNilDesign
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
		pulls: map[pullKey]*pulled{},
	}
	var err error
	if g.fd, err = g.floorplan(ctx); err != nil {
		return nil, err
	}
	if err := g.tech.Validate(); err != nil {
		return nil, err
	}
	if g.powerMap, err = g.powermap(ctx); err != nil {
		return nil, err
	}
	return g, nil
}

// resolution is one entry of a constructor's list: the stage artifact
// it resolves ("" when it resolves several) and the call that does.
type resolution struct {
	stage, key string
	run        func(context.Context) error
}

// into makes the list entry that resolves stage through get and stores
// the artifact in *dst.
func into[O any](g *stageGraph, stage string, dst *O, get func(context.Context) (O, error)) resolution {
	return resolution{stage: stage, key: g.keys[stage], run: func(ctx context.Context) (err error) {
		*dst, err = get(ctx)
		return err
	}}
}

// resolve runs a constructor's resolutions, listed in dependency
// order, and returns the error of the earliest one that failed. With
// cfg.Workers resolving to 1 they run one after another, in order,
// and stop at the first error. Otherwise they all start together and
// resolve returns when every one has: the resolutions wait on flights
// and peers, which is not the CPU work Workers bounds, so it does not
// cap them. An entry whose artifact is already in memory cannot wait,
// so it runs on the calling goroutine, as does the last entry that may
// wait; only the others get goroutines of their own. Each stage's
// build pulls its own inputs; the construction shares each pull (see
// stageGet) and the cache's singleflight coalesces it with other
// constructions, so every stage still builds at most once however the
// resolutions overlap.
func (g *stageGraph) resolve(ctx context.Context, list ...resolution) error {
	if par.Resolve(g.cfg.Workers, len(list)) == 1 {
		for _, r := range list {
			if err := r.run(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(list))
	var wg sync.WaitGroup
	last := -1 // the last entry that may wait, run inline below
	for i, r := range list {
		if r.stage != "" && g.resident(r.stage, r.key) {
			errs[i] = r.run(ctx)
			continue
		}
		if j := last; j >= 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[j] = list[j].run(ctx)
			}()
		}
		last = i
	}
	if last >= 0 {
		errs[last] = list[last].run(ctx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resident reports whether the cache holds stage's artifact in memory.
func (g *stageGraph) resident(stage, key string) bool {
	if g.cache == nil {
		return false
	}
	_, ok := g.cache.Peek(stage, key)
	return ok
}

// pulledArtifact returns the artifact this construction resolved for
// stage, when it resolved one without error.
func pulledArtifact[O any](g *stageGraph, stage string) (O, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var zero O
	p := g.pulls[pullKey{stage, g.keys[stage]}]
	if p == nil || !p.finished || p.err != nil {
		return zero, false
	}
	v, ok := p.v.(O)
	return v, ok
}

// operatingPoint is the analyzer's handle on the stages only its
// reports read: weibull for the block info and thermal for the field.
// It resolves both side by side through the cache on each call.
func (g *stageGraph) operatingPoint(ctx context.Context) ([]BlockInfo, *thermal.Field, error) {
	var (
		coupled *thermal.CoupledResult
		w       *weibullArtifact
	)
	if err := g.resolve(ctx, into(g, StageThermal, &coupled, g.thermal),
		into(g, StageWeibull, &w, g.weibull)); err != nil {
		return nil, nil, err
	}
	return w.info, coupled.Field, nil
}

// analyzer wraps a resolved chip in the query facade; chipKey names
// the chip's hybrid tables in the stage cache. Unless the caller holds
// both the block info and the field, the analyzer resolves them on
// first read.
func (g *stageGraph) analyzer(chip *core.Chip, chipKey string, info []BlockInfo, field *thermal.Field) *Analyzer {
	a := &Analyzer{
		cfg:       g.cfg,
		design:    g.fd,
		pca:       g.pca,
		hybrid:    g.hybridResolver(chip, chipKey),
		chip:      chip,
		tech:      g.tech,
		blockInfo: info,
		field:     field,
		engines:   make(map[Method]core.Engine),
	}
	if info == nil || field == nil {
		a.side = g.operatingPoint
	}
	return a
}

// NewAnalyzerCtxIn is NewAnalyzerCtx against an explicit stage cache
// instead of the process-wide one. The serving layer uses it to give
// each node its own stage cache (with its own disk/peer tiers), which
// is also what lets a multi-node cluster run inside one test process
// without the nodes sharing artifacts through sharedStages. A nil
// cache disables caching entirely: every stage builds under ctx, with
// no flights, once per construction.
//
// After the prologue (floorplan, technology, power map) it resolves
// what every answer reads, side by side (see resolve): the PCA, so
// its errors surface here, though the analyzer does not retain it,
// and the chip. Only a chip build pulls BLOD and the Weibull
// parameters, and only a Weibull build pulls the thermal solve. So a
// node that fills its chip from a tier moves one artifact, and its
// analyzer resolves weibull and thermal the first time a report reads
// them (see Analyzer.ResolveOperatingPoint). A chip built here keeps
// the block info and field its build pulled. When both resolutions
// fail, the PCA's error wins, at any worker count.
func NewAnalyzerCtxIn(ctx context.Context, cache *pipeline.Cache, d *Design, cfg *Config) (*Analyzer, error) {
	g, err := newStageGraph(ctx, cache, d, cfg)
	if err != nil {
		return nil, err
	}
	defer g.endPulls()
	var (
		pca  *grid.PCA
		chip *core.Chip
	)
	if err := g.resolve(ctx, into(g, StagePCA, &pca, g.pca), into(g, StageChip, &chip, g.chip)); err != nil {
		return nil, err
	}
	var (
		info  []BlockInfo
		field *thermal.Field
	)
	if w, ok := pulledArtifact[*weibullArtifact](g, StageWeibull); ok {
		info = w.info
	}
	if coupled, ok := pulledArtifact[*thermal.CoupledResult](g, StageThermal); ok {
		field = coupled.Field
	}
	return g.analyzer(chip, g.keys[StageChip], info, field), nil
}
