package main

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"time"

	"obdrel"
	"obdrel/internal/par"
	"obdrel/internal/pipeline"
)

// akey names one analyzer: a benchmark design at the paper's Table II
// setup with at most the supply voltage, the correlation distance, the
// correlation grid or the hybrid table resolution changed.
type akey struct {
	design string
	vdd    float64 // 0 keeps 1.2 V
	rho    float64 // 0 keeps 0.5 of the die
	grid   int     // 0 keeps 25×25
	table  int     // 0 keeps 100×100
}

// config is the library config the server resolves for the key.
func (a akey) config() *obdrel.Config {
	cfg := obdrel.DefaultConfig()
	if a.vdd != 0 {
		cfg.VDD = a.vdd
	}
	if a.rho != 0 {
		cfg.RhoDist = a.rho
	}
	if a.grid != 0 {
		cfg.GridNx, cfg.GridNy = a.grid, a.grid
	}
	if a.table != 0 {
		cfg.HybridNL, cfg.HybridNB = a.table, a.table
	}
	return cfg
}

// params appends the key's non-default knobs in the /v1 query form.
func (a akey) params(v url.Values) {
	v.Set("design", a.design)
	if a.vdd != 0 {
		v.Set("vdd", ftoa(a.vdd))
	}
	if a.rho != 0 {
		v.Set("rho_dist", ftoa(a.rho))
	}
	if a.grid != 0 {
		v.Set("grid", strconv.Itoa(a.grid))
	}
	if a.table != 0 {
		v.Set("hybrid_nl", strconv.Itoa(a.table))
		v.Set("hybrid_nb", strconv.Itoa(a.table))
	}
}

// ftoa formats a float so the server parses back the same bits.
func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// Query kinds, named after their /v1 routes.
const (
	kindLifetime    = "lifetime"
	kindFailureProb = "failureprob"
	kindBlocks      = "blocks"
)

// query is one reliability question about an analyzer.
type query struct {
	a    akey
	m    obdrel.Method
	kind string
	x    float64 // ppm for lifetime, hours for failureprob
}

// path renders the query as a unary GET path.
func (q query) path() string {
	v := url.Values{}
	q.a.params(v)
	switch q.kind {
	case kindLifetime:
		v.Set("method", q.m.String())
		v.Set("ppm", ftoa(q.x))
	case kindFailureProb:
		v.Set("method", q.m.String())
		v.Set("t", ftoa(q.x))
	}
	return "/v1/" + q.kind + "?" + v.Encode()
}

// reply is the part of a /v1 answer the benchmark checks.
type reply struct {
	Lifetime    float64 `json:"lifetime_hours"`
	FailureProb float64 `json:"failure_prob"`
	Reliability float64 `json:"reliability"`
	Blocks      []struct {
		MeanTC  float64 `json:"mean_temp_c"`
		MaxTC   float64 `json:"max_temp_c"`
		PowerW  float64 `json:"power_w"`
		AlphaH  float64 `json:"alpha_h"`
		BPerNm  float64 `json:"b_per_nm"`
		Devices int     `json:"devices"`
	} `json:"blocks"`
	TempC struct {
		Min  float64 `json:"min"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"temp_c"`
}

// values flattens a reply in the layout answerOf produces.
func (r *reply) values(kind string) []float64 {
	switch kind {
	case kindLifetime:
		return []float64{r.Lifetime}
	case kindFailureProb:
		return []float64{r.FailureProb, r.Reliability}
	}
	out := make([]float64, 0, 6*len(r.Blocks)+3)
	for _, b := range r.Blocks {
		out = append(out, b.MeanTC, b.MaxTC, b.PowerW, b.AlphaH, b.BPerNm, float64(b.Devices))
	}
	return append(out, r.TempC.Min, r.TempC.Mean, r.TempC.Max)
}

// answerOf asks the library the question a query poses, in the layout
// reply.values uses.
func answerOf(an *obdrel.Analyzer, q query) ([]float64, error) {
	switch q.kind {
	case kindLifetime:
		l, err := an.LifetimePPM(q.x, q.m)
		return []float64{l}, err
	case kindFailureProb:
		p, err := an.FailureProb(q.x, q.m)
		return []float64{p, 1 - p}, err
	}
	blocks := an.Blocks()
	out := make([]float64, 0, 6*len(blocks)+3)
	for _, b := range blocks {
		out = append(out, b.MeanTempC, b.MaxTempC, b.PowerW, b.Alpha, b.B, float64(b.Devices))
	}
	lo, avg, hi := an.TempSpread()
	return append(out, lo, avg, hi), nil
}

// sameBits reports whether two answers are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// egroup is the engine work one op caused on one analyzer: the queries
// it evaluated, the answers the server gave, and whether the request
// built the analyzer — and so also the method's engine.
type egroup struct {
	a     akey
	m     obdrel.Method
	fresh bool
	qs    []query
	got   [][]float64
}

// lib is the library side of the benchmark. It answers queries with
// analyzers that obdrel.NewAnalyzerCtxIn builds in a cache of its own,
// so a reference never shares an artifact with the server it checks,
// and it times each engine call: the replay behind the engine rows.
type lib struct {
	cache *pipeline.Cache
	ans   map[akey]*obdrel.Analyzer
	prep  map[prepKey]time.Duration
	qdur  map[query]time.Duration
	// samples holds engine timings by "<method>.<build|lifetime|failureprob>",
	// build in ms and queries in µs, one per distinct call.
	samples map[string][]float64
}

type prepKey struct {
	a akey
	m obdrel.Method
}

func newLib() *lib {
	return &lib{
		cache:   pipeline.NewCache(64),
		ans:     map[akey]*obdrel.Analyzer{},
		prep:    map[prepKey]time.Duration{},
		qdur:    map[query]time.Duration{},
		samples: map[string][]float64{},
	}
}

// analyzer returns the library analyzer for a key, building it once.
func (l *lib) analyzer(ctx context.Context, a akey) (*obdrel.Analyzer, error) {
	if an, ok := l.ans[a]; ok {
		return an, nil
	}
	d, err := design(a.design)
	if err != nil {
		return nil, err
	}
	an, err := obdrel.NewAnalyzerCtxIn(ctx, l.cache, d, a.config())
	if err != nil {
		return nil, fmt.Errorf("library analyzer %+v: %w", a, err)
	}
	l.ans[a] = an
	return an, nil
}

// prepare builds the method's engine on the key's analyzer and returns
// how long the first build took.
func (l *lib) prepare(an *obdrel.Analyzer, a akey, m obdrel.Method) (time.Duration, error) {
	k := prepKey{a, m}
	if d, ok := l.prep[k]; ok {
		return d, nil
	}
	t0 := time.Now()
	if err := an.Prepare(m); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	l.prep[k] = d
	l.samples[m.String()+".build"] = append(l.samples[m.String()+".build"], ms(d))
	return d, nil
}

// timedAnswer answers q and times the call.
func timedAnswer(an *obdrel.Analyzer, q query) ([]float64, time.Duration, error) {
	t0 := time.Now()
	v, err := answerOf(an, q)
	return v, time.Since(t0), err
}

// note records one query timing in the engine samples.
func (l *lib) note(q query, d time.Duration) {
	if q.kind == kindBlocks {
		return
	}
	k := q.m.String() + "." + q.kind
	l.samples[k] = append(l.samples[k], us(d))
}

// replay answers one group's queries with the library, compares each
// answer with the server's, and returns the engine time the group
// cost its op: the engine build when the request built the analyzer,
// plus the queries — fanned out over the workers as the batch planner
// does when a group holds several.
func (l *lib) replay(ctx context.Context, g *egroup) (time.Duration, error) {
	an, err := l.analyzer(ctx, g.a)
	if err != nil {
		return 0, err
	}
	var spent time.Duration
	if g.qs[0].kind != kindBlocks {
		d, err := l.prepare(an, g.a, g.m)
		if err != nil {
			return 0, err
		}
		if g.fresh {
			spent += d
		}
	}
	vals := make([][]float64, len(g.qs))
	if len(g.qs) == 1 {
		q := g.qs[0]
		v, d, err := timedAnswer(an, q)
		if err != nil {
			return 0, err
		}
		if old, ok := l.qdur[q]; ok {
			d = old
		} else {
			l.qdur[q] = d
			l.note(q, d)
		}
		vals[0], spent = v, spent+d
	} else {
		durs := make([]time.Duration, len(g.qs))
		errs := make([]error, len(g.qs))
		t0 := time.Now()
		par.For(0, len(g.qs), func(i int) {
			vals[i], durs[i], errs[i] = timedAnswer(an, g.qs[i])
		})
		spent += time.Since(t0)
		for i, q := range g.qs {
			if errs[i] != nil {
				return 0, errs[i]
			}
			l.note(q, durs[i])
		}
	}
	for i := range g.qs {
		if !sameBits(vals[i], g.got[i]) {
			return spent, fmt.Errorf("%s: server answered %v, library %v", g.qs[i].path(), g.got[i], vals[i])
		}
	}
	return spent, nil
}

// design returns a benchmark design by name.
func design(name string) (*obdrel.Design, error) {
	for _, d := range obdrel.Benchmarks() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("unknown design %q", name)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
