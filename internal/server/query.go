package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"obdrel"
	"obdrel/internal/obd"
	"obdrel/internal/obs"
)

// This file is the one query path. A unary /v1 route and a /v1/batch
// item ask the same Eq. 18 questions, so both decode into apiRequest,
// become a query (design, config, method and the kind's validated
// arguments) through Server.resolve, fetch their analyzer through
// Server.analyzer and answer through Server.answer. The two faces
// differ only in framing: a unary route answers one query per request;
// a batch stream groups items by analyzer and evaluates them through
// the planner (batch.go). Both run inside instrument's envelope.

// The query kinds: the questions a request can ask. A unary route
// fixes its kind; a batch item names it in "query" (default lifetime).
const (
	kindLifetime    = "lifetime"
	kindFailureProb = "failureprob"
	kindMaxVDD      = "maxvdd"
	kindTrace       = "trace"
)

// apiRequest is the query request, accepted as URL query parameters
// (GET), a JSON body (POST), or one /v1/batch item (embedded in
// batchItem). Config knobs are pointers so "absent" and "zero" stay
// distinguishable; absent knobs keep DefaultConfig.
type apiRequest struct {
	Design      string       `json:"design"`
	Method      string       `json:"method"`
	PPM         float64      `json:"ppm"`
	T           float64      `json:"t"`
	TargetHours float64      `json:"target_hours"`
	VLo         float64      `json:"vlo"`
	VHi         float64      `json:"vhi"`
	TolV        float64      `json:"tolv"`
	Config      configParams `json:"config"`
}

// batchItem is the wire form of one /v1/batch item: a request plus
// the item's echoed ID, its query kind, and — for "trace" (telemetry
// replay) — the piecewise history.
type batchItem struct {
	apiRequest
	ID    string       `json:"id"`
	Query string       `json:"query"`
	Trace obdrel.Trace `json:"trace"`
}

type configParams struct {
	VDD         *float64 `json:"vdd"`
	SigmaRatio  *float64 `json:"sigma_ratio"`
	RhoDist     *float64 `json:"rho_dist"`
	Grid        *int     `json:"grid"`
	MCSamples   *int     `json:"mc_samples"`
	StMCSamples *int     `json:"stmc_samples"`
	HybridNL    *int     `json:"hybrid_nl"`
	HybridNB    *int     `json:"hybrid_nb"`
	GuardSigmas *float64 `json:"guard_sigmas"`
	PCAKeep     *float64 `json:"pca_keep"`
	L0          *int     `json:"l0"`
	Seed        *int64   `json:"seed"`
	BlockMaxT   *bool    `json:"use_block_max_temp"`
	QuadTree    *bool    `json:"quadtree"`
	Defects     *float64 `json:"defects"`
}

// Resource caps on untrusted knobs: a request must not be able to ask
// for an arbitrarily large eigendecomposition or sample count.
const (
	maxGrid        = 64
	maxMCSamples   = 20000
	maxStMCSamples = 200000
	maxHybridN     = 512
	maxL0          = 128
)

// strictDecoder is the one JSON decoding rule for request bodies:
// unary POST bodies and batch streams both reject unknown fields, so a
// typo'd knob fails loudly instead of answering at its default.
func strictDecoder(r io.Reader) *json.Decoder {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec
}

func parseRequest(r *http.Request, req *apiRequest) error {
	switch r.Method {
	case http.MethodGet:
		return parseQuery(r.URL.Query(), req)
	case http.MethodPost:
		// Decoding through a copy keeps req itself off the heap on the
		// GET path.
		var body apiRequest
		if err := strictDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
			return errBadRequest("bad JSON body: %v", err)
		}
		*req = body
		return nil
	default:
		return &apiError{code: http.StatusMethodNotAllowed, msg: "use GET with query parameters or POST with a JSON body"}
	}
}

func parseQuery(q url.Values, req *apiRequest) error {
	var err error
	getF := func(key string, dst *float64) {
		if err != nil || !q.Has(key) {
			return
		}
		v, perr := strconv.ParseFloat(q.Get(key), 64)
		if perr != nil {
			err = errBadRequest("parameter %q: %v", key, perr)
			return
		}
		*dst = v
	}
	getFP := func(key string, dst **float64) {
		if err != nil || !q.Has(key) {
			return
		}
		var v float64
		getF(key, &v)
		if err == nil {
			*dst = &v
		}
	}
	getIP := func(key string, dst **int) {
		if err != nil || !q.Has(key) {
			return
		}
		v, perr := strconv.Atoi(q.Get(key))
		if perr != nil {
			err = errBadRequest("parameter %q: %v", key, perr)
			return
		}
		*dst = &v
	}
	getBP := func(key string, dst **bool) {
		if err != nil || !q.Has(key) {
			return
		}
		v, perr := strconv.ParseBool(q.Get(key))
		if perr != nil {
			err = errBadRequest("parameter %q: %v", key, perr)
			return
		}
		*dst = &v
	}
	req.Design = q.Get("design")
	req.Method = q.Get("method")
	getF("ppm", &req.PPM)
	getF("t", &req.T)
	getF("target_hours", &req.TargetHours)
	getF("vlo", &req.VLo)
	getF("vhi", &req.VHi)
	getF("tolv", &req.TolV)
	getFP("vdd", &req.Config.VDD)
	getFP("sigma_ratio", &req.Config.SigmaRatio)
	getFP("rho_dist", &req.Config.RhoDist)
	getIP("grid", &req.Config.Grid)
	getIP("mc_samples", &req.Config.MCSamples)
	getIP("stmc_samples", &req.Config.StMCSamples)
	getIP("hybrid_nl", &req.Config.HybridNL)
	getIP("hybrid_nb", &req.Config.HybridNB)
	getFP("guard_sigmas", &req.Config.GuardSigmas)
	getFP("pca_keep", &req.Config.PCAKeep)
	getIP("l0", &req.Config.L0)
	getBP("use_block_max_temp", &req.Config.BlockMaxT)
	getBP("quadtree", &req.Config.QuadTree)
	getFP("defects", &req.Config.Defects)
	if q.Has("seed") {
		v, perr := strconv.ParseInt(q.Get("seed"), 10, 64)
		if perr != nil {
			return errBadRequest("parameter %q: %v", "seed", perr)
		}
		req.Config.Seed = &v
	}
	return err
}

// query is a resolved request: the design, validated config, method
// and registry key every kind shares, plus exactly the arguments its
// kind reads — the rest stay zero, so equal queries compare and key
// equal.
type query struct {
	kind string
	d    *obdrel.Design
	cfg  *obdrel.Config
	m    obdrel.Method
	// key is the analyzer's registry key: obdrel.CacheKey(d, cfg), or
	// the trace-extended key for a trace query.
	key string

	ppm, t                 float64
	target, vLo, vHi, tolV float64
	tr                     obdrel.Trace
}

// resolve is the one resolver: it maps a request onto a query of the
// given kind ("" is lifetime), validating the kind's arguments — the
// ppm default of 10, t > 0, target_hours > 0, the 0.9–1.5 V default
// bracket, and the trace. Every failure is a 4xx *apiError.
func (s *Server) resolve(kind string, req *apiRequest, tr obdrel.Trace) (query, error) {
	q, err := s.resolveTarget(req)
	if err != nil {
		return query{}, err
	}
	ppm := cmp.Or(req.PPM, 10)
	switch kind {
	case "", kindLifetime:
		q.kind, q.ppm = kindLifetime, ppm
	case kindFailureProb:
		if !(req.T > 0) {
			return query{}, errBadRequest("t (hours) must be positive, got %v", req.T)
		}
		q.kind, q.t = kind, req.T
	case kindMaxVDD:
		if !(req.TargetHours > 0) {
			return query{}, errBadRequest("target_hours must be positive, got %v", req.TargetHours)
		}
		q.kind, q.ppm, q.target, q.tolV = kind, ppm, req.TargetHours, req.TolV
		q.vLo, q.vHi = cmp.Or(req.VLo, 0.9), cmp.Or(req.VHi, 1.5)
	case kindTrace:
		if err := tr.Validate(); err != nil {
			return query{}, errBadRequest("%v", err)
		}
		q.kind, q.ppm, q.t, q.tr = kind, ppm, req.T, tr
		q.key = obdrel.TraceCacheKeyFrom(q.key, tr)
	default:
		return query{}, errBadRequest("unknown query %q (want lifetime, failureprob, maxvdd, or trace)", kind)
	}
	return q, nil
}

// resolveTarget resolves what every route shares — the design, the
// method and a Config that starts from DefaultConfig, applies only the
// supplied knobs (under the resource caps), then runs the library's
// full validation, so untrusted garbage fails with a 400 and a
// descriptive message — and the analyzer's registry key.
func (s *Server) resolveTarget(req *apiRequest) (query, error) {
	name := req.Design
	if name == "" {
		name = "C6"
	}
	d, ok := s.designs[strings.ToUpper(name)]
	if !ok {
		return query{}, errNotFound("unknown design %q (see /v1/designs)", req.Design)
	}
	m, err := parseMethod(req.Method)
	if err != nil {
		return query{}, err
	}
	cfg, err := buildConfig(&req.Config, &s.opts)
	if err != nil {
		return query{}, err
	}
	return query{d: d, cfg: cfg, m: m, key: s.registryKey(d, &req.Config, cfg)}, nil
}

// evalKey canonically names the question within its analyzer group:
// batch items with equal (key, evalKey) share one evaluation.
// It is appended byte for byte as fmt's "%s|m=%s|ppm=%g|t=%g|…" would
// print it: strconv's shortest 'g' form is %g's.
func (q *query) evalKey() string {
	var buf [128]byte
	b := append(append(append(buf[:0], q.kind...), "|m="...), q.m.String()...)
	for _, f := range [...]struct {
		label string
		v     float64
	}{{"|ppm=", q.ppm}, {"|t=", q.t}, {"|target=", q.target}, {"|vlo=", q.vLo}, {"|vhi=", q.vHi}, {"|tolv=", q.tolV}} {
		b = strconv.AppendFloat(append(b, f.label...), f.v, 'g', -1, 64)
	}
	return string(b)
}

// analyzer fetches the query's analyzer from the registry, and whether
// the registry held it: the telemetry-replay analyzer for a trace
// query, the plain one otherwise.
func (s *Server) analyzer(ctx context.Context, q *query) (*obdrel.Analyzer, bool, error) {
	if q.kind == kindTrace {
		return s.reg.GetTrace(ctx, s.stages, q.key, q.d, q.cfg, q.tr)
	}
	return s.reg.Get(ctx, q.key, q.d, q.cfg)
}

// answer is the one answer builder: it evaluates q against an (its
// analyzer; unused by maxvdd, whose bisection fetches a probe analyzer
// per voltage through the registry) and renders the result map both
// faces send. Fields per kind:
//
//	lifetime     design method ppm lifetime_hours cache query_us
//	failureprob  design method t_hours failure_prob reliability cache query_us
//	maxvdd       design method ppm target_hours vdd_bracket max_vdd probes query_us
//	trace        design method trace_hours (t_hours failure_prob | ppm lifetime_hours) cache query_us
//
// cache is "hit" when the registry held an (hit), "miss" otherwise;
// query_us is the fractional microseconds spent here.
func (s *Server) answer(ctx context.Context, q *query, an *obdrel.Analyzer, hit bool) (map[string]any, error) {
	start := time.Now()
	out := make(map[string]any, 8)
	out["design"], out["method"] = q.d.Name, q.m.String()
	if q.kind == kindMaxVDD {
		probes := 0
		factory := func(fctx context.Context, pd *obdrel.Design, pc *obdrel.Config) (*obdrel.Analyzer, error) {
			probes++
			an, _, err := s.reg.Get(fctx, s.registryKey(pd, nil, pc), pd, pc)
			return an, err
		}
		// The search runs on copies of q's fields, so q stays on its
		// caller's stack.
		d, cfg, m, ppm, target, vLo, vHi, tolV := q.d, q.cfg, q.m, q.ppm, q.target, q.vLo, q.vHi, q.tolV
		v, err := await(ctx, func() (float64, error) {
			return obdrel.MaxVDDFromCtx(ctx, factory, d, cfg, m, ppm, target, vLo, vHi, tolV)
		})
		if err != nil {
			return nil, queryErr(err)
		}
		out["ppm"], out["target_hours"], out["max_vdd"], out["probes"] = q.ppm, q.target, v, probes
		out["vdd_bracket"] = []float64{q.vLo, q.vHi}
	} else {
		// A trace item with t asks P_fail(t) on the replayed history;
		// without t, its n-ppm lifetime.
		fp := q.kind == kindFailureProb || (q.kind == kindTrace && q.t > 0)
		m, t, ppm := q.m, q.t, q.ppm
		var v float64
		var err error
		if an.EngineReady(m) {
			// Warm path: the query is a µs-scale, allocation-free lookup
			// — call it directly instead of paying a goroutine, channel
			// and closure.
			v, err = engineQuery(an, m, fp, t, ppm)
		} else {
			v, err = await(ctx, func() (float64, error) { return engineQuery(an, m, fp, t, ppm) })
		}
		if err != nil {
			return nil, queryErr(err)
		}
		switch {
		case !fp:
			out["ppm"], out["lifetime_hours"] = ppm, v
		case q.kind == kindFailureProb:
			out["t_hours"], out["failure_prob"], out["reliability"] = t, v, 1-v
		default:
			out["t_hours"], out["failure_prob"] = t, v
		}
		if q.kind == kindTrace {
			out["trace_hours"] = q.tr.TotalHours()
		}
		out["cache"] = cacheLabel(hit)
	}
	out["query_us"] = float64(time.Since(start).Nanoseconds()) / 1e3
	return out, nil
}

// engineQuery runs one engine evaluation: P_fail(t) when fp, else the
// n-ppm lifetime.
func engineQuery(an *obdrel.Analyzer, m obdrel.Method, fp bool, t, ppm float64) (float64, error) {
	if fp {
		return an.FailureProb(t, m)
	}
	return an.LifetimePPM(ppm, m)
}

// queryRoute is the unary face of the one query path: the /v1 route
// answering kind for one GET or POST request.
func (s *Server) queryRoute(kind string) handlerFunc {
	spanName := "query." + kind
	return func(ctx context.Context, _ http.ResponseWriter, r *http.Request) (any, error) {
		var req apiRequest
		if err := parseRequest(r, &req); err != nil {
			return nil, err
		}
		q, err := s.resolve(kind, &req, nil)
		if err != nil {
			return nil, err
		}
		var an *obdrel.Analyzer
		var hit bool
		if kind != kindMaxVDD {
			if an, hit, err = s.analyzer(ctx, &q); err != nil {
				return nil, err
			}
		}
		qctx, sp := obs.StartSpan(ctx, spanName)
		annotateQuery(sp, q.m, q.cfg)
		out, err := s.answer(qctx, &q, an, hit)
		sp.End()
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}

// annotateQuery records the work a method query implies: the sample
// counts driving MC-flavoured evaluation, the table resolution for
// hybrid lookups. Nil spans skip the boxing entirely.
func annotateQuery(sp *obs.Span, m obdrel.Method, cfg *obdrel.Config) {
	if sp == nil {
		return
	}
	sp.SetAttr("method", m.String())
	switch m {
	case obdrel.MethodMC:
		sp.SetAttr("mc_samples", cfg.MCSamples)
	case obdrel.MethodStMC:
		sp.SetAttr("stmc_samples", cfg.StMCSamples)
	case obdrel.MethodHybrid:
		sp.SetAttr("hybrid_nl", cfg.HybridNL)
		sp.SetAttr("hybrid_nb", cfg.HybridNB)
	}
}

// queryErr maps analyzer-level validation failures (bad ppm, bad
// time) to 400; anything else stays a 500/504.
func queryErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return err
	}
	if strings.Contains(err.Error(), "obdrel:") {
		return &apiError{code: http.StatusBadRequest, msg: err.Error()}
	}
	return err
}

func parseMethod(name string) (obdrel.Method, error) {
	if name == "" {
		return obdrel.MethodHybrid, nil
	}
	for _, m := range obdrel.Methods() {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	return 0, errBadRequest("unknown method %q (want one of %v)", name, obdrel.Methods())
}

func buildConfig(p *configParams, o *Options) (*obdrel.Config, error) {
	cfg := obdrel.DefaultConfig()
	cfg.Workers = o.Workers
	if p.VDD != nil {
		cfg.VDD = *p.VDD
	}
	if p.SigmaRatio != nil {
		cfg.SigmaRatio = *p.SigmaRatio
	}
	if p.RhoDist != nil {
		cfg.RhoDist = *p.RhoDist
	}
	if p.Grid != nil {
		if *p.Grid > maxGrid {
			return nil, errBadRequest("grid %d exceeds the service cap %d", *p.Grid, maxGrid)
		}
		cfg.GridNx, cfg.GridNy = *p.Grid, *p.Grid
	}
	if p.MCSamples != nil {
		if *p.MCSamples > maxMCSamples {
			return nil, errBadRequest("mc_samples %d exceeds the service cap %d", *p.MCSamples, maxMCSamples)
		}
		cfg.MCSamples = *p.MCSamples
	}
	if p.StMCSamples != nil {
		if *p.StMCSamples > maxStMCSamples {
			return nil, errBadRequest("stmc_samples %d exceeds the service cap %d", *p.StMCSamples, maxStMCSamples)
		}
		cfg.StMCSamples = *p.StMCSamples
	}
	if p.HybridNL != nil {
		if *p.HybridNL > maxHybridN {
			return nil, errBadRequest("hybrid_nl %d exceeds the service cap %d", *p.HybridNL, maxHybridN)
		}
		cfg.HybridNL = *p.HybridNL
	}
	if p.HybridNB != nil {
		if *p.HybridNB > maxHybridN {
			return nil, errBadRequest("hybrid_nb %d exceeds the service cap %d", *p.HybridNB, maxHybridN)
		}
		cfg.HybridNB = *p.HybridNB
	}
	if p.GuardSigmas != nil {
		cfg.GuardSigmas = *p.GuardSigmas
	}
	if p.PCAKeep != nil {
		cfg.PCAKeepFraction = *p.PCAKeep
	}
	if p.L0 != nil {
		if *p.L0 > maxL0 {
			return nil, errBadRequest("l0 %d exceeds the service cap %d", *p.L0, maxL0)
		}
		cfg.L0 = *p.L0
	}
	if p.Seed != nil {
		cfg.Seed = *p.Seed
	}
	if p.BlockMaxT != nil {
		cfg.UseBlockMaxTemp = *p.BlockMaxT
	}
	if p.QuadTree != nil {
		cfg.QuadTree = *p.QuadTree
	}
	if p.Defects != nil && *p.Defects != 0 {
		ext := *obd.DefaultExtrinsic()
		ext.DefectFraction = *p.Defects
		cfg.Extrinsic = &ext
	}
	if err := cfg.Validate(); err != nil {
		return nil, errBadRequest("%v", err)
	}
	if cfg.Extrinsic != nil {
		if err := cfg.Extrinsic.Validate(); err != nil {
			return nil, errBadRequest("%v", err)
		}
	}
	return cfg, nil
}
