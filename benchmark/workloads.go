package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"obdrel"
	"obdrel/internal/artifact"
)

// workload is one traffic mix against the serving stack.
type workload interface {
	// setup starts the nodes and pre-warms them; setup_s times it.
	setup(ctx context.Context) error
	// request describes what op seq sends: a GET path or a batch body.
	request(seq int) string
	// op runs one closed-loop operation. While the tracer is on it keeps
	// every op for the replay; otherwise only the ones the untraced
	// answer check needs.
	op(ctx context.Context, seq int) opRec
	// layers adds the workload's own per-layer metrics for a traced
	// phase.
	layers(ph *phase, spans []span, m map[string]float64) error
	close()
}

// spec is a workload definition: the closed loop's width, the tail it
// reports, and the variation grid every request carries.
type spec struct {
	name    string
	why     string
	clients int
	// tail is the quantile tail_ms reports: p99 where a run holds
	// thousands of ops, p75 where it holds only a dozen or so.
	tail float64
	// grid is the correlation grid sent with every request and table
	// the hybrid table resolution sent with hybrid queries; 0 keeps the
	// paper's 25×25 and 100×100. Tests shrink both to make a run cheap.
	grid, table int
	// sample bounds how many untraced kept ops the library re-answers
	// after the phase, drawn from the seed; 0 checks all kept ops.
	sample int
	start  func(s *spec, seed uint64, tr *tracer) workload
}

var specs = []*spec{
	{
		name:    "warm-unary",
		why:     "runtime DRM polling: 2 clients send hybrid/guard unary queries and /v1/blocks to six pre-warmed analyzers, so HTTP, server and registry dominate",
		clients: 2, tail: 0.99, start: newWarmUnary,
	},
	{
		name:    "batch-fleet",
		why:     "fleet telemetry sweeps: 100-item st_fast batch streams over C1-C6 at four fresh VDDs each, so engine evals and thermal builds dominate",
		clients: 1, tail: 0.75, start: newBatchFleet,
	},
	{
		name:    "cold-explore",
		why:     "design-space exploration: every request is a never-seen rho_dist at the 25x25 grid, so the cold 625x625 PCA dominates",
		clients: 1, tail: 0.75, sample: 3, start: newColdExplore,
	},
	{
		name:    "peer-fill",
		why:     "a fresh cluster node answering 48 keys from its peer's stage artifacts with zero local builds, so the artifact codec and peer tier dominate",
		clients: 1, tail: 0.99, start: newPeerFill,
	},
}

// specByName returns the named workload.
func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var designNames = []string{"C1", "C2", "C3", "C4", "C5", "C6"}

// rng returns the generator for one stream of draws; every input the
// benchmark sends comes from one: the same (seed, stream) pair always
// yields the same draws.
func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// Generator streams, one per use, so workloads never share draws.
const (
	streamPool uint64 = iota << 32
	streamBatch
	streamCold
	streamPeer
	streamCheck
)

// logUniform draws from [lo, hi] evenly on a log scale.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, r.Float64())
}

// decode parses a unary answer into the layout answerOf produces.
func decode(data []byte, kind string) ([]float64, error) {
	var r reply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bad reply: %w", err)
	}
	return r.values(kind), nil
}

// ---- warm-unary ----

// warmPool is how many distinct unary queries warm-unary cycles
// through; small enough that the library can re-answer them after the
// phase, large enough that ppm and t vary.
const warmPool = 512

type warmEntry struct {
	q    query
	url  string
	want []float64 // the pre-warm answer every later reply must repeat
}

type warmUnary struct {
	tr    *tracer
	n     *node
	c     *client
	pool  []warmEntry
	order []int
	// hybridChecked are the two designs, drawn from the seed, whose
	// hybrid answers the untraced check rebuilds tables for.
	hybridChecked map[string]bool
}

func newWarmUnary(s *spec, seed uint64, tr *tracer) workload {
	r := rng(seed, streamPool)
	w := &warmUnary{tr: tr, c: newClient(s.clients, tr)}
	for i := 0; i < warmPool; i++ {
		a := akey{design: designNames[r.IntN(len(designNames))], grid: s.grid, table: s.table}
		var q query
		switch u := r.Float64(); {
		case u < 0.40:
			q = query{a, obdrel.MethodHybrid, kindLifetime, logUniform(r, 1, 1000)}
		case u < 0.75:
			q = query{a, obdrel.MethodHybrid, kindFailureProb, logUniform(r, 1e4, 1e6)}
		case u < 0.90:
			q = query{a, obdrel.MethodGuard, kindFailureProb, logUniform(r, 1e4, 1e6)}
		default:
			q = query{a: a, kind: kindBlocks}
		}
		w.pool = append(w.pool, warmEntry{q: q})
	}
	w.order = r.Perm(warmPool)
	pick := r.Perm(len(designNames))
	w.hybridChecked = map[string]bool{designNames[pick[0]]: true, designNames[pick[1]]: true}
	return w
}

func (w *warmUnary) request(seq int) string { return w.pool[w.order[seq%warmPool]].q.path() }

func (w *warmUnary) setup(ctx context.Context) error {
	n, err := startNode(w.tr)
	if err != nil {
		return err
	}
	w.n = n
	if err := n.install(nil); err != nil {
		return err
	}
	for i := range w.pool {
		e := &w.pool[i]
		e.url = n.url + e.q.path()
		data, _, err := w.c.call(ctx, -1, http.MethodGet, e.url, nil)
		if err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
		if e.want, err = decode(data, e.q.kind); err != nil {
			return err
		}
	}
	return nil
}

func (w *warmUnary) op(ctx context.Context, seq int) opRec {
	e := &w.pool[w.order[seq%warmPool]]
	data, lat, err := w.c.call(ctx, seq, http.MethodGet, e.url, nil)
	r := opRec{seq: seq, lat: lat, items: 1, lookups: 1, err: err}
	if err != nil {
		return r
	}
	got, err := decode(data, e.q.kind)
	switch {
	case err != nil:
		r.err = err
	case !sameBits(got, e.want):
		r.err = fmt.Errorf("%s: answered %v, earlier %v", e.q.path(), got, e.want)
	}
	// The first pass over the pool goes to the library check — all of
	// it but the hybrid entries of four designs, whose tables would
	// cost the check 1.5 s each; later replies are held to the same
	// bits above. Traced ops all replay.
	checked := e.q.m != obdrel.MethodHybrid || w.hybridChecked[e.q.a.design]
	if (seq < warmPool && checked) || w.tr.on.Load() {
		r.keep = true
		r.groups = []egroup{{a: e.q.a, m: e.q.m, qs: []query{e.q}, got: [][]float64{got}}}
	}
	return r
}

func (w *warmUnary) layers(*phase, []span, map[string]float64) error { return nil }

func (w *warmUnary) close() {
	w.c.close()
	if w.n != nil {
		w.n.close()
	}
}

// ---- batch-fleet ----

// streamItems is the item count of one batch-fleet stream: about
// fifteen streams fit a ten-second phase.
const streamItems = 100

// wireItem is one obdrel-batch/1 request item.
type wireItem struct {
	Query  string     `json:"query"`
	Design string     `json:"design"`
	Method string     `json:"method"`
	PPM    float64    `json:"ppm,omitempty"`
	T      float64    `json:"t,omitempty"`
	Config wireConfig `json:"config"`
}

type wireConfig struct {
	VDD  float64 `json:"vdd"`
	Grid int     `json:"grid,omitempty"`
}

// trailer is a batch stream's last line, plus the items' summed
// engine time.
type trailer struct {
	Done      bool    `json:"done"`
	Items     int     `json:"items"`
	Errors    int     `json:"errors"`
	Groups    int     `json:"groups"`
	Reused    int     `json:"reused"`
	Shared    int     `json:"shared_evals"`
	ElapsedUs float64 `json:"elapsed_us"`
	Error     string  `json:"error"`
	evalUs    float64
}

type batchFleet struct {
	s    *spec
	seed uint64
	tr   *tracer
	n    *node
	c    *client
}

func newBatchFleet(s *spec, seed uint64, tr *tracer) workload {
	return &batchFleet{s: s, seed: seed, tr: tr, c: newClient(s.clients, tr)}
}

// stream draws op seq's items: C1–C6 × four fresh VDDs in
// [1.00, 1.30] V, alternating blocks of lifetime and failureprob.
func (b *batchFleet) stream(seq int) []query {
	r := rng(b.seed, streamBatch+uint64(seq))
	var vdds [4]float64
	for i := range vdds {
		vdds[i] = 1.0 + 0.3*r.Float64()
	}
	qs := make([]query, streamItems)
	groups := len(designNames) * len(vdds)
	for i := range qs {
		a := akey{design: designNames[i%len(designNames)], vdd: vdds[i/len(designNames)%len(vdds)], grid: b.s.grid}
		if i/groups%2 == 0 {
			qs[i] = query{a, obdrel.MethodStFast, kindLifetime, logUniform(r, 1, 1000)}
		} else {
			qs[i] = query{a, obdrel.MethodStFast, kindFailureProb, logUniform(r, 1e4, 1e6)}
		}
	}
	return qs
}

func (b *batchFleet) body(qs []query) []byte {
	items := make([]wireItem, len(qs))
	for i, q := range qs {
		items[i] = wireItem{Query: q.kind, Design: q.a.design, Method: q.m.String(),
			Config: wireConfig{VDD: q.a.vdd, Grid: q.a.grid}}
		if q.kind == kindLifetime {
			items[i].PPM = q.x
		} else {
			items[i].T = q.x
		}
	}
	data, _ := json.Marshal(items) // plain structs of numbers and strings always marshal
	return data
}

func (b *batchFleet) request(seq int) string { return string(b.body(b.stream(seq))) }

func (b *batchFleet) setup(ctx context.Context) error {
	n, err := startNode(b.tr)
	if err != nil {
		return err
	}
	b.n = n
	if err := n.install(nil); err != nil {
		return err
	}
	// The substrate the streams read warm: covariance, PCA and BLOD do
	// not depend on the supply voltage.
	for _, d := range designNames {
		q := query{a: akey{design: d, grid: b.s.grid}, kind: kindBlocks}
		if _, _, err := b.c.call(ctx, -1, http.MethodGet, n.url+q.path(), nil); err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
	}
	return nil
}

func (b *batchFleet) op(ctx context.Context, seq int) opRec {
	qs := b.stream(seq)
	data, lat, err := b.c.call(ctx, seq, http.MethodPost, b.n.url+"/v1/batch", bytes.NewReader(b.body(qs)))
	r := opRec{seq: seq, lat: lat, items: len(qs), err: err}
	if err != nil {
		return r
	}
	got, tr, err := parseStream(data, qs)
	if err != nil {
		r.err = err
		return r
	}
	r.batch, r.lookups = tr, tr.Groups
	// Traced streams replay in full; untraced ones send two items, drawn
	// from the seed, to the library.
	pick := map[int]bool{}
	if !b.tr.on.Load() {
		cr := rng(b.seed, streamCheck+uint64(seq))
		for k := 0; k < 2; k++ {
			pick[cr.IntN(len(qs))] = true
		}
	}
	byKey := map[akey]*egroup{}
	var order []akey
	for i, q := range qs {
		if len(pick) > 0 && !pick[i] {
			continue
		}
		g := byKey[q.a]
		if g == nil {
			g = &egroup{a: q.a, m: q.m, fresh: true}
			byKey[q.a] = g
			order = append(order, q.a)
		}
		g.qs = append(g.qs, q)
		g.got = append(g.got, got[i])
	}
	for _, a := range order {
		r.groups = append(r.groups, *byKey[a])
	}
	r.keep = true
	return r
}

// parseStream checks an obdrel-batch/1 reply — a header, one ok line
// per item in order, a done trailer — and returns the item answers.
func parseStream(data []byte, qs []query) ([][]float64, *trailer, error) {
	items := len(qs)
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != items+2 || !bytes.Contains(lines[0], []byte(`"obdrel-batch/1"`)) {
		return nil, nil, fmt.Errorf("batch: %d lines for %d items, or no obdrel-batch/1 header", len(lines), items)
	}
	var tr trailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		return nil, nil, fmt.Errorf("batch trailer: %w", err)
	}
	if !tr.Done || tr.Items != items || tr.Errors != 0 {
		return nil, nil, fmt.Errorf("batch trailer: done=%v items=%d errors=%d %s", tr.Done, tr.Items, tr.Errors, tr.Error)
	}
	got := make([][]float64, items)
	for i, l := range lines[1 : len(lines)-1] {
		var line struct {
			I      int    `json:"i"`
			OK     bool   `json:"ok"`
			Error  string `json:"error"`
			Result struct {
				reply
				QueryUs float64 `json:"query_us"`
			} `json:"result"`
		}
		if err := json.Unmarshal(l, &line); err != nil {
			return nil, nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		if line.I != i || !line.OK {
			return nil, nil, fmt.Errorf("batch item %d: i=%d ok=%v %s", i, line.I, line.OK, line.Error)
		}
		got[i] = line.Result.values(qs[i].kind)
		tr.evalUs += line.Result.QueryUs
	}
	return got, &tr, nil
}

func (b *batchFleet) layers(ph *phase, _ []span, m map[string]float64) error {
	var elapsed []float64
	var items, groups, reused, shared, eval float64
	for _, r := range ph.recs {
		if r.batch == nil {
			continue
		}
		elapsed = append(elapsed, r.batch.ElapsedUs/1e3)
		items += float64(r.batch.Items)
		groups += float64(r.batch.Groups)
		reused += float64(r.batch.Reused)
		shared += float64(r.batch.Shared)
		eval += r.batch.evalUs / 1e3
	}
	if len(elapsed) == 0 {
		return errors.New("batch-fleet: no stream completed in the traced phase")
	}
	n := float64(len(elapsed))
	m["batch.server_elapsed_ms_p50"] = median(elapsed)
	m["batch.groups_per_op"] = groups / n
	m["batch.reused_ratio"] = reused / items
	m["batch.shared_ratio"] = shared / items
	m["batch.eval_cpu_ms_mean"] = eval / n
	return nil
}

func (b *batchFleet) close() {
	b.c.close()
	if b.n != nil {
		b.n.close()
	}
}

// ---- cold-explore ----

type coldExplore struct {
	s    *spec
	seed uint64
	tr   *tracer
	n    *node
	c    *client
}

func newColdExplore(s *spec, seed uint64, tr *tracer) workload {
	return &coldExplore{s: s, seed: seed, tr: tr, c: newClient(s.clients, tr)}
}

// query draws op seq's question: designs rotate C1–C6, and rho_dist is
// a fresh draw from [0.25, 0.75] of the die, so no two requests in a
// process share a covariance, a PCA or a BLOD.
func (c *coldExplore) query(seq int) query {
	r := rng(c.seed, streamCold+uint64(seq))
	a := akey{design: designNames[seq%len(designNames)], rho: 0.25 + 0.5*r.Float64(), grid: c.s.grid}
	return query{a, obdrel.MethodStFast, kindLifetime, logUniform(r, 1, 1000)}
}

func (c *coldExplore) request(seq int) string { return c.query(seq).path() }

func (c *coldExplore) setup(ctx context.Context) error {
	n, err := startNode(c.tr)
	if err != nil {
		return err
	}
	c.n = n
	if err := n.install(nil); err != nil {
		return err
	}
	// Warm what exploring rho_dist leaves unchanged: the floorplans and
	// the thermal solutions at the paper's VDD.
	for _, d := range designNames {
		q := query{a: akey{design: d, grid: c.s.grid}, kind: kindBlocks}
		if _, _, err := c.c.call(ctx, -1, http.MethodGet, n.url+q.path(), nil); err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
	}
	return nil
}

func (c *coldExplore) op(ctx context.Context, seq int) opRec {
	q := c.query(seq)
	before := c.n.cache.Stat(obdrel.StagePCA).Builds
	data, lat, err := c.c.call(ctx, seq, http.MethodGet, c.n.url+q.path(), nil)
	r := opRec{seq: seq, lat: lat, items: 1, lookups: 1, err: err}
	if err != nil {
		return r
	}
	// Cache honesty: a request whose PCA came from any cache measured
	// the wrong thing.
	if pcas := c.n.cache.Stat(obdrel.StagePCA).Builds - before; pcas != 1 {
		r.err = fmt.Errorf("%s: %d pca builds, want exactly 1", q.path(), pcas)
		return r
	}
	got, err := decode(data, q.kind)
	if err != nil {
		r.err = err
		return r
	}
	r.keep = true
	r.groups = []egroup{{a: q.a, m: q.m, fresh: true, qs: []query{q}, got: [][]float64{got}}}
	return r
}

func (c *coldExplore) layers(*phase, []span, map[string]float64) error { return nil }

func (c *coldExplore) close() {
	c.c.close()
	if c.n != nil {
		c.n.close()
	}
}

// ---- peer-fill ----

// peerVDDs is how many supply voltages peer-fill's owner holds per
// design: 6 × 8 = 48 keys, inside the 64-entry stage caches.
const peerVDDs = 8

type peerKey struct {
	q    query
	want []byte // the owner's canonical body, query_us stripped
}

type peerFill struct {
	seed  uint64
	tr    *tracer
	a, b  *node
	c     *client
	peers []string
	keys  []peerKey
	round int
	order []int
}

func newPeerFill(s *spec, seed uint64, tr *tracer) workload {
	r := rng(seed, streamPeer)
	p := &peerFill{seed: seed, tr: tr, c: newClient(s.clients, tr), round: -1}
	for v := 0; v < peerVDDs; v++ {
		vdd := 1.0 + 0.3*r.Float64()
		for _, d := range designNames {
			q := query{akey{design: d, vdd: vdd, grid: s.grid}, obdrel.MethodGuard, kindFailureProb, logUniform(r, 1e4, 1e6)}
			p.keys = append(p.keys, peerKey{q: q})
		}
	}
	return p
}

// key returns op seq's key: each round of len(keys) ops visits every
// key once, in an order drawn from the seed.
func (p *peerFill) key(seq int) *peerKey {
	round := seq / len(p.keys)
	if round != p.round {
		p.round, p.order = round, rng(p.seed, streamPeer+1+uint64(round)).Perm(len(p.keys))
	}
	return &p.keys[p.order[seq%len(p.keys)]]
}

func (p *peerFill) request(seq int) string { return p.key(seq).q.path() }

func (p *peerFill) setup(ctx context.Context) error {
	var err error
	if p.a, err = startNode(p.tr); err != nil {
		return err
	}
	if p.b, err = startNode(p.tr); err != nil {
		return err
	}
	p.peers = []string{p.a.url, p.b.url}
	if err := p.a.install(p.peers); err != nil {
		return err
	}
	if err := p.b.install(p.peers); err != nil {
		return err
	}
	for i := range p.keys {
		k := &p.keys[i]
		data, _, err := p.c.call(ctx, -1, http.MethodGet, p.a.url+k.q.path(), nil)
		if err != nil {
			return fmt.Errorf("pre-warm owner: %w", err)
		}
		k.want = stripQueryUs(data)
	}
	return nil
}

func (p *peerFill) op(ctx context.Context, seq int) opRec {
	r := opRec{seq: seq, items: 1, lookups: 1}
	if seq%len(p.keys) == 0 {
		// A fresh joiner: empty caches behind the same address.
		if r.err = p.b.install(p.peers); r.err != nil {
			return r
		}
	}
	k := p.key(seq)
	before := builds(p.b.cache)
	data, lat, err := p.c.call(ctx, seq, http.MethodGet, p.b.url+k.q.path(), nil)
	r.lat, r.err = lat, err
	if err != nil {
		return r
	}
	switch local := builds(p.b.cache) - before; {
	case local != 0:
		r.err = fmt.Errorf("%s: %d local stage builds on the joiner, want 0", k.q.path(), local)
	case !bytes.Equal(stripQueryUs(data), k.want):
		r.err = fmt.Errorf("%s: joiner answered %s, owner %s", k.q.path(), data, k.want)
	}
	if r.err == nil && p.tr.on.Load() {
		got, err := decode(data, k.q.kind)
		if err != nil {
			r.err = err
			return r
		}
		r.keep = true
		r.groups = []egroup{{a: k.q.a, m: k.q.m, fresh: true, qs: []query{k.q}, got: [][]float64{got}}}
	}
	return r
}

// stripQueryUs drops the timing line from an indented /v1 answer.
func stripQueryUs(body []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if !bytes.HasPrefix(bytes.TrimSpace(line), []byte(`"query_us":`)) {
			out = append(out, line...)
		}
	}
	return out
}

// codecStages are the stages whose artifact codec peer-fill times.
var codecStages = []string{
	obdrel.StagePCA, obdrel.StageCovariance, obdrel.StageBLOD,
	obdrel.StageThermal, obdrel.StageWeibull, obdrel.StageChip,
}

func (p *peerFill) layers(ph *phase, spans []span, m map[string]float64) error {
	var serve []float64
	var bytesOut float64
	for _, s := range spans {
		if s.Name == "artifact.serve" {
			serve = append(serve, float64(s.dur())/1e3)
			bytesOut += s.Attrs["bytes"]
		}
	}
	ops := float64(ph.ops)
	m["artifact.serve_us_p50"] = median(serve)
	m["artifact.serve_us_p99"] = tailOrZero(serve, 0.99)
	m["artifact.fetches_per_op"] = float64(len(serve)) / ops
	m["artifact.bytes_per_op"] = bytesOut / ops

	// The codec replay: encode and decode the owner's artifacts for one
	// key, each the median of a few runs.
	k := p.keys[0].q
	d, err := design(k.a.design)
	if err != nil {
		return err
	}
	keys := obdrel.StageFingerprints(d, k.a.config())
	for _, stage := range codecStages {
		sealed, ok := p.a.cache.Sealed(stage, keys[stage])
		if !ok {
			return fmt.Errorf("peer-fill: owner does not hold %s/%s", stage, keys[stage])
		}
		var enc, dec []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			v, err := artifact.Decode(stage, keys[stage], sealed)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := artifact.Encode(stage, keys[stage], v); err != nil {
				return err
			}
			dec = append(dec, us(t1.Sub(t0)))
			enc = append(enc, us(time.Since(t1)))
		}
		m["artifact.decode_us."+stage] = median(dec)
		m["artifact.encode_us."+stage] = median(enc)
	}
	return nil
}

func (p *peerFill) close() {
	p.c.close()
	for _, n := range []*node{p.a, p.b} {
		if n != nil {
			n.close()
		}
	}
}
