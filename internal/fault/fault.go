package fault

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// A Kind is what an armed rule does when its probability fires.
type Kind int

const (
	// KindError makes the injection point return an *InjectedError.
	KindError Kind = iota
	// KindLatency makes the injection point sleep (interruptibly)
	// before returning nil.
	KindLatency
	// KindPanic makes the injection point panic, exercising the
	// containment (recover) paths above it.
	KindPanic
)

func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	default:
		return "error"
	}
}

// Rule arms one behaviour at one injection point.
type Rule struct {
	// Point is the registered injection-point name, e.g.
	// "pipeline.build", "thermal.solve", "maxvdd.probe",
	// "server.handler", "registry.build".
	Point string
	// Match, when non-empty, restricts the rule to evaluations whose
	// label contains it (labels are stage names, design fingerprints,
	// routes — whatever the point passes to InjectLabeled).
	Match string
	// Kind selects error / latency / panic.
	Kind Kind
	// Prob is the per-evaluation firing probability in [0,1].
	Prob float64
	// Class is the class of the injected error (KindError only).
	Class Class
	// Latency is the injected delay (KindLatency only).
	Latency time.Duration
}

func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Point)
	if r.Match != "" {
		fmt.Fprintf(&b, "(%s)", r.Match)
	}
	switch r.Kind {
	case KindLatency:
		fmt.Fprintf(&b, ":latency:%s", r.Latency)
	case KindPanic:
		b.WriteString(":panic")
	default:
		if r.Class == Permanent {
			b.WriteString(":perm")
		} else {
			b.WriteString(":error")
		}
	}
	fmt.Fprintf(&b, ":%g", r.Prob)
	return b.String()
}

// InjectedError is the error returned by a fired KindError rule.
type InjectedError struct {
	Point string
	Class Class
	// N is the rule's evaluation count at the firing (1-based), making
	// failures reproducible under a fixed seed.
	N int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s error at %s (evaluation %d)", e.Class, e.Point, e.N)
}
func (e *InjectedError) FaultClass() Class { return e.Class }

// Spec is a parsed fault profile: rules plus an optional seed.
type Spec struct {
	Rules []Rule
	// Seed is the decision-stream seed; zero-valued unless the spec
	// carried a "seed=N" segment (see Seeded).
	Seed   int64
	Seeded bool
}

// ParseSpec parses the comma-separated profile grammar:
//
//	rule    = point [ "(" match ")" ] ":" kind
//	kind    = ("error"|"transient") [":" prob]      transient error
//	        | ("perm"|"permanent")  [":" prob]      permanent error
//	        | "latency" ":" duration [":" prob]     injected delay
//	        | "panic" [":" prob]                    injected panic
//	seed    = "seed=" int                           decision-stream seed
//
// e.g. "pipeline.build:error:0.1,pipeline.build:latency:50ms:0.1" or
// "registry.build(C2):perm:1". Probabilities default to 1.
func ParseSpec(spec string) (*Spec, error) {
	out := &Spec{}
	for _, seg := range strings.Split(spec, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if v, ok := strings.CutPrefix(seg, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			out.Seed, out.Seeded = n, true
			continue
		}
		r, err := parseRule(seg)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, r)
	}
	return out, nil
}

func parseRule(seg string) (Rule, error) {
	var r Rule
	parts := strings.Split(seg, ":")
	point := parts[0]
	if i := strings.IndexByte(point, '('); i >= 0 {
		if !strings.HasSuffix(point, ")") {
			return r, fmt.Errorf("fault: unterminated match in %q", seg)
		}
		r.Match = point[i+1 : len(point)-1]
		point = point[:i]
	}
	if point == "" {
		return r, fmt.Errorf("fault: empty point in %q", seg)
	}
	r.Point = point
	if len(parts) < 2 {
		return r, fmt.Errorf("fault: missing kind in %q", seg)
	}
	r.Prob = 1
	prob := func(args []string) error {
		if len(args) == 0 {
			return nil
		}
		if len(args) > 1 {
			return fmt.Errorf("fault: too many arguments in %q", seg)
		}
		p, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN fails too
			return fmt.Errorf("fault: bad probability %q in %q", args[0], seg)
		}
		r.Prob = p
		return nil
	}
	kind, args := parts[1], parts[2:]
	switch kind {
	case "error", "transient":
		r.Kind, r.Class = KindError, Transient
		return r, prob(args)
	case "perm", "permanent":
		r.Kind, r.Class = KindError, Permanent
		return r, prob(args)
	case "panic":
		r.Kind = KindPanic
		return r, prob(args)
	case "latency":
		if len(args) == 0 {
			return r, fmt.Errorf("fault: latency needs a duration in %q", seg)
		}
		d, err := time.ParseDuration(args[0])
		if err != nil || d < 0 {
			return r, fmt.Errorf("fault: bad duration %q in %q", args[0], seg)
		}
		r.Kind, r.Latency = KindLatency, d
		return r, prob(args[1:])
	default:
		return r, fmt.Errorf("fault: unknown kind %q in %q", kind, seg)
	}
}

// armedRule is a Rule with its evaluation counter. The count feeds the
// decision stream, so under a fixed seed the k-th evaluation of a rule
// always decides the same way regardless of timing.
type armedRule struct {
	Rule
	id    uint64
	count atomic.Int64
}

// Injector holds armed rules indexed by point. Decisions are pure
// functions of (seed, rule index, evaluation count) — deterministic and
// replayable, never wall-clock or math/rand dependent.
type Injector struct {
	seed   uint64
	points map[string][]*armedRule
	rules  []*armedRule
}

// NewInjector arms the rules under the seed.
func NewInjector(seed int64, rules []Rule) *Injector {
	inj := &Injector{seed: uint64(seed), points: map[string][]*armedRule{}}
	for i, r := range rules {
		ar := &armedRule{Rule: r, id: uint64(i + 1)}
		inj.points[r.Point] = append(inj.points[r.Point], ar)
		inj.rules = append(inj.rules, ar)
	}
	return inj
}

// Injector builds the spec's injector, using fallbackSeed when the
// spec did not carry its own "seed=" segment.
func (s *Spec) Injector(fallbackSeed int64) *Injector {
	seed := fallbackSeed
	if s.Seeded {
		seed = s.Seed
	}
	return NewInjector(seed, s.Rules)
}

// splitmix64 — tiny, stateless, and good enough to turn (seed, rule,
// count) into an unbiased decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (inj *Injector) decide(r *armedRule, n int64) bool {
	if r.Prob >= 1 {
		return true
	}
	if r.Prob <= 0 {
		return false
	}
	x := splitmix64(inj.seed ^ splitmix64(r.id<<32^uint64(n)))
	return float64(x>>11)/(1<<53) < r.Prob
}

// eval runs every rule armed at point. Latency rules fire and continue
// to later rules; the first firing error/panic rule ends the
// evaluation.
func (inj *Injector) eval(ctx context.Context, point, label string) error {
	rules := inj.points[point]
	if len(rules) == 0 {
		return nil
	}
	for _, r := range rules {
		if r.Match != "" && !strings.Contains(label, r.Match) {
			continue
		}
		n := r.count.Add(1)
		if !inj.decide(r, n) {
			continue
		}
		injectedTotal.Add(1)
		switch r.Kind {
		case KindLatency:
			sleep(ctx, r.Latency)
		case KindPanic:
			panic(fmt.Sprintf("fault: injected panic at %s (evaluation %d)", point, n))
		default:
			return &InjectedError{Point: point, Class: r.Class, N: n}
		}
	}
	return nil
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// The disarmed fast path: Inject is called on hot paths (every stage
// build, every thermal round), so when nothing is armed it must cost
// one atomic load and zero allocations. `gate` counts armed sources
// (global injector + context injection being enabled); zero means
// every Inject returns nil immediately.
var (
	gate          atomic.Int32
	global        atomic.Pointer[Injector]
	ctxEnabled    atomic.Bool
	injectedTotal atomic.Int64
)

// Arm installs inj as the process-global injector (obdreld -fault).
// Arm(nil) is Disarm.
func Arm(inj *Injector) {
	if inj == nil {
		Disarm()
		return
	}
	if global.Swap(inj) == nil {
		gate.Add(1)
	}
}

// Disarm removes the process-global injector. Context-scoped injectors
// (X-Fault) are unaffected.
func Disarm() {
	if global.Swap(nil) != nil {
		gate.Add(-1)
	}
}

// InjectedTotal counts every fault fired process-wide since start —
// the leakage counter: its delta must be zero over any disarmed window.
func InjectedTotal() int64 { return injectedTotal.Load() }

type ctxKey struct{}

// ContextWith scopes an injector to a request context (the X-Fault
// header path). The first use permanently enables the context check on
// armed paths; the disarmed (gate==0) fast path is unaffected until
// then.
func ContextWith(ctx context.Context, inj *Injector) context.Context {
	if inj == nil {
		return ctx
	}
	if !ctxEnabled.Swap(true) {
		gate.Add(1)
	}
	return context.WithValue(ctx, ctxKey{}, inj)
}

// FromContext returns the context-scoped injector, or nil.
func FromContext(ctx context.Context) *Injector {
	inj, _ := ctx.Value(ctxKey{}).(*Injector)
	return inj
}

// Carry copies src's context-scoped injector (if any) onto dst — used
// when a build detaches from its initiating request's context but
// should keep honouring its X-Fault rules, mirroring how spans are
// carried across the same boundary.
func Carry(dst, src context.Context) context.Context {
	if gate.Load() == 0 || !ctxEnabled.Load() {
		return dst
	}
	if inj := FromContext(src); inj != nil {
		return context.WithValue(dst, ctxKey{}, inj)
	}
	return dst
}

// Inject evaluates the point's armed rules: nil when disarmed or no
// rule fires, an *InjectedError when an error rule fires; latency
// rules sleep in place and panic rules panic. Disarmed cost: one
// atomic load, zero allocations.
func Inject(ctx context.Context, point string) error {
	if gate.Load() == 0 {
		return nil
	}
	return inject(ctx, point, "")
}

// InjectLabeled is Inject with a label for rules carrying a (match)
// restriction — stage names, design fingerprints, routes.
func InjectLabeled(ctx context.Context, point, label string) error {
	if gate.Load() == 0 {
		return nil
	}
	return inject(ctx, point, label)
}

func inject(ctx context.Context, point, label string) error {
	if inj := global.Load(); inj != nil {
		if err := inj.eval(ctx, point, label); err != nil {
			return err
		}
	}
	if ctxEnabled.Load() {
		if inj := FromContext(ctx); inj != nil {
			return inj.eval(ctx, point, label)
		}
	}
	return nil
}
