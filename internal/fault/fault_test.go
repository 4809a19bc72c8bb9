package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// resetInjection returns the package to the fully-disarmed state so
// tests that assert the fast path see gate==0 regardless of ordering.
func resetInjection(t *testing.T) {
	t.Helper()
	Disarm()
	if ctxEnabled.Swap(false) {
		gate.Add(-1)
	}
	t.Cleanup(func() {
		Disarm()
		if ctxEnabled.Swap(false) {
			gate.Add(-1)
		}
	})
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("seed=42,pipeline.build:error:0.1,pipeline.build:latency:50ms:0.25,registry.build(C2):perm:1,server.handler:panic:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Seeded || s.Seed != 42 {
		t.Fatalf("seed = %d (seeded=%v), want 42", s.Seed, s.Seeded)
	}
	if len(s.Rules) != 4 {
		t.Fatalf("got %d rules, want 4", len(s.Rules))
	}
	r := s.Rules[0]
	if r.Point != "pipeline.build" || r.Kind != KindError || r.Class != Transient || r.Prob != 0.1 {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = s.Rules[1]
	if r.Kind != KindLatency || r.Latency != 50*time.Millisecond || r.Prob != 0.25 {
		t.Fatalf("rule 1 = %+v", r)
	}
	r = s.Rules[2]
	if r.Point != "registry.build" || r.Match != "C2" || r.Class != Permanent || r.Prob != 1 {
		t.Fatalf("rule 2 = %+v", r)
	}
	if s.Rules[3].Kind != KindPanic {
		t.Fatalf("rule 3 = %+v", s.Rules[3])
	}
	// Defaults: probability 1, no seed.
	s, err = ParseSpec("thermal.solve:error")
	if err != nil || s.Seeded || s.Rules[0].Prob != 1 {
		t.Fatalf("default parse: %+v err=%v", s, err)
	}
	for _, bad := range []string{
		"nokind", ":error", "p:latency", "p:latency:xx", "p:error:1.5",
		"p:error:-0.1", "p:bogus", "p(x:error", "seed=abc", "p:error:0.1:extra",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestDeterministicDecisions(t *testing.T) {
	resetInjection(t)
	ctx := context.Background()
	pattern := func(seed int64) string {
		spec, _ := ParseSpec("p:error:0.3")
		inj := NewInjector(seed, spec.Rules)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			if inj.eval(ctx, "p", "") != nil {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	p1, p2, p3 := pattern(7), pattern(7), pattern(8)
	if p1 != p2 {
		t.Fatalf("same seed diverged:\n%s\n%s", p1, p2)
	}
	if p1 == p3 {
		t.Fatalf("different seeds produced identical stream")
	}
	fired := strings.Count(p1, "x")
	if fired < 30 || fired > 90 {
		t.Fatalf("p=0.3 over 200 evals fired %d times", fired)
	}
}

func TestDisarmedFastPathAllocs(t *testing.T) {
	resetInjection(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Inject(ctx, "pipeline.build"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Inject allocates %.1f/op, want 0", allocs)
	}
}

func TestGlobalArmDisarm(t *testing.T) {
	resetInjection(t)
	spec, _ := ParseSpec("p:error:1")
	Arm(spec.Injector(1))
	before := InjectedTotal()
	err := Inject(context.Background(), "p")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Point != "p" {
		t.Fatalf("err = %v", err)
	}
	if InjectedTotal() != before+1 {
		t.Fatalf("InjectedTotal did not advance")
	}
	Disarm()
	if err := Inject(context.Background(), "p"); err != nil {
		t.Fatalf("disarmed Inject = %v", err)
	}
	if InjectedTotal() != before+1 {
		t.Fatalf("leakage while disarmed")
	}
}

func TestMatchLabel(t *testing.T) {
	resetInjection(t)
	spec, _ := ParseSpec("reg(C2):error:1")
	Arm(spec.Injector(1))
	if err := InjectLabeled(context.Background(), "reg", "design C1"); err != nil {
		t.Fatalf("non-matching label fired: %v", err)
	}
	if err := InjectLabeled(context.Background(), "reg", "design C2 cfg"); err == nil {
		t.Fatal("matching label did not fire")
	}
}

func TestLatencyRule(t *testing.T) {
	resetInjection(t)
	spec, _ := ParseSpec("p:latency:60ms")
	Arm(spec.Injector(1))
	start := time.Now()
	if err := Inject(context.Background(), "p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("latency rule slept only %v", d)
	}
	// A dead context interrupts the sleep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if err := Inject(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("cancelled sleep took %v", d)
	}
}

func TestPanicRule(t *testing.T) {
	resetInjection(t)
	spec, _ := ParseSpec("p:panic:1")
	Arm(spec.Injector(1))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic rule did not panic")
		}
	}()
	Inject(context.Background(), "p")
}

func TestContextScopedInjection(t *testing.T) {
	resetInjection(t)
	spec, _ := ParseSpec("p:error:1")
	ctx := ContextWith(context.Background(), spec.Injector(3))
	if err := Inject(ctx, "p"); err == nil {
		t.Fatal("context-scoped rule did not fire")
	}
	// Other contexts are unaffected.
	if err := Inject(context.Background(), "p"); err != nil {
		t.Fatalf("unscoped ctx fired: %v", err)
	}
	// Carry moves the injector across a context detach.
	detached := Carry(context.Background(), ctx)
	if err := Inject(detached, "p"); err == nil {
		t.Fatal("carried rule did not fire")
	}
	if got := Carry(context.Background(), context.Background()); FromContext(got) != nil {
		t.Fatal("Carry invented an injector")
	}
}

func TestClassOf(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Permanent},
		{boom, Permanent},
		{context.Canceled, Cancelled},
		{context.DeadlineExceeded, Cancelled},
		{Transient.Wrap(boom), Transient},
		{&InjectedError{Point: "p", Class: Transient}, Transient},
		{&StageError{Stage: "thermal", Fingerprint: "abc", Err: Transient.Wrap(boom)}, Transient},
		{&StageError{Stage: "thermal", Fingerprint: "abc", Err: boom}, Permanent},
		{&StageError{Stage: "thermal", Fingerprint: "abc", Err: context.Canceled}, Cancelled},
	}
	for i, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("case %d: ClassOf(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
	// Provenance wrapper stays transparent to errors.Is.
	se := &StageError{Stage: "pca", Fingerprint: "ff", Err: Transient.Wrap(boom)}
	if !errors.Is(se, boom) {
		t.Fatal("StageError hides its cause from errors.Is")
	}
	if !strings.Contains(se.Error(), "pca") || !strings.Contains(se.Error(), "ff") {
		t.Fatalf("StageError message lacks provenance: %s", se)
	}
}

// FuzzParseSpec feeds the fault-profile grammar arbitrary text (the
// -fault flag and the chaos endpoints take it from operators). ParseSpec
// must never panic, and every accepted rule is within the grammar's
// documented bounds: a non-empty point, a known kind, a probability in
// [0, 1], a non-negative latency only on latency rules, and a String
// form that parses back to the same rule. The seed corpus is under
// testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			if s != nil {
				t.Fatalf("rejected spec (%v) returned a profile", err)
			}
			return
		}
		if !s.Seeded && s.Seed != 0 {
			t.Fatalf("unseeded spec has seed %d", s.Seed)
		}
		for _, r := range s.Rules {
			if r.Point == "" || strings.ContainsAny(r.Point, "(,:") {
				t.Fatalf("accepted point %q", r.Point)
			}
			if !(r.Prob >= 0 && r.Prob <= 1) {
				t.Fatalf("accepted probability %v", r.Prob)
			}
			if r.Latency < 0 || (r.Latency != 0 && r.Kind != KindLatency) {
				t.Fatalf("accepted latency %v on a %v rule", r.Latency, r.Kind)
			}
			if r.Kind != KindError && r.Kind != KindLatency && r.Kind != KindPanic {
				t.Fatalf("accepted kind %d", r.Kind)
			}
			again, err := ParseSpec(r.String())
			if err != nil || len(again.Rules) != 1 || again.Rules[0] != r {
				t.Fatalf("rule %+v prints as %q, which parses to %+v (%v)", r, r.String(), again, err)
			}
		}
	})
}
