package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLOSpec(t *testing.T) {
	objs, err := ParseSLOSpec("/v1/lifetime:availability:99.9, /v1/lifetime:latency:25ms:99,*:avail:95")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objectives", len(objs))
	}
	if objs[0].Route != "/v1/lifetime" || objs[0].Kind != KindAvailability || objs[0].Target != 99.9 {
		t.Fatalf("objs[0] = %+v", objs[0])
	}
	if objs[1].Kind != KindLatency || objs[1].Threshold != 25*time.Millisecond || objs[1].Target != 99 {
		t.Fatalf("objs[1] = %+v", objs[1])
	}
	if objs[1].Label() != "latency_25ms" || objs[0].Label() != "availability" {
		t.Fatalf("labels %q %q", objs[1].Label(), objs[0].Label())
	}
	if objs[2].Route != "*" {
		t.Fatalf("objs[2] = %+v", objs[2])
	}

	for _, bad := range []string{
		"lifetime:availability:99",    // route missing slash
		"/v1/x:availability:100",      // target out of range
		"/v1/x:availability:0",        // target out of range
		"/v1/x:latency:99",            // latency missing threshold
		"/v1/x:latency:-5ms:99",       // negative threshold
		"/v1/x:throughput:99",         // unknown kind
		"/v1/x:availability:99:extra", // extra field
		"/v1/x:availability:ninety9",  // non-numeric target
	} {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
	if objs, err := ParseSLOSpec(""); err != nil || objs != nil {
		t.Fatalf("empty spec: %v %v", objs, err)
	}
}

func TestSLOWindowMathAndExemplars(t *testing.T) {
	objs, err := ParseSLOSpec("/v1/lifetime:availability:99,/v1/lifetime:latency:10ms:90")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSLO(objs)
	base := time.Unix(1_700_000_000, 0)
	clock := base
	s.now = func() time.Time { return clock }

	// 40 minutes ago: 100 requests, 10 5xx. Outside 1m/5m, inside 1h.
	clock = base.Add(-40 * time.Minute)
	for i := 0; i < 90; i++ {
		s.Observe("/v1/lifetime", 200, time.Millisecond, "")
	}
	for i := 0; i < 10; i++ {
		s.Observe("/v1/lifetime", 503, time.Millisecond, "aaaa000000000000000000000000000"+string(rune('0'+i)))
	}
	// 30 seconds ago: 50 requests, 5 slow-but-successful (50ms).
	clock = base.Add(-30 * time.Second)
	for i := 0; i < 45; i++ {
		s.Observe("/v1/lifetime", 200, time.Millisecond, "")
	}
	for i := 0; i < 5; i++ {
		s.Observe("/v1/lifetime", 200, 50*time.Millisecond, "bbbb000000000000000000000000000"+string(rune('0'+i)))
	}
	// A route no objective watches: must not count anywhere.
	s.Observe("/v1/designs", 500, time.Millisecond, "")

	clock = base
	reps := s.Report()
	if len(reps) != 2 {
		t.Fatalf("got %d reports", len(reps))
	}
	avail, lat := reps[0], reps[1]

	// Availability: bad = the 10 old 5xx only; slow successes are good.
	if avail.Good != 140 || avail.Bad != 10 {
		t.Fatalf("avail totals good=%d bad=%d", avail.Good, avail.Bad)
	}
	w1m, w5m, w1h := avail.Windows[0], avail.Windows[1], avail.Windows[2]
	if w1m.Bad != 0 || w1m.Good != 50 {
		t.Fatalf("avail 1m = %+v", w1m)
	}
	if w5m.Bad != 0 || w5m.Good != 50 {
		t.Fatalf("avail 5m = %+v", w5m)
	}
	if w1h.Bad != 10 || w1h.Good != 140 {
		t.Fatalf("avail 1h = %+v", w1h)
	}
	// Burn over 1h: err rate 10/150 against a 1% budget.
	wantBurn := (10.0 / 150.0) / 0.01
	if diff := w1h.Burn - wantBurn; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("avail 1h burn = %v want %v", w1h.Burn, wantBurn)
	}

	// Latency 10ms/90%: old 5xx bad AND recent 50ms successes bad.
	if lat.Bad != 15 {
		t.Fatalf("latency bad = %d", lat.Bad)
	}
	if lat.Windows[0].Bad != 5 || lat.Windows[2].Bad != 15 {
		t.Fatalf("latency windows = %+v", lat.Windows)
	}

	// Exemplars: newest first, carrying the violating trace ids.
	if len(lat.Exemplars) == 0 || !strings.HasPrefix(lat.Exemplars[0].TraceID, "bbbb") {
		t.Fatalf("latency exemplars = %+v", lat.Exemplars)
	}
	if lat.Exemplars[0].DurMs != 50 {
		t.Fatalf("exemplar dur = %v", lat.Exemplars[0].DurMs)
	}
	// Bucket exemplars: 50ms lands in the le=0.05 bucket.
	if tid := lat.BucketEx["0.05"]; !strings.HasPrefix(tid, "bbbb") {
		t.Fatalf("bucket exemplars = %+v", lat.BucketEx)
	}

	// One hour later the ring has aged everything out of every window.
	clock = base.Add(2 * time.Hour)
	reps = s.Report()
	for _, w := range reps[0].Windows {
		if w.Good != 0 || w.Bad != 0 {
			t.Fatalf("aged window still counts: %+v", w)
		}
	}
	// Lifetime totals survive aging.
	if reps[0].Good != 140 || reps[0].Bad != 10 {
		t.Fatalf("totals aged out: %+v", reps[0])
	}
}

func TestSLONilEngine(t *testing.T) {
	var s *SLO
	s.Observe("/v1/lifetime", 500, time.Second, "x") // must not panic
	if s.Report() != nil {
		t.Fatal("nil engine reported data")
	}
	if NewSLO(nil) != nil {
		t.Fatal("empty objective set should build a nil engine")
	}
}

// FuzzParseSLOSpec feeds the -slo grammar arbitrary text. ParseSLOSpec
// must never panic, and every accepted objective is within the
// grammar's documented bounds: a route of "*" or starting with '/', a
// known kind, a positive threshold on latency objectives only, and a
// target percent in (0, 100). The seed corpus is under
// testdata/fuzz/FuzzParseSLOSpec.
func FuzzParseSLOSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseSLOSpec(spec)
		if err != nil {
			if objs != nil {
				t.Fatalf("rejected spec (%v) returned objectives", err)
			}
			return
		}
		for _, o := range objs {
			if o.Route != "*" && !strings.HasPrefix(o.Route, "/") || strings.ContainsAny(o.Route, ",:") {
				t.Fatalf("accepted route %q", o.Route)
			}
			switch o.Kind {
			case KindAvailability:
				if o.Threshold != 0 {
					t.Fatalf("availability objective with threshold %v", o.Threshold)
				}
			case KindLatency:
				if o.Threshold <= 0 {
					t.Fatalf("latency objective with threshold %v", o.Threshold)
				}
			default:
				t.Fatalf("accepted kind %q", o.Kind)
			}
			if !(o.Target > 0 && o.Target < 100) {
				t.Fatalf("accepted target %v", o.Target)
			}
		}
	})
}
