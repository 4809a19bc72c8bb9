package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO objective kinds.
const (
	KindAvailability = "availability"
	KindLatency      = "latency"
)

// Objective is one service-level objective: a per-route availability
// target ("99.9% of requests succeed") or latency threshold target
// ("99% of requests finish within 25ms"). A request is BAD for an
// availability objective when its status is 5xx, and for a latency
// objective when it is 5xx or slower than the threshold.
type Objective struct {
	// Route is the metrics route label the objective watches, or "*"
	// to watch every route.
	Route string
	// Kind is KindAvailability or KindLatency.
	Kind string
	// Threshold is the latency bound (latency objectives only).
	Threshold time.Duration
	// Target is the objective in percent, e.g. 99.9. Must be in (0, 100).
	Target float64
}

// Label is the objective's stable metrics label: "availability" or
// "latency_<threshold>".
func (o Objective) Label() string {
	if o.Kind == KindLatency {
		return "latency_" + o.Threshold.String()
	}
	return KindAvailability
}

// ParseSLOSpec parses the -slo flag grammar: a comma-separated list of
//
//	route:availability:target
//	route:latency:threshold:target
//
// e.g. "/v1/lifetime:availability:99.9,/v1/lifetime:latency:25ms:99".
// Route "*" watches every route. Target is percent in (0, 100);
// threshold is any time.ParseDuration string.
func ParseSLOSpec(spec string) ([]Objective, error) {
	var objs []Objective
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("slo %q: want route:availability:target or route:latency:threshold:target", entry)
		}
		o := Objective{Route: parts[0]}
		if o.Route != "*" && !strings.HasPrefix(o.Route, "/") {
			return nil, fmt.Errorf("slo %q: route must start with '/' or be '*'", entry)
		}
		var targetStr string
		switch parts[1] {
		case "availability", "avail":
			if len(parts) != 3 {
				return nil, fmt.Errorf("slo %q: availability takes exactly one target", entry)
			}
			o.Kind = KindAvailability
			targetStr = parts[2]
		case "latency":
			if len(parts) != 4 {
				return nil, fmt.Errorf("slo %q: latency wants route:latency:threshold:target", entry)
			}
			o.Kind = KindLatency
			thr, err := time.ParseDuration(parts[2])
			if err != nil || thr <= 0 {
				return nil, fmt.Errorf("slo %q: bad threshold %q", entry, parts[2])
			}
			o.Threshold = thr
			targetStr = parts[3]
		default:
			return nil, fmt.Errorf("slo %q: unknown kind %q (availability|latency)", entry, parts[1])
		}
		t, err := strconv.ParseFloat(targetStr, 64)
		if err != nil || !(t > 0 && t < 100) { // NaN fails too
			return nil, fmt.Errorf("slo %q: target must be a percent in (0, 100)", entry)
		}
		o.Target = t
		objs = append(objs, o)
	}
	return objs, nil
}

// BurnWindows are the rolling windows burn rates are reported over.
var BurnWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// sloRingSlots is one slot per second covering the longest window.
const sloRingSlots = 3600

type sloSlot struct {
	sec       int64
	good, bad int64
}

// sloExemplars is the per-objective ring of recent violating requests.
const sloExemplars = 8

// SLOExemplar links a budget-burning request back to its trace.
type SLOExemplar struct {
	TraceID string  `json:"trace_id"`
	UnixMs  int64   `json:"unix_ms"`
	Status  int     `json:"status"`
	DurMs   float64 `json:"dur_ms"`
}

type sloObjective struct {
	obj   Objective
	label string

	mu        sync.Mutex
	good, bad int64
	slots     [sloRingSlots]sloSlot
	ex        [sloExemplars]SLOExemplar
	exN       int
	// bucketEx maps each latency-histogram bucket to the most recent
	// violating trace id that landed in it, so a burning window links
	// straight from a histogram bucket to an offending trace.
	bucketEx [len(LatencyBuckets) + 1]string
}

// SLO tracks a set of objectives over rolling windows. A nil *SLO is
// a valid disabled engine: Observe no-ops, Report returns nil.
type SLO struct {
	objs []*sloObjective
	now  func() time.Time // injectable for window-math tests
}

// NewSLO builds the burn-rate engine; nil when objs is empty, so the
// disabled engine costs one nil check per request.
func NewSLO(objs []Objective) *SLO {
	if len(objs) == 0 {
		return nil
	}
	s := &SLO{now: time.Now}
	for _, o := range objs {
		s.objs = append(s.objs, &sloObjective{obj: o, label: o.Label()})
	}
	return s
}

// Observe scores one finished request against every matching
// objective. traceID may be empty (untraced request); exemplars then
// record only timing.
func (s *SLO) Observe(route string, status int, d time.Duration, traceID string) {
	if s == nil {
		return
	}
	for _, o := range s.objs {
		if o.obj.Route != "*" && o.obj.Route != route {
			continue
		}
		good := status < 500
		if good && o.obj.Kind == KindLatency && d > o.obj.Threshold {
			good = false
		}
		sec := s.now().Unix()
		o.mu.Lock()
		slot := &o.slots[sec%sloRingSlots]
		if slot.sec != sec {
			slot.sec, slot.good, slot.bad = sec, 0, 0
		}
		if good {
			o.good++
			slot.good++
		} else {
			o.bad++
			slot.bad++
			o.ex[o.exN%sloExemplars] = SLOExemplar{
				TraceID: traceID,
				UnixMs:  s.now().UnixMilli(),
				Status:  status,
				DurMs:   float64(d.Nanoseconds()) / 1e6,
			}
			o.exN++
			if traceID != "" {
				i := sort.SearchFloat64s(LatencyBuckets[:], d.Seconds())
				o.bucketEx[i] = traceID
			}
		}
		o.mu.Unlock()
	}
}

// SLOWindow is one rolling window's burn accounting. Burn is the
// window's error rate divided by the objective's error budget
// (1 - target): burn 1.0 consumes the budget exactly at the rate that
// exhausts it over the SLO period, >1 is over-burning.
type SLOWindow struct {
	Window  string  `json:"window"`
	Seconds int     `json:"seconds"`
	Good    int64   `json:"good"`
	Bad     int64   `json:"bad"`
	ErrRate float64 `json:"err_rate"`
	Burn    float64 `json:"burn"`
}

// ObjectiveReport is one objective's full burn-rate report.
type ObjectiveReport struct {
	Route       string            `json:"route"`
	Kind        string            `json:"kind"`
	Label       string            `json:"label"`
	ThresholdMs float64           `json:"threshold_ms,omitempty"`
	TargetPct   float64           `json:"target_pct"`
	Good        int64             `json:"good_total"`
	Bad         int64             `json:"bad_total"`
	Windows     []SLOWindow       `json:"windows"`
	Exemplars   []SLOExemplar     `json:"exemplars,omitempty"`
	BucketEx    map[string]string `json:"bucket_exemplars,omitempty"`
}

// Report snapshots every objective's totals, windowed burn rates, and
// exemplars. Nil engines return nil.
func (s *SLO) Report() []ObjectiveReport {
	if s == nil {
		return nil
	}
	now := s.now().Unix()
	out := make([]ObjectiveReport, 0, len(s.objs))
	for _, o := range s.objs {
		o.mu.Lock()
		r := ObjectiveReport{
			Route:     o.obj.Route,
			Kind:      o.obj.Kind,
			Label:     o.label,
			TargetPct: o.obj.Target,
			Good:      o.good,
			Bad:       o.bad,
		}
		if o.obj.Kind == KindLatency {
			r.ThresholdMs = float64(o.obj.Threshold.Nanoseconds()) / 1e6
		}
		budget := 1 - o.obj.Target/100
		for _, w := range BurnWindows {
			ws := int64(w / time.Second)
			var good, bad int64
			for i := range o.slots {
				sl := &o.slots[i]
				if sl.sec > now-ws && sl.sec <= now {
					good += sl.good
					bad += sl.bad
				}
			}
			win := SLOWindow{Window: w.String(), Seconds: int(ws), Good: good, Bad: bad}
			if total := good + bad; total > 0 {
				win.ErrRate = float64(bad) / float64(total)
				if budget > 0 {
					win.Burn = win.ErrRate / budget
				}
			}
			r.Windows = append(r.Windows, win)
		}
		n := o.exN
		if n > sloExemplars {
			n = sloExemplars
		}
		for i := 0; i < n; i++ {
			// Newest first: walk back from the last written slot.
			idx := ((o.exN-1-i)%sloExemplars + sloExemplars) % sloExemplars
			r.Exemplars = append(r.Exemplars, o.ex[idx])
		}
		for i, tid := range o.bucketEx {
			if tid == "" {
				continue
			}
			if r.BucketEx == nil {
				r.BucketEx = make(map[string]string)
			}
			le := "+Inf"
			if i < len(LatencyBuckets) {
				le = strconv.FormatFloat(LatencyBuckets[i], 'g', -1, 64)
			}
			r.BucketEx[le] = tid
		}
		o.mu.Unlock()
		out = append(out, r)
	}
	return out
}
