package main

import (
	"sort"
	"time"

	"obdrel"
)

// rowNames are the layers whose per-op self times add up to the client
// time, with unattributed carrying whatever clipping left over.
var rowNames = func() []string {
	rows := []string{"http", "server", "registry", "artifact", "engine"}
	for _, st := range obdrel.StageNames() {
		rows = append(rows, "pipeline."+st)
	}
	return append(rows, "unattributed")
}()

// selfTimes splits each traced op's client time into layer self times
// and returns their per-op means in µs, with the number of ops.
//
// The client span holds the op's server span (joined by the op
// header); the server span holds the registry.build spans inside it;
// a build holds its stage builds (the Stat deltas it carries) and any
// owner-side artifact.serve spans inside it. The engine time is not a
// span: it is the replayed engine time of the op's queries. A layer's
// self time is its span minus what its children cover, clipped at
// zero; whatever clipping removes shows up, negative, as unattributed.
func selfTimes(spans []span, engine map[int]time.Duration) (map[string]float64, int) {
	var clients, builds, serves []span
	servers := map[int]span{}
	for _, s := range spans {
		switch s.Name {
		case "client":
			clients = append(clients, s)
		case "server":
			if s.Op >= 0 {
				servers[s.Op] = s
			}
		case "registry.build":
			builds = append(builds, s)
		case "artifact.serve":
			serves = append(serves, s)
		}
	}
	byStart := func(xs []span) {
		sort.Slice(xs, func(i, j int) bool { return xs[i].Start < xs[j].Start })
	}
	byStart(builds)
	byStart(serves)

	sum := map[string]float64{}
	n := 0
	for _, c := range clients {
		s, ok := servers[c.Op]
		if !ok {
			continue
		}
		n++
		row := map[string]float64{}
		eng := float64(engine[c.Op])
		kids := within(builds, s)
		row["http"] = clip(float64(c.dur() - s.dur()))
		row["engine"] = eng
		row["server"] = clip(float64(s.dur()-cover(s, kids)) - eng)
		for _, b := range kids {
			in := cover(b, within(serves, b))
			stages := 0.0
			for _, st := range obdrel.StageNames() {
				ns := b.Attrs[st+".build_ns"]
				row["pipeline."+st] += ns
				stages += ns
			}
			row["artifact"] += float64(in)
			row["registry"] += clip(float64(b.dur()-in) - stages)
		}
		rest := float64(c.dur())
		for _, v := range row {
			rest -= v
		}
		row["unattributed"] = rest
		for k, v := range row {
			sum[k] += v
		}
	}
	out := map[string]float64{}
	for _, k := range rowNames {
		if n > 0 {
			out[k] = sum[k] / float64(n) / 1e3
		} else {
			out[k] = 0
		}
	}
	return out, n
}

func clip(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// within returns the spans of a start-sorted list that lie inside
// parent.
func within(sorted []span, parent span) []span {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Start >= parent.Start })
	var out []span
	for ; i < len(sorted) && sorted[i].Start <= parent.End; i++ {
		if sorted[i].End <= parent.End {
			out = append(out, sorted[i])
		}
	}
	return out
}

// cover returns how much of parent the union of kids covers, in ns.
func cover(parent span, kids []span) int64 {
	var total, lo, hi int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			lo, hi, open = s, e, true
		case s > hi:
			total += hi - lo
			lo, hi = s, e
		case e > hi:
			hi = e
		}
	}
	if open {
		total += hi - lo
	}
	return total
}
