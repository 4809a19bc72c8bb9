package server

import (
	"context"
	"net/http"
	"slices"
	"sort"

	"obdrel/internal/member"
	"obdrel/internal/obs"
)

// The fleet-status surface: every node serves its own compact stats
// document on /v1/cluster/stats, and any node aggregates the whole
// fleet on /v1/cluster/status by fanning out to its peers with a
// bounded timeout and merging the fixed-bucket histograms. Both are
// ops routes served OUTSIDE instrument: they must keep answering
// while the node drains (observability has to outlive the drain), and
// they never consume an admission slot.

// tierCounters is the node-level artifact telemetry in wire form.
type tierCounters struct {
	FetchAttempts int64 `json:"fetch_attempts"`
	FetchFills    int64 `json:"fetch_fills"`
	FetchErrors   int64 `json:"fetch_errors"`
	PeerServes    int64 `json:"peer_serves"`
	WarmLoaded    int64 `json:"warm_loaded"`
}

// routeStats is one route's share of a node's stats document.
type routeStats struct {
	Requests int64                 `json:"requests"`
	Latency  obs.HistogramSnapshot `json:"latency"`
}

// nodeStats is the compact per-node document served on
// GET /v1/cluster/stats. The membership fields are zero outside
// cluster mode, and a mixed-version or mixed-epoch fleet decodes
// whatever subset each node reports — per-node data always survives.
type nodeStats struct {
	Node            string                `json:"node"`
	Healthy         bool                  `json:"healthy"`
	Draining        bool                  `json:"draining"`
	Warming         bool                  `json:"warming"`
	UptimeS         float64               `json:"uptime_s"`
	AnalyzersCached int                   `json:"analyzers_cached"`
	InFlight        int64                 `json:"in_flight"`
	Tiers           tierCounters          `json:"tiers"`
	Routes          map[string]routeStats `json:"routes"`

	// Membership view (omitted outside cluster mode): this node's
	// epoch and its own member directory with per-member states.
	Epoch   uint64        `json:"epoch,omitempty"`
	Members []member.Info `json:"members,omitempty"`
}

// localNodeStats snapshots this node.
func (s *Server) localNodeStats() nodeStats {
	hists, reqs := s.metrics.RouteSnapshots()
	routes := make(map[string]routeStats, len(hists))
	for r, h := range hists {
		routes[r] = routeStats{Requests: reqs[r], Latency: h}
	}
	node := ""
	if s.cluster != nil {
		node = s.cluster.self
	}
	a := s.artifactStats()
	ns := nodeStats{
		Node:            node,
		Healthy:         true,
		Draining:        s.draining.Load(),
		Warming:         s.warming.Load(),
		UptimeS:         s.metrics.Uptime().Seconds(),
		AnalyzersCached: s.reg.Len(),
		InFlight:        s.metrics.InFlight.Load(),
		Tiers: tierCounters{
			FetchAttempts: a.FetchAttempts,
			FetchFills:    a.FetchFills,
			FetchErrors:   a.FetchErrors,
			PeerServes:    a.PeerServes,
			WarmLoaded:    a.WarmLoaded,
		},
		Routes: routes,
	}
	if cl := s.cluster; cl != nil {
		ns.Epoch = cl.epochView()
		ns.Members = cl.dir.Members()
	}
	return ns
}

// handleClusterStats serves this node's stats document to peers.
func (s *Server) handleClusterStats(http.ResponseWriter, *http.Request, *observed) (int, any) {
	return http.StatusOK, s.localNodeStats()
}

// nodeEntry is one node's row in the fleet status: its stats document,
// or — for a dead peer — the error that replaced it. Dead peers are
// REPORTED, never fatal: the whole point of the fan-out is to keep
// answering while the fleet degrades.
type nodeEntry struct {
	nodeStats
	Err string `json:"error,omitempty"`
}

// fleetQuantiles is a merged latency summary.
type fleetQuantiles struct {
	Requests int64   `json:"requests"`
	P50Us    float64 `json:"p50_us"`
	P95Us    float64 `json:"p95_us"`
	P99Us    float64 `json:"p99_us"`
	MaxUs    float64 `json:"max_us"`
	MeanUs   float64 `json:"mean_us"`
}

func quantilesOf(h *obs.Histogram, requests int64) fleetQuantiles {
	return fleetQuantiles{
		Requests: requests,
		P50Us:    float64(h.Quantile(0.50).Microseconds()),
		P95Us:    float64(h.Quantile(0.95).Microseconds()),
		P99Us:    float64(h.Quantile(0.99).Microseconds()),
		MaxUs:    float64(h.Max().Microseconds()),
		MeanUs:   float64(h.Mean().Microseconds()),
	}
}

// clusterStatusOut is the /v1/cluster/status document.
type clusterStatusOut struct {
	Self      string      `json:"self"`
	NodesOK   int         `json:"nodes_ok"`
	NodesDead int         `json:"nodes_dead"`
	Degraded  bool        `json:"degraded"`
	Nodes     []nodeEntry `json:"nodes"`
	// Fleet merges every healthy node's fixed-bucket histograms:
	// per-route and overall p50/p95/p99 over the pooled samples, with
	// the exact fleet-wide max preserved by Histogram.MergeSnapshot.
	Fleet struct {
		Overall fleetQuantiles            `json:"overall"`
		Routes  map[string]fleetQuantiles `json:"routes"`
	} `json:"fleet"`
	// Ring is each node's exact share of the key space (empty outside
	// cluster mode), evaluated on THIS node's current ring — the
	// shares are per-epoch, stamped with RingEpoch.
	Ring map[string]float64 `json:"ring,omitempty"`
	// Membership fleet view: RingEpoch is this node's; Membership its
	// directory with per-member states; MixedEpochs is true when
	// healthy nodes report different epochs — the fleet is
	// mid-convergence, so cross-node aggregates should be read per-node
	// rather than as one consistent ring. Mixed epochs degrade
	// reporting, never error.
	RingEpoch   uint64        `json:"ring_epoch,omitempty"`
	Membership  []member.Info `json:"membership,omitempty"`
	MixedEpochs bool          `json:"mixed_epochs,omitempty"`
}

// clusterStatus assembles the fleet view: local stats directly, every
// peer in parallel under its bounded timeout.
func (s *Server) clusterStatus(ctx context.Context) clusterStatusOut {
	var out clusterStatusOut
	cl := s.cluster
	if cl == nil {
		// Degenerate single-node fleet: the same document shape, one
		// healthy node, no ring.
		out.Nodes = []nodeEntry{{nodeStats: s.localNodeStats()}}
	} else {
		out.Self = cl.self
		out.Ring = cl.ringView().shares()
		out.RingEpoch = cl.epochView()
		out.Membership = cl.dir.Members()
		// The fan-out targets the CURRENT ring: a dead -join member
		// has left it and is reported in Membership (with state
		// "dead") rather than probed, so a shrunken fleet does not pay
		// a timeout per tombstone on every status call. A dead pinned
		// member stays in the ring, so it is probed and reported as a
		// failed node.
		peers := cl.peersView()
		entries := make([]nodeEntry, len(peers))
		cl.fanOut(peers, func(i int, peer string) {
			var ns nodeStats
			if err := cl.callJSON(ctx, peer, http.MethodGet, "/v1/cluster/stats", nil, &ns, 4<<20); err != nil {
				entries[i] = nodeEntry{nodeStats: nodeStats{Node: peer}, Err: err.Error()}
				return
			}
			ns.Node = peer // trust our own membership list over the peer's self-report
			entries[i] = nodeEntry{nodeStats: ns}
		})
		entries[slices.Index(peers, cl.self)] = nodeEntry{nodeStats: s.localNodeStats()}
		out.Nodes = entries
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })

	overall := &obs.Histogram{}
	var overallReqs int64
	merged := map[string]*obs.Histogram{}
	mergedReqs := map[string]int64{}
	for _, n := range out.Nodes {
		if n.Err != "" {
			out.NodesDead++
			continue
		}
		out.NodesOK++
		for route, rs := range n.Routes {
			h := merged[route]
			if h == nil {
				h = &obs.Histogram{}
				merged[route] = h
			}
			// A snapshot with a foreign bucket layout (mixed-version
			// fleet) is skipped: the node stays reported, its samples
			// just do not pollute the fleet quantiles.
			if h.MergeSnapshot(rs.Latency) {
				overall.MergeSnapshot(rs.Latency)
				overallReqs += rs.Requests
				mergedReqs[route] += rs.Requests
			}
		}
	}
	out.Degraded = out.NodesDead > 0
	// Mixed-epoch detection: healthy cluster nodes disagreeing on the
	// view epoch. A node outside cluster mode (epoch 0) never trips it.
	var seenEpoch uint64
	for _, n := range out.Nodes {
		if n.Err != "" || n.Epoch == 0 {
			continue
		}
		if seenEpoch == 0 {
			seenEpoch = n.Epoch
		} else if n.Epoch != seenEpoch {
			out.MixedEpochs = true
		}
	}
	out.Fleet.Overall = quantilesOf(overall, overallReqs)
	out.Fleet.Routes = make(map[string]fleetQuantiles, len(merged))
	for route, h := range merged {
		out.Fleet.Routes[route] = quantilesOf(h, mergedReqs[route])
	}
	return out
}

// handleClusterStatus serves the fleet aggregation. Always 200: a
// degraded fleet is an answer, not an error.
func (s *Server) handleClusterStatus(_ http.ResponseWriter, r *http.Request, _ *observed) (int, any) {
	return http.StatusOK, s.clusterStatus(r.Context())
}
