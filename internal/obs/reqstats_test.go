package obs

import (
	"context"
	"testing"
)

func TestReqStatsRecording(t *testing.T) {
	ctx, rs := WithReqStats(context.Background())
	if got := ReqStatsFrom(ctx); got != rs {
		t.Fatal("collector not carried by context")
	}
	rs.RecordStage("floorplan", "mem", 0)
	rs.RecordStage("powermap", "disk", 0)
	rs.RecordStage("thermal", "peer", 0)
	rs.RecordStage("analyzer", "built", 7_000_000)
	rs.RecordStage("analyzer", "built", 3_000_000)

	builds, mem, disk, peer, buildNs := rs.Counts()
	if builds != 2 || mem != 1 || disk != 1 || peer != 1 || buildNs != 10_000_000 {
		t.Fatalf("counts = builds=%d mem=%d disk=%d peer=%d buildNs=%d", builds, mem, disk, peer, buildNs)
	}
	visits, dropped := rs.Visits()
	if len(visits) != 5 || dropped != 0 {
		t.Fatalf("visits = %d dropped = %d", len(visits), dropped)
	}
	if visits[3].Stage != "analyzer" || visits[3].Source != "built" || visits[3].BuildMs != 7 {
		t.Fatalf("visit[3] = %+v", visits[3])
	}
}

func TestReqStatsVisitCap(t *testing.T) {
	_, rs := WithReqStats(context.Background())
	for i := 0; i < maxStageVisits+10; i++ {
		rs.RecordStage("thermal", "mem", 0)
	}
	visits, dropped := rs.Visits()
	if len(visits) != maxStageVisits || dropped != 10 {
		t.Fatalf("visits=%d dropped=%d", len(visits), dropped)
	}
	_, mem, _, _, _ := rs.Counts()
	if _ = mem; mem != maxStageVisits+10 {
		t.Fatalf("counts must keep counting past the cap: mem=%d", mem)
	}
}

// TestReqStatsDisabledZeroAlloc proves the library path outside a
// server request: a context without a collector resolves to a nil
// *ReqStats, and recording into it allocates nothing.
func TestReqStatsDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	if rs := ReqStatsFrom(ctx); rs != nil {
		t.Fatal("plain context should carry no collector")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ReqStatsFrom(ctx).RecordStage("thermal", "built", 12345)
	})
	if allocs != 0 {
		t.Fatalf("disabled ReqStats path allocates %.1f/op, want 0", allocs)
	}
	var rs *ReqStats
	if v, d := rs.Visits(); v != nil || d != 0 {
		t.Fatal("nil Visits should be empty")
	}
	if b, m, d, p, ns := rs.Counts(); b != 0 || m != 0 || d != 0 || p != 0 || ns != 0 {
		t.Fatal("nil Counts should be zero")
	}
}
