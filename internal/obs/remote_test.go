package obs

import (
	"context"
	"testing"
)

// TestAttachRemoteGraft: a foreign span subtree grafts under the local
// span at export, rebased onto the local span's start offset.
func TestAttachRemoteGraft(t *testing.T) {
	tr := NewTracer(Options{RingSize: 4})
	ctx, root := tr.StartTrace(context.Background(), "req", "", "")
	_, fetch := StartSpan(ctx, "artifact.fetch")

	remote := &SpanOut{
		Name:    "peer.serve",
		SpanID:  "feedfacefeedface",
		StartUs: 0,
		DurUs:   80,
		Attrs:   map[string]any{"node": "http://peer-b"},
		Children: []*SpanOut{
			{Name: "disk.load", StartUs: 10, DurUs: 30},
		},
	}
	fetch.AttachRemote(remote)
	fetch.End()
	out := root.EndTrace()
	if out == nil {
		t.Fatal("no trace out")
	}

	var fetchOut *SpanOut
	out.Root.Walk(func(s *SpanOut) {
		if s.Name == "artifact.fetch" {
			fetchOut = s
		}
	})
	if fetchOut == nil {
		t.Fatal("artifact.fetch missing from export")
	}
	if len(fetchOut.Children) != 1 || fetchOut.Children[0].Name != "peer.serve" {
		t.Fatalf("remote subtree not grafted: %+v", fetchOut.Children)
	}
	ps := fetchOut.Children[0]
	if ps.Attrs["node"] != "http://peer-b" {
		t.Fatalf("remote attrs lost: %+v", ps.Attrs)
	}
	// Rebase: the remote root is pinned to the fetch span's own start,
	// and intra-subtree offsets are preserved.
	if ps.StartUs != fetchOut.StartUs {
		t.Fatalf("remote root start %v, fetch start %v", ps.StartUs, fetchOut.StartUs)
	}
	// rebase adds one delta to every start, so the child sits at
	// exactly the root's rebased start plus its remote offset of 10.
	if got, want := ps.Children[0].StartUs, ps.StartUs+10; got != want {
		t.Fatalf("grafted child start = %v, want root start + 10 = %v", got, want)
	}

	// Walk visits the grafted spans too.
	names := map[string]bool{}
	out.Root.Walk(func(s *SpanOut) { names[s.Name] = true })
	if !names["disk.load"] {
		t.Fatal("Walk skipped grafted descendants")
	}
}

// TestAttachRemoteAfterEnd: grafting onto an ended span is discarded,
// keeping delivered snapshots immutable.
func TestAttachRemoteAfterEnd(t *testing.T) {
	tr := NewTracer(Options{RingSize: 4})
	ctx, root := tr.StartTrace(context.Background(), "req", "", "")
	_, sp := StartSpan(ctx, "child")
	sp.End()
	sp.AttachRemote(&SpanOut{Name: "late"})
	out := root.EndTrace()
	out.Root.Walk(func(s *SpanOut) {
		if s.Name == "late" {
			t.Fatal("post-End graft leaked into export")
		}
	})
	var nilSpan *Span
	nilSpan.AttachRemote(&SpanOut{}) // no panic
	sp.AttachRemote(nil)             // no panic
}
