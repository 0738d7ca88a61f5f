package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("run")
	ksi := tr.StartSpan("ksi")
	s1 := tr.StartSpan("ksi.sweep")
	time.Sleep(time.Millisecond)
	s1.Set("sweep", 1).Set("residual", 0.5)
	s1.End()
	s2 := tr.StartSpan("ksi.sweep")
	s2.End()
	ksi.End()
	embed := tr.StartSpan("embed")
	embed.End()
	root := tr.Root()

	if root.Name != "run" || len(root.Children) != 2 {
		t.Fatalf("root = %q with %d children, want run with 2", root.Name, len(root.Children))
	}
	gotKSI := root.Children[0]
	if gotKSI.Name != "ksi" || len(gotKSI.Children) != 2 {
		t.Fatalf("ksi span has %d children, want 2 sweeps", len(gotKSI.Children))
	}
	if gotKSI.Children[0].Attrs["sweep"] != 1 || gotKSI.Children[0].Attrs["residual"] != 0.5 {
		t.Errorf("sweep attrs = %v", gotKSI.Children[0].Attrs)
	}
	if gotKSI.Children[0].Duration < time.Millisecond {
		t.Errorf("sweep duration = %v, want >= 1ms", gotKSI.Children[0].Duration)
	}
	if gotKSI.Duration < gotKSI.Children[0].Duration {
		t.Errorf("parent duration %v < child duration %v", gotKSI.Duration, gotKSI.Children[0].Duration)
	}
	if root.Children[1].Name != "embed" {
		t.Errorf("second child = %q, want embed", root.Children[1].Name)
	}
}

func TestSpanOutOfOrderEnd(t *testing.T) {
	tr := NewTrace("run")
	outer := tr.StartSpan("outer")
	tr.StartSpan("inner") // never explicitly ended
	outer.End()           // must close inner too
	next := tr.StartSpan("next")
	next.End()
	root := tr.Root()
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (next must not nest under outer)", len(root.Children))
	}
	if !root.Children[0].Children[0].ended {
		t.Error("inner span left open")
	}
}

// TestStartChildConcurrentSiblings: detached children are the
// fan-out-safe span form — N goroutines each open one under the same
// parent and End them in arbitrary order without closing each other or
// disturbing the trace's open-span stack.
func TestStartChildConcurrentSiblings(t *testing.T) {
	tr := NewTrace("run")
	gather := tr.StartSpan("gather")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := gather.StartChild("shard")
			c.Set("shard", i)
			c.StartChild("attempt").End() // detached spans nest further
			c.End()
		}(i)
	}
	wg.Wait()
	// The stack is undisturbed: a StartSpan after the fan-out is a
	// sibling of gather, not a child of some shard span.
	gather.End()
	after := tr.StartSpan("encode")
	after.End()
	root := tr.Root()
	if len(root.Children) != 2 || root.Children[1].Name != "encode" {
		t.Fatalf("root children = %+v, want [gather encode]", root.Children)
	}
	shards := root.Children[0].Children
	if len(shards) != 8 {
		t.Fatalf("gather has %d children, want 8", len(shards))
	}
	for _, c := range shards {
		if !c.ended || c.Name != "shard" {
			t.Errorf("shard span %+v left open or misnamed", c)
		}
		if len(c.Children) != 1 || !c.Children[0].ended {
			t.Errorf("nested attempt span wrong: %+v", c.Children)
		}
	}
	// Ending a detached child twice or after its parent is harmless.
	shards[0].End()
}

// TestStartChildNotClosedByStackEnd: an out-of-order End on a stack
// span (which sweeps up everything opened after it) must not touch an
// open detached child — the shard goroutine holding it may still be
// running.
func TestStartChildNotClosedByStackEnd(t *testing.T) {
	tr := NewTrace("run")
	outer := tr.StartSpan("outer")
	c := outer.StartChild("inflight")
	outer.End() // sweeps the stack, not the detached child
	if c.ended {
		t.Fatal("detached child closed by its parent's stack End")
	}
	c.End()
	if !c.ended || c.Duration <= 0 {
		t.Fatalf("detached child did not close itself: %+v", c)
	}
	// Nil safety mirrors StartSpan.
	var nilSpan *Span
	nilSpan.StartChild("x").Set("k", 1).End()
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace("run")
	sp := tr.StartSpan("phase")
	sp.Set("k", 32)
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Span
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if decoded.Name != "run" || len(decoded.Children) != 1 || decoded.Children[0].Name != "phase" {
		t.Errorf("decoded tree wrong: %+v", decoded)
	}
}

func TestNilTraceAndSpanSafe(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil trace must return nil span")
	}
	sp.Set("k", 1)
	sp.End()
	if err := tr.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNilSafe(t *testing.T) {
	var r *Run
	r.Span("x").End()
	r.Logger().Info("no-op")
	r.Registry().Counter("c", "").Inc()
	r.Emit(Progress{Phase: "ksi.sweep", Step: 1})
	// Non-nil run with nil fields.
	r2 := &Run{}
	r2.Span("x").End()
	r2.Emit(Progress{})
	var got []Progress
	r3 := &Run{Progress: func(p Progress) { got = append(got, p) }}
	r3.Emit(Progress{Phase: "rsvd.block", Step: 2, Total: 5})
	if len(got) != 1 || got[0].Step != 2 {
		t.Errorf("progress hook got %v", got)
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "").Add(3)
	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hits_total 3") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/debug/vars = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}
