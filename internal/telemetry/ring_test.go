package telemetry

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// emitN emits n attribute-free spans and returns the last ID.
func emitN(tr *Tracer, n int) int {
	id := 0
	for i := 0; i < n; i++ {
		id = tr.Emit(SpanSMP, "", 0, 0)
	}
	return id
}

// rangeIDs returns the IDs a Range read after afterID yields.
func rangeIDs(tr *Tracer, afterID int) []int {
	var ids []int
	tr.Range(afterID, func(s SpanRef) { ids = append(ids, s.ID()) })
	return ids
}

// wantIDs checks ids is exactly from..to.
func wantIDs(t *testing.T, what string, ids []int, from, to int) {
	t.Helper()
	if from > to {
		if len(ids) != 0 {
			t.Fatalf("%s: got %d spans (%d..), want none", what, len(ids), ids[0])
		}
		return
	}
	if len(ids) != to-from+1 || ids[0] != from || ids[len(ids)-1] != to {
		t.Fatalf("%s: got %d spans, want IDs %d..%d", what, len(ids), from, to)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("%s: IDs not contiguous at %d", what, ids[i])
		}
	}
}

// TestSpanRingWindows reads windows with afterID before the retained head,
// inside it, at the tail and across chunk drops, and after the cap shrinks.
func TestSpanRingWindows(t *testing.T) {
	tr := NewTracer()
	const cap = 2*spanChunkSize + 100
	tr.SetSpanCap(cap)
	last := emitN(tr, 5*spanChunkSize+7) // several chunks dropped by now
	head := last - cap + 1

	wantIDs(t, "before the head", rangeIDs(tr, 0), head, last)
	wantIDs(t, "just before the head", rangeIDs(tr, head-1), head, last)
	wantIDs(t, "inside", rangeIDs(tr, last-50), last-49, last)
	wantIDs(t, "at the tail", rangeIDs(tr, last), 1, 0)
	wantIDs(t, "past the tail", rangeIDs(tr, last+10), 1, 0)
	if got := len(tr.SpansSince(head + 5)); got != last-head-5 {
		t.Fatalf("SpansSince inside: %d spans, want %d", got, last-head-5)
	}
	if n := tr.retained(); n < cap || n > cap+spanChunkSize {
		t.Fatalf("retained %d spans, want within [%d, %d]", n, cap, cap+spanChunkSize)
	}

	// A window opened before a chunk drop keeps reading what it captured;
	// a window opened after starts at the new head.
	before := tr.window(head, last)
	last2 := emitN(tr, 2*spanChunkSize)
	if got := before.data(head).id; got != head {
		t.Fatalf("captured window after a chunk drop read ID %d, want %d", got, head)
	}
	wantIDs(t, "across a chunk drop", rangeIDs(tr, head), last2-cap+1, last2)
	if _, ok := tr.SpanByID(head); ok {
		t.Fatal("SpanByID found a span older than the retained head")
	}
	if sv, ok := tr.SpanByID(last2); !ok || sv.ID != last2 {
		t.Fatalf("SpanByID(%d) = %+v, %v", last2, sv, ok)
	}

	// Shrinking the cap keeps exactly the newest spans visible and frees
	// whole chunks.
	tr.SetSpanCap(100)
	wantIDs(t, "after SetSpanCap(100)", rangeIDs(tr, 0), last2-99, last2)
	if n := tr.retained(); n > 100+spanChunkSize {
		t.Fatalf("retained %d spans after shrinking the cap to 100", n)
	}
	last3 := emitN(tr, 3)
	wantIDs(t, "after the shrink, more spans", rangeIDs(tr, 0), last3-99, last3)
}

// TestSpanRingDefaultCap pins retention at DefaultSpanCap plus at most one
// chunk.
func TestSpanRingDefaultCap(t *testing.T) {
	tr := NewTracer()
	last := emitN(tr, DefaultSpanCap+2*spanChunkSize+17)
	if n := tr.retained(); n < DefaultSpanCap || n > DefaultSpanCap+spanChunkSize {
		t.Fatalf("retained %d spans, want within [%d, %d]", n, DefaultSpanCap, DefaultSpanCap+spanChunkSize)
	}
	wantIDs(t, "visible", rangeIDs(tr, 0), last-DefaultSpanCap+1, last)
}

// TestEmitRetainedHeapPerSpan pins the retained heap of an emitted smp
// span, attributes as the SM stamps them, at 200 bytes.
func TestEmitRetainedHeapPerSpan(t *testing.T) {
	descs := make([]string, 1620)
	for i := range descs {
		descs[i] = fmt.Sprintf("sw%d-%d", i/54, i%54)
	}
	const n = 200_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := NewTracer()
	for i := 0; i < n; i++ {
		d := descs[(i/3)%len(descs)] // a few block runs per switch
		tr.Emit(SpanSMP, d, 0, 3*time.Microsecond,
			"switch", d, "block", i%700, "blocks", 1+i%4, "mode", "lid-routed", "attempts", 1, "shard", -1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.0f B retained per emitted smp span", per)
	if per > 200 {
		t.Fatalf("%.0f B retained per emitted smp span, want <= 200", per)
	}
	runtime.KeepAlive(tr)
}

// TestEmittedAndStartedExportAlike checks the compact form loses nothing:
// a span emitted and the same span started, attributed and ended export
// the same bytes in every format.
func TestEmittedAndStartedExportAlike(t *testing.T) {
	kv := []any{"switch", "sw0-1", "block", 3, "wall", 2 * time.Microsecond, "ok", true,
		"ratio", 0.5, "mode", SpanSMP, "big", int64(1) << 40, "lid", uint16(7), 42, "skipped",
		"block", 4, "empty", ""}
	emitted, started := NewTracer(), NewTracer()
	for i := 0; i < 3; i++ {
		root := emitted.Start(SpanMigration, "vm")
		emitted.PushScope(root)
		emitted.Emit(SpanSMP, "sw0-1", time.Millisecond, 5*time.Microsecond, kv...)
		emitted.Emit(SpanSMP, "", 0, 0)
		emitted.PopScope()
		root.End()

		root = started.Start(SpanMigration, "vm")
		started.PushScope(root)
		sp := started.Start(SpanSMP, "sw0-1")
		sp.SetAttrs(kv...)
		sp.SetModelled(5 * time.Microsecond)
		sp.EndWithWall(time.Millisecond)
		started.Start(SpanSMP, "").EndWithWall(0)
		started.PopScope()
		root.End()
	}
	// Modelled-only exports: the roots' wall times are measured.
	var j1, j2 bytes.Buffer
	if err := emitted.WriteJSON(&j1, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := started.WriteJSON(&j2, Options{}); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatalf("JSON export differs:\n%s\nvs\n%s", j1.String(), j2.String())
	}
	var a, b bytes.Buffer
	if err := emitted.WriteChromeTrace(&a, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := started.WriteChromeTrace(&b, Options{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Chrome export differs")
	}
	if emitted.RenderTree() != started.RenderTree() {
		t.Fatalf("RenderTree differs:\n%s\nvs\n%s", emitted.RenderTree(), started.RenderTree())
	}
	for id := 1; id <= emitted.LastSpanID(); id++ {
		x, _ := emitted.SpanByID(id)
		y, _ := started.SpanByID(id)
		x.Wall, y.Wall = 0, 0
		if fmt.Sprint(x) != fmt.Sprint(y) {
			t.Fatalf("span %d view differs: %+v vs %+v", id, x, y)
		}
	}
	var sws []string
	emitted.Range(0, func(s SpanRef) {
		if sw, ok := s.StrAttr("switch"); ok {
			sws = append(sws, sw)
		}
		if _, ok := s.StrAttr("block"); ok {
			t.Fatal("StrAttr returned a non-string attribute")
		}
	})
	if len(sws) != 3 || sws[0] != "sw0-1" {
		t.Fatalf("StrAttr(switch) over the window = %v", sws)
	}
}

// TestSpanRingConcurrent runs emitters, started spans and window readers
// together under a cap small enough to drop chunks throughout (run with
// -race).
func TestSpanRingConcurrent(t *testing.T) {
	tr := NewTracer()
	tr.SetSpanCap(spanChunkSize + 50)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*spanChunkSize; i++ {
				tr.Emit(SpanSMP, "sw", 0, time.Microsecond, "switch", "sw", "g", g, "i", i)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			sp := tr.Start(SpanMigration, "vm")
			sp.SetAttr("i", i)
			sp.AddModelled(time.Microsecond)
			sp.End()
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := tr.LastSpanID()
				prev := 0
				tr.Range(last-200, func(s SpanRef) {
					if prev != 0 && s.ID() != prev+1 {
						t.Errorf("window not contiguous: %d after %d", s.ID(), prev)
					}
					prev = s.ID()
					_ = s.Kind()
					_ = s.Modelled()
					s.StrAttr("switch") //nolint:errcheck
				})
				for _, sv := range tr.SpansSince(last - 20) {
					if sv.Kind == SpanSMP && sv.Attrs["switch"] != "sw" {
						t.Errorf("span %d lost its attributes: %v", sv.ID, sv.Attrs)
					}
				}
				tr.SpanByID(last)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	var sb bytes.Buffer
	if err := tr.WriteJSON(&sb, Options{IncludeWall: true}); err != nil {
		t.Fatal(err)
	}
	if n := tr.retained(); n > spanChunkSize+50+spanChunkSize {
		t.Fatalf("retained %d spans", n)
	}
}

// TestChromeWallPlacesEmittedSpans checks that a wall-time Chrome export
// puts emitted spans on the timeline where they ran, next to started ones.
func TestChromeWallPlacesEmittedSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(SpanMigration, "vm")
	tr.PushScope(root)
	tr.Emit(SpanSMP, "sw", 2*time.Millisecond, time.Microsecond)
	tr.PopScope()
	root.End()
	tr.Emit(SpanAudit, "reach", time.Millisecond, 0)
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b, Options{IncludeWall: true}); err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeChrome(t, b.Bytes()) {
		if e.Ph == "X" && (e.TS < 0 || e.TS > 1e6) {
			t.Fatalf("%s placed at ts=%v us, want within the second the test ran", e.Name, e.TS)
		}
	}
}
