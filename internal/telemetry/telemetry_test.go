package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Set(3)
	if got := r.Gauge("g").Value(); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
	h := r.Histogram("h", []int64{10, 100})
	h.Observe(5)
	h.Observe(10) // inclusive upper bound
	h.Observe(50)
	h.Observe(1000) // overflow bucket
	if h.Count() != 4 || h.Sum() != 1065 {
		t.Errorf("count/sum = %d/%d, want 4/1065", h.Count(), h.Sum())
	}
	if got := h.counts[0]; got != 2 {
		t.Errorf("bucket[<=10] = %d, want 2", got)
	}
	if got := h.counts[2]; got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	h.ObserveDuration(25 * time.Microsecond)
	if h.Sum() != 1090 {
		t.Errorf("ObserveDuration should record microseconds, sum = %d", h.Sum())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	r.WallHistogram("x", nil).ObserveDuration(time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 || r.Histogram("x", nil).Count() != 0 {
		t.Error("nil registry must swallow writes")
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb, Options{}); err != nil {
		t.Fatal(err)
	}

	var tr *Tracer
	sp := tr.Start(SpanSweep, "x")
	sp.SetAttr("k", 1)
	sp.AddModelled(time.Second)
	sp.SetModelled(time.Second)
	sp.Child(SpanPhase, "y").End()
	sp.EndWithWall(time.Second)
	sp.End()
	tr.PushScope(sp)
	tr.PopScope()
	tr.Eventf("note", "ignored")
	if tr.Events() != nil {
		t.Error("nil tracer must record nothing")
	}
	var h *Hub
	if h.Registry() != nil || h.Tracer() != nil {
		t.Error("nil hub accessors must return nil")
	}
}

func TestRegistryJSONDeterministicAndWallFiltered(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("z.gauge").Set(9)
	r.Histogram("modelled", []int64{10}).Observe(3)
	r.WallHistogram("wall", []int64{10}).Observe(3)

	var one, two strings.Builder
	if err := r.WriteJSON(&one, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&two, Options{}); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("metrics export must be byte-identical across calls")
	}
	if strings.Contains(one.String(), `"wall"`) {
		t.Error("wall-marked histogram leaked into a modelled-only export")
	}
	if !strings.Contains(one.String(), `"modelled"`) {
		t.Error("modelled histogram missing")
	}
	var withWall strings.Builder
	if err := r.WriteJSON(&withWall, Options{IncludeWall: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withWall.String(), `"wall": true`) {
		t.Error("IncludeWall export must keep and mark wall histograms")
	}
	// a.count must sort before b.count.
	if ai, bi := strings.Index(one.String(), "a.count"), strings.Index(one.String(), "b.count"); ai > bi {
		t.Error("counters not sorted by name")
	}
}

func TestTracerSpansAndScope(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(SpanMigration, "vm-a")
	tr.PushScope(root)
	child := tr.Start(SpanLFTSwap, "swap") // parented via scope
	grand := child.Child(SpanSMP, "block 0")
	grand.SetAttr("attempts", 1)
	grand.SetAttr("cost", 5*time.Microsecond)
	grand.SetModelled(5 * time.Microsecond)
	grand.End()
	child.End()
	tr.PopScope()
	sibling := tr.Start(SpanSweep, "")
	sibling.End()
	root.End()

	if root.ID() != 1 || child.ID() != 2 || grand.ID() != 3 {
		t.Errorf("IDs = %d,%d,%d; want sequential 1,2,3", root.ID(), child.ID(), grand.ID())
	}
	if child.parent != root.ID() {
		t.Errorf("scope parenting: child.parent = %d, want %d", child.parent, root.ID())
	}
	if grand.parent != child.ID() {
		t.Errorf("Child parenting: grand.parent = %d, want %d", grand.parent, child.ID())
	}
	if sibling.parent != 0 {
		t.Errorf("span after PopScope must be a root, got parent %d", sibling.parent)
	}

	var sb strings.Builder
	if err := tr.WriteJSON(&sb, Options{}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Spans []struct {
			ID         int            `json:"id"`
			Parent     int            `json:"parent"`
			Kind       string         `json:"kind"`
			Attrs      map[string]any `json:"attrs"`
			ModelledNS int64          `json:"modelled_ns"`
			WallNS     int64          `json:"wall_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(decoded.Spans))
	}
	smp := decoded.Spans[2]
	if smp.Kind != "smp" || smp.ModelledNS != 5000 {
		t.Errorf("smp span = %+v", smp)
	}
	if smp.Attrs["attempts"] != float64(1) || smp.Attrs["cost"] != float64(5000) {
		t.Errorf("attrs must be widened to int64 ns: %v", smp.Attrs)
	}
	if smp.WallNS != 0 {
		t.Error("wall_ns must be absent without IncludeWall")
	}

	tree := tr.RenderTree()
	if !strings.Contains(tree, "migration vm-a") ||
		!strings.Contains(tree, "  lft-swap swap") ||
		!strings.Contains(tree, "    smp block 0 attempts=1") {
		t.Errorf("RenderTree missing structure:\n%s", tree)
	}
}

func TestTracerEventCap(t *testing.T) {
	tr := NewTracer()
	tr.SetEventCap(3)
	for i := 0; i < 10; i++ {
		tr.Eventf("note", "msg %d", i)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	if evs[0].Msg != "msg 7" || evs[2].Msg != "msg 9" {
		t.Errorf("oldest must drop first: %v", evs)
	}
	if evs[2].Seq != 10 {
		t.Errorf("sequence numbers must keep counting, got %d", evs[2].Seq)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(int64(i))
				sp := tr.Start(SpanSMP, "x")
				sp.SetAttr("i", i)
				sp.AddModelled(time.Microsecond)
				sp.End()
				tr.Eventf("note", "g%d i%d", g, i)
			}
		}(g)
	}
	wg.Wait()
	if r.Counter("c").Value() != 1600 {
		t.Errorf("counter = %d, want 1600", r.Counter("c").Value())
	}
	if got := len(tr.SpansSince(0)); got != 1600 {
		t.Errorf("spans = %d, want 1600", got)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, Options{IncludeWall: true, IncludeEvents: true}); err != nil {
		t.Fatal(err)
	}
}
