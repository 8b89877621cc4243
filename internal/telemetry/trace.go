package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpanKind types a trace span after the reconfiguration step it covers.
type SpanKind string

// The reconfiguration span vocabulary. One live migration produces a
// SpanMigration root whose children are the SpanLFTSwap (LFT edit pass,
// with one SpanSMP child per LFT block actually sent — the paper's n' x m')
// and the SpanGUIDMigrate address transfer. Subnet bring-up produces
// SpanSweep, SpanPathCompute (with SpanPhase children for engine phases and
// worker busy time) and SpanLFTDistribute roots.
const (
	SpanSweep         SpanKind = "sweep"
	SpanPathCompute   SpanKind = "path-compute"
	SpanLFTDistribute SpanKind = "lft-distribute"
	SpanGUIDMigrate   SpanKind = "guid-migrate"
	SpanLFTSwap       SpanKind = "lft-swap"
	SpanMigration     SpanKind = "migration"
	SpanSMP           SpanKind = "smp"
	SpanPhase         SpanKind = "phase"
	SpanHandover      SpanKind = "sm-handover"
	SpanAudit         SpanKind = "audit"
	SpanReconcile     SpanKind = "reconcile"
)

// Span is one timed, attributed step of a trace, as returned by Start and
// Child. IDs are sequential per tracer (allocation order), which keeps
// exports deterministic without any wall-clock or random identifier. All
// methods are nil-safe.
type Span struct {
	tr     *Tracer
	id     int
	parent int // 0 = root

	kind SpanKind
	name string

	mu       sync.Mutex
	attrs    []attrKV // in first-set order; a key appears once
	started  time.Time
	wall     time.Duration
	modelled time.Duration
	ended    bool
}

// ID returns the span's sequential identifier (1-based; 0 for nil).
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// attrKV is one attribute of a started span.
type attrKV struct {
	key string
	val any
}

// setLocked records one (already widened) attribute. Called with s.mu held.
func (s *Span) setLocked(key string, value any) {
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = value
			return
		}
	}
	s.attrs = append(s.attrs, attrKV{key, value})
}

// widen applies the attribute type rules: ints become int64, durations
// nanosecond int64s and Stringers their string, so exports are type-stable.
func widen(value any) any {
	switch v := value.(type) {
	case int:
		return int64(v)
	case time.Duration:
		return int64(v)
	case fmt.Stringer:
		return v.String()
	}
	return value
}

// SetAttr records one attribute. Ints are widened to int64 and durations
// become nanosecond int64s so the JSON export is type-stable.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	value = widen(value)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setLocked(key, value)
}

// SetAttrs records attributes from alternating key/value pairs under one
// lock acquisition, with the same type widening as SetAttr.
func (s *Span) SetAttrs(kv ...any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i+1 < len(kv); i += 2 {
		if key, ok := kv[i].(string); ok {
			s.setLocked(key, widen(kv[i+1]))
		}
	}
}

// SetModelled sets the span's modelled duration (cost-model time, exactly
// reproducible run to run).
func (s *Span) SetModelled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.modelled = d
}

// AddModelled accumulates modelled time onto the span.
func (s *Span) AddModelled(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.modelled += d
}

// Child starts a span parented to s. It must still be ended.
func (s *Span) Child(kind SpanKind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(kind, name, s.id)
}

// End stamps the span's wall duration from its start time. Ending twice is
// a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.wall = time.Since(s.started)
}

// EndWithWall ends the span with an externally measured wall duration
// (e.g. a per-phase timing captured by a routing engine).
func (s *Span) EndWithWall(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.wall = d
}

// data copies the span's state for an export or view.
func (s *Span) data() spanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := spanData{
		id: s.id, parent: s.parent, kind: s.kind, name: s.name,
		modelled: s.modelled, wall: s.wall, started: s.started,
	}
	if len(s.attrs) > 0 {
		d.attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			d.attrs[a.key] = a.val
		}
	}
	return d
}

// Event is one free-text entry of the trace's event stream — the backing
// store of sm.EventLog.
type Event struct {
	Seq      int
	At       time.Time
	Category string
	Msg      string
}

// spanChunkSize is how many consecutive span IDs one chunk of the retained
// ring holds. Retention drops whole chunks, so at most one chunk of spans
// is kept beyond the cap.
const spanChunkSize = 4096

// attrType says how an emitted span's attribute value is stored.
type attrType uint8

const (
	attrString attrType = iota // the value indexes spanChunk.strs
	attrInt                    // the value is the int64
	attrBool                   // the value is 0 or 1
	attrFloat                  // the value holds the float64 bits
	attrOther                  // the value indexes spanChunk.others
)

// spanShape is what emitted spans of one kind with the same attribute keys
// and value types share. The tracer stores each shape once, so an emitted
// span keeps only its values, eight bytes each.
type spanShape struct {
	kind  SpanKind
	keys  []string
	types []attrType
}

func (sh *spanShape) is(kind SpanKind, keys []string, types []attrType) bool {
	return sh.kind == kind && slices.Equal(sh.keys, keys) && slices.Equal(sh.types, types)
}

// startedShape marks the record of a started span: off indexes live.
const startedShape = ^uint32(0)

// spanRec is one retained span. An emitted span lives here whole (48
// bytes, its attribute values in the chunk's arena); a started span is a
// live *Span and the record only points at it.
type spanRec struct {
	parent   int
	modelled time.Duration
	wall     time.Duration
	start    int64  // wall-clock start, Unix ns (for wall-time exports)
	name     uint32 // index into strs
	off      uint32 // first attribute value in vals, or the index into live
	shape    uint32 // index into the tracer's shapes, or startedShape
}

// spanChunk holds spanChunkSize consecutive span IDs starting at base. It
// is append-only: readers copy the struct under the tracer's lock and then
// read the prefix it describes without the lock, while the writer only
// appends past it (or, sealing a full chunk, swaps in trimmed copies).
type spanChunk struct {
	base   int
	recs   []spanRec // capacity spanChunkSize, never reallocated
	vals   []int64
	strs   []string
	others []any
	live   []*Span
}

// str stores a string value, reusing either of the last two entries when
// equal: an smp span's name and "switch" attr are the same string, and
// its "mode" repeats the previous span's.
func (c *spanChunk) str(s string) uint32 {
	for i := len(c.strs) - 1; i >= 0 && i >= len(c.strs)-2; i-- {
		if c.strs[i] == s {
			return uint32(i)
		}
	}
	c.strs = append(c.strs, s)
	return uint32(len(c.strs) - 1)
}

// seal trims a full chunk's arenas to their length, so append's growth
// slack is not retained for the chunk's lifetime.
func (c *spanChunk) seal() {
	c.vals = slices.Clone(c.vals)
	c.strs = slices.Clone(c.strs)
	c.others = slices.Clone(c.others)
	c.live = slices.Clone(c.live)
}

// value decodes one attribute value.
func (c *spanChunk) value(typ attrType, v int64) any {
	switch typ {
	case attrString:
		return c.strs[v]
	case attrInt:
		return v
	case attrBool:
		return v != 0
	case attrFloat:
		return math.Float64frombits(uint64(v))
	default:
		return c.others[v]
	}
}

// Tracer collects spans and events. All methods are safe for concurrent
// use and nil-safe, so a component without a tracer simply records nothing.
//
// Retained spans form a ring of chunks indexed by span ID: IDs are
// contiguous, so reading the window an operation produced is index
// arithmetic. Spans from Emit are stored by value in compact form; spans
// from Start stay *Span (they are mutated until End).
type Tracer struct {
	mu       sync.Mutex
	chunks   []*spanChunk // oldest first
	head     int          // oldest span ID still visible
	shapes   []spanShape  // append-only
	shapeIdx map[string]uint32
	recent   [4]uint32 // most recently used shapes, newest first
	events   []Event   // ring of at most eventCap entries, oldest at evStart
	evStart  int
	eventCap int
	spanCap  int
	nextSeq  int
	nextID   int
	scope    []int // span-ID stack; Start parents new spans to the top
}

// DefaultEventCap bounds the event stream when no cap is set explicitly.
const DefaultEventCap = 65536

// DefaultSpanCap bounds the retained span list when no cap is set
// explicitly. Span IDs keep growing past the cap; only retention is
// bounded, oldest first — the same sliding-window model as the event
// stream. The default is sized so one fabric-wide operation on an O(10^4)
// node fabric (a migration emits one smp span per touched switch block
// run) always fits, while a long-running daemon cannot grow without bound.
const DefaultSpanCap = 1 << 19

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{eventCap: DefaultEventCap, spanCap: DefaultSpanCap}
}

// SetSpanCap bounds the retained span list: the newest n spans stay
// visible (oldest dropped first), and memory is freed a chunk at a time.
// Values below 1 clamp to 1. Consumers that bracket an operation with
// LastSpanID + SpansSince are unaffected as long as the window they read
// back fits the cap.
func (t *Tracer) SetSpanCap(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spanCap = n
	t.trim()
}

// SetEventCap bounds the retained event stream (oldest dropped first).
// Values below 1 clamp to 1.
func (t *Tracer) SetEventCap(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eventCap = n
	evs := t.eventsLocked(0)
	t.events = append([]Event(nil), evs[max(0, len(evs)-n):]...)
	t.evStart = 0
}

// shape returns the index of the shape (kind, keys, types), storing it on
// first use. A hot emitter repeats one of a few shapes, so the most
// recently used ones are checked before the map. Called with t.mu held;
// keys and types are copied, not retained.
func (t *Tracer) shape(kind SpanKind, keys []string, types []attrType) uint32 {
	for j, i := range t.recent {
		if int(i) < len(t.shapes) && t.shapes[i].is(kind, keys, types) {
			copy(t.recent[1:j+1], t.recent[:j])
			t.recent[0] = i
			return i
		}
	}
	var sb strings.Builder
	sb.WriteString(string(kind))
	for j, k := range keys {
		sb.WriteByte(0)
		sb.WriteByte(byte(types[j]))
		sb.WriteString(k)
	}
	id := sb.String()
	i, ok := t.shapeIdx[id]
	if !ok {
		if t.shapeIdx == nil {
			t.shapeIdx = map[string]uint32{}
		}
		i = uint32(len(t.shapes))
		t.shapes = append(t.shapes, spanShape{kind: kind, keys: slices.Clone(keys), types: slices.Clone(types)})
		t.shapeIdx[id] = i
	}
	copy(t.recent[1:], t.recent[:len(t.recent)-1])
	t.recent[0] = i
	return i
}

// alloc hands out the next span ID and the chunk its record goes into.
// Called with t.mu held; the caller appends exactly one record and then
// calls trim.
func (t *Tracer) alloc() (int, *spanChunk) {
	t.nextID++
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1].recs) == spanChunkSize {
		if n > 0 {
			t.chunks[n-1].seal()
		}
		t.chunks = append(t.chunks, &spanChunk{base: t.nextID, recs: make([]spanRec, 0, spanChunkSize)})
	}
	return t.nextID, t.chunks[len(t.chunks)-1]
}

// trim advances the visible head to keep the newest spanCap spans and
// drops the chunks wholly before it. Called with t.mu held.
func (t *Tracer) trim() {
	if t.spanCap <= 0 {
		return
	}
	if h := t.nextID - t.spanCap + 1; h > t.head {
		t.head = h
	}
	drop := 0
	for drop < len(t.chunks)-1 && t.chunks[drop].base+spanChunkSize <= t.head {
		drop++
	}
	if drop > 0 {
		n := copy(t.chunks, t.chunks[drop:])
		clear(t.chunks[n:])
		t.chunks = t.chunks[:n]
	}
}

// retained is the number of span records held in memory, visible or not.
func (t *Tracer) retained() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, c := range t.chunks {
		n += len(c.recs)
	}
	return n
}

// Start begins a span. If a scope is pushed (PushScope), the new span is
// parented to it; otherwise it is a root.
func (t *Tracer) Start(kind SpanKind, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := 0
	if len(t.scope) > 0 {
		parent = t.scope[len(t.scope)-1]
	}
	t.mu.Unlock()
	return t.start(kind, name, parent)
}

func (t *Tracer) start(kind SpanKind, name string, parent int) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, kind: kind, name: name, parent: parent, started: time.Now()}
	t.mu.Lock()
	id, c := t.alloc()
	sp.id = id
	c.recs = append(c.recs, spanRec{parent: parent, off: uint32(len(c.live)), shape: startedShape})
	c.live = append(c.live, sp)
	t.trim()
	t.mu.Unlock()
	return sp
}

// Emit appends one already-finished span in a single lock acquisition:
// the span is created fully formed (attributes, modelled cost, wall
// duration), so hot paths that emit tens of thousands of leaf spans per
// operation — the SM's one-smp-span-per-block-run — skip the lock churn
// of Start/SetAttrs/SetModelled/End. The kv pairs follow the SetAttrs
// contract; the span parents to the current scope exactly as Start does.
// The span is stored in compact form, with no per-span allocation beyond
// the chunk arenas; its start is taken as now minus wall. Returns the
// allocated span ID.
func (t *Tracer) Emit(kind SpanKind, name string, wall, modelled time.Duration, kv ...any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, c := t.alloc()
	r := spanRec{
		modelled: modelled, wall: wall, start: time.Now().Add(-wall).UnixNano(),
		name: c.str(name), off: uint32(len(c.vals)),
	}
	if len(t.scope) > 0 {
		r.parent = t.scope[len(t.scope)-1]
	}
	var keyBuf [8]string
	var typeBuf [8]attrType
	keys, types := keyBuf[:0], typeBuf[:0]
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			continue
		}
		var typ attrType
		var val int64
		// The cases mirror widen without boxing the widened value.
		switch v := kv[i+1].(type) {
		case string:
			typ, val = attrString, int64(c.str(v))
		case int:
			typ, val = attrInt, int64(v)
		case int64:
			typ, val = attrInt, v
		case time.Duration:
			typ, val = attrInt, int64(v)
		case bool:
			typ = attrBool
			if v {
				val = 1
			}
		case float64:
			typ, val = attrFloat, int64(math.Float64bits(v))
		case fmt.Stringer:
			typ, val = attrString, int64(c.str(v.String()))
		default:
			typ, val = attrOther, int64(len(c.others))
			c.others = append(c.others, v)
		}
		keys, types = append(keys, key), append(types, typ)
		c.vals = append(c.vals, val)
	}
	r.shape = t.shape(kind, keys, types)
	c.recs = append(c.recs, r)
	t.trim()
	return id
}

// PushScope makes sp the implicit parent of spans started until the
// matching PopScope. Scopes are only pushed on serial control paths (the
// SM's operations are single-threaded); worker goroutines never push.
func (t *Tracer) PushScope(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scope = append(t.scope, sp.id)
}

// PopScope removes the innermost scope.
func (t *Tracer) PopScope() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.scope) > 0 {
		t.scope = t.scope[:len(t.scope)-1]
	}
}

// Eventf appends a formatted entry to the event stream.
func (t *Tracer) Eventf(category, format string, args ...interface{}) {
	if t == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSeq++
	e := Event{Seq: t.nextSeq, At: time.Now(), Category: category, Msg: msg}
	if len(t.events) < t.eventCap {
		t.events = append(t.events, e)
		return
	}
	// Full: overwrite the oldest in place, so a busy daemon pays O(1) per
	// event rather than re-copying the whole stream.
	t.events[t.evStart] = e
	t.evStart = (t.evStart + 1) % len(t.events)
}

// Events returns a copy of the retained event stream, oldest first.
func (t *Tracer) Events() []Event {
	return t.EventsSince(0)
}

// EventsSince returns a copy of the retained events with Seq > afterSeq,
// oldest first. Streaming consumers (the daemon's SSE endpoint) tail the
// stream by passing the last sequence number they delivered, so each poll
// copies only the new suffix rather than the whole ring.
func (t *Tracer) EventsSince(afterSeq int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked(afterSeq)
}

// eventsLocked copies the retained events with Seq > afterSeq. Retained
// sequence numbers are contiguous, so the suffix is found by arithmetic.
// Called with t.mu held.
func (t *Tracer) eventsLocked(afterSeq int) []Event {
	n := len(t.events)
	if n == 0 {
		return nil
	}
	skip := max(0, afterSeq-t.events[t.evStart].Seq+1)
	if skip >= n {
		return nil
	}
	out := make([]Event, 0, n-skip)
	for i := skip; i < n; i++ {
		out = append(out, t.events[(t.evStart+i)%n])
	}
	return out
}

// window is a consistent read of the visible span IDs [from, to]: value
// copies of the chunks covering them, taken under the tracer's lock and
// read after it is released.
type window struct {
	chunks   []spanChunk
	shapes   []spanShape
	from, to int
}

// window captures the visible spans with from <= ID <= to, copying only
// the chunks that cover them.
func (t *Tracer) window(from, to int) *window {
	w := &window{from: 1, to: 0} // empty
	if t == nil {
		return w
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w.shapes = t.shapes
	if len(t.chunks) == 0 {
		return w
	}
	first := t.chunks[0].base
	w.from = max(from, t.head, first)
	w.to = min(to, t.nextID)
	if w.from > w.to {
		w.from, w.to = 1, 0
		return w
	}
	lo, hi := (w.from-first)/spanChunkSize, (w.to-first)/spanChunkSize
	w.chunks = make([]spanChunk, 0, hi-lo+1)
	for _, c := range t.chunks[lo : hi+1] {
		w.chunks = append(w.chunks, *c)
	}
	return w
}

// rec locates one span of the window.
func (w *window) rec(id int) (*spanChunk, *spanRec) {
	c := &w.chunks[(id-w.chunks[0].base)/spanChunkSize]
	return c, &c.recs[id-c.base]
}

// data copies one span of the window, attributes as a fresh map.
func (w *window) data(id int) spanData {
	c, r := w.rec(id)
	if r.shape == startedShape {
		return c.live[r.off].data()
	}
	sh := &w.shapes[r.shape]
	d := spanData{
		id: id, parent: r.parent, kind: sh.kind, name: c.strs[r.name],
		modelled: r.modelled, wall: r.wall, started: time.Unix(0, r.start),
	}
	if len(sh.keys) > 0 {
		d.attrs = make(map[string]any, len(sh.keys))
		for i, k := range sh.keys {
			d.attrs[k] = c.value(sh.types[i], c.vals[int(r.off)+i])
		}
	}
	return d
}

// all copies every span of the window in ID order.
func (w *window) all() []spanData {
	if w.from > w.to {
		return nil
	}
	out := make([]spanData, 0, w.to-w.from+1)
	for id := w.from; id <= w.to; id++ {
		out = append(out, w.data(id))
	}
	return out
}

// spanData is one span's state copied out for an export or a view.
type spanData struct {
	id, parent int
	kind       SpanKind
	name       string
	attrs      map[string]any
	modelled   time.Duration
	wall       time.Duration
	started    time.Time
}

func (d spanData) view() SpanView {
	return SpanView{
		ID: d.id, Parent: d.parent, Kind: d.kind, Name: d.name,
		Attrs: d.attrs, Modelled: d.modelled, Wall: d.wall,
	}
}

// SpanView is a read-only copy of one span's state, for programmatic
// consumers (flight-recorder dumps, /v1/explain). Attrs is a fresh map.
type SpanView struct {
	ID       int
	Parent   int
	Kind     SpanKind
	Name     string
	Attrs    map[string]any
	Modelled time.Duration
	Wall     time.Duration
}

// LastSpanID returns the highest span ID allocated so far (0 when none).
// Combined with SpansSince or Range it brackets the spans one operation
// emitted: IDs are handed out in allocation order under the tracer's lock.
func (t *Tracer) LastSpanID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// SpansSince returns copies of every retained span with ID > afterID, in
// ID order. Pass 0 for all spans. The cost is that of the window, not of
// the retained trace.
func (t *Tracer) SpansSince(afterID int) []SpanView {
	var out []SpanView
	for _, d := range t.window(afterID+1, math.MaxInt).all() {
		out = append(out, d.view())
	}
	return out
}

// SpanByID returns a copy of one retained span.
func (t *Tracer) SpanByID(id int) (SpanView, bool) {
	w := t.window(id, id)
	if w.from > w.to || w.from != id {
		return SpanView{}, false
	}
	return w.data(id).view(), true
}

// SpanRef is a map-free handle to one span of a Range read. It is valid
// only inside the callback.
type SpanRef struct {
	w  *window
	c  *spanChunk
	r  *spanRec
	id int
}

// ID returns the span's identifier.
func (s SpanRef) ID() int { return s.id }

// Kind returns the span's kind.
func (s SpanRef) Kind() SpanKind {
	if s.r.shape == startedShape {
		return s.c.live[s.r.off].kind
	}
	return s.w.shapes[s.r.shape].kind
}

// Modelled returns the span's modelled duration.
func (s SpanRef) Modelled() time.Duration {
	if s.r.shape == startedShape {
		sp := s.c.live[s.r.off]
		sp.mu.Lock()
		defer sp.mu.Unlock()
		return sp.modelled
	}
	return s.r.modelled
}

// StrAttr returns a string-valued attribute of the span. A repeated key
// reads its last value, as in the exported attribute map.
func (s SpanRef) StrAttr(key string) (string, bool) {
	var str string
	found := false
	if s.r.shape == startedShape {
		sp := s.c.live[s.r.off]
		sp.mu.Lock()
		defer sp.mu.Unlock()
		for _, a := range sp.attrs {
			if a.key == key {
				str, found = a.val.(string)
			}
		}
		return str, found
	}
	sh := &s.w.shapes[s.r.shape]
	for i, k := range sh.keys {
		if k == key {
			str, found = "", sh.types[i] == attrString
			if found {
				str = s.c.strs[s.c.vals[int(s.r.off)+i]]
			}
		}
	}
	return str, found
}

// Range calls fn for every retained span with ID > afterID, in ID order,
// without copying attributes: the cheap way to summarise the window one
// operation produced.
func (t *Tracer) Range(afterID int, fn func(SpanRef)) {
	w := t.window(afterID+1, math.MaxInt)
	for id := w.from; id <= w.to; id++ {
		c, r := w.rec(id)
		fn(SpanRef{w: w, c: c, r: r, id: id})
	}
}

// spanJSON fixes the trace export schema and its field order.
type spanJSON struct {
	ID         int            `json:"id"`
	Parent     int            `json:"parent,omitempty"`
	Kind       string         `json:"kind"`
	Name       string         `json:"name,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	ModelledNS int64          `json:"modelled_ns"`
	WallNS     int64          `json:"wall_ns,omitempty"`
}

type eventJSON struct {
	Seq      int    `json:"seq"`
	Category string `json:"category"`
	Msg      string `json:"msg"`
}

type traceJSON struct {
	Spans  []spanJSON  `json:"spans"`
	Events []eventJSON `json:"events,omitempty"`
}

// WriteJSON exports the trace deterministically: spans in ID order, attrs
// with sorted keys (encoding/json map behaviour), modelled durations in
// nanoseconds. Wall durations appear only with opts.IncludeWall, and the
// event stream only with opts.IncludeEvents.
func (t *Tracer) WriteJSON(w io.Writer, opts Options) error {
	out := traceJSON{Spans: []spanJSON{}}
	for _, d := range t.window(1, math.MaxInt).all() {
		sj := spanJSON{
			ID:         d.id,
			Parent:     d.parent,
			Kind:       string(d.kind),
			Name:       d.name,
			Attrs:      d.attrs,
			ModelledNS: int64(d.modelled),
		}
		if opts.IncludeWall {
			sj.WallNS = int64(d.wall)
		}
		out.Spans = append(out.Spans, sj)
	}
	if opts.IncludeEvents {
		for _, e := range t.Events() {
			out.Events = append(out.Events, eventJSON{Seq: e.Seq, Category: e.Category, Msg: e.Msg})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RenderTree formats the span forest as an indented human summary: kind,
// name, sorted attributes and the modelled duration of every span.
func (t *Tracer) RenderTree() string {
	spans := t.window(1, math.MaxInt).all()
	children := map[int][]int{} // parent ID -> indices into spans
	for i, d := range spans {
		children[d.parent] = append(children[d.parent], i)
	}
	var sb strings.Builder
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, i := range children[parent] {
			d := spans[i]
			fmt.Fprintf(&sb, "%s%s", strings.Repeat("  ", depth), d.kind)
			if d.name != "" {
				fmt.Fprintf(&sb, " %s", d.name)
			}
			keys := make([]string, 0, len(d.attrs))
			for k := range d.attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%v", k, d.attrs[k])
			}
			if d.modelled > 0 {
				fmt.Fprintf(&sb, " [modelled %v]", d.modelled)
			}
			sb.WriteByte('\n')
			walk(d.id, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}
