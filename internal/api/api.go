// Package api is the control-plane daemon around a vSwitch cloud: an HTTP
// surface over the orchestrator + subnet manager pair that cmd/ibsimd
// serves and cmd/ibsimload drives.
//
// The cloud and SM are single-threaded by design (the SM's operations
// mirror OpenSM's serial master thread), so the server runs every mutation
// through one command loop — an actor goroutine that owns the *cloud.Cloud
// exclusively. Handlers enqueue commands onto a bounded admission queue and
// wait for the loop's reply; a full queue is backpressure, reported as HTTP
// 429 with a Retry-After header rather than an unbounded goroutine pile-up.
//
// Reads never touch the cloud. After every mutation the loop publishes an
// immutable Snapshot (copy-on-write: LFT clones are reused across
// generations while their revision counters stand still), and the read
// endpoints — topology, VM listings, path walks — serve from whatever
// snapshot is current. Telemetry endpoints (/metrics, /v1/trace,
// /v1/events) read the registry and tracer directly; both are safe for
// concurrent use.
//
// Every mutation response carries a cost report in the paper's terms: n'
// switches updated, m' SMPs per switch (section VI), host SMPs, and the
// modelled reconfiguration time, cross-referenced to the telemetry span
// tree by root span ID so a client can audit the report against /v1/trace.
package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/shard"
	"ibvsim/internal/sm"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Config parameterises a Server.
type Config struct {
	// QueueDepth bounds the admission queue (commands accepted but not yet
	// executed). 0 means DefaultQueueDepth.
	QueueDepth int
	// RetryAfter is the hint returned with 429 responses. 0 means one second.
	RetryAfter time.Duration
	// AuditInterval is the cadence of full-scope background audits
	// (reachability + hygiene + installed-routing CDG). 0 disables the
	// cadence; the cheap post-mutation audit always runs.
	AuditInterval time.Duration
	// FlightDir, when set, is where the flight recorder writes violation
	// dumps as JSON files (created on first dump). Dumps are always kept
	// in memory and served at /v1/flightrecorder regardless.
	FlightDir string
	// FlightEntries caps the flight recorder's ring. 0 means the
	// recorder's default.
	FlightEntries int
	// Logger receives structured request/mutation/audit logs. nil means
	// discard.
	Logger *slog.Logger
	// Shards selects the sharded control plane: 0 or 1 runs the classic
	// single-actor loop (one shard IS one actor owning the whole fabric —
	// a 1-zone coordinator would add dispatch overhead and change the
	// per-mutation audit scope without buying any isolation, so sharding
	// begins at 2), ShardsAuto partitions one shard per pod (or leaf
	// group on 2-level fabrics), any positive count folds the pods into
	// that many zones. See internal/shard.
	Shards int
}

// ShardsAuto asks Config.Shards for one shard per derived fat-tree zone.
const ShardsAuto = -1

// DefaultQueueDepth is the admission-queue bound when Config leaves it 0.
const DefaultQueueDepth = 64

// Server owns a cloud behind a single-writer command loop and exposes it
// over HTTP. Construct with NewServer; the loop starts immediately. Use
// Handler for the mux and Shutdown to drain and stop.
type Server struct {
	c   *cloud.Cloud
	reg *telemetry.Registry
	tr  *telemetry.Tracer

	mux        *http.ServeMux
	cmds       chan *command
	retryAfter time.Duration

	snap atomic.Pointer[Snapshot]

	// opCtx is cancelled when a Shutdown deadline expires, aborting any
	// in-flight LFT distribution (the context threads down to the sm
	// worker pool) and terminating event streams.
	opCtx    context.Context
	opCancel context.CancelFunc

	mu       sync.RWMutex // guards closed and sends on cmds vs close(cmds)
	closed   bool
	loopDone chan struct{}

	// Observability: auditor + flight recorder (tentpole of the health
	// monitoring layer), structured logger, request-ID allocator.
	aud       *audit.Auditor
	rec       *audit.Recorder
	log       *slog.Logger
	reqSeq    atomic.Int64
	auditStop chan struct{} // nil when no cadence goroutine is running
	auditDone chan struct{}

	// co is the sharded control plane (nil in single-actor mode). When set,
	// the loop never starts: mutations run through the coordinator on their
	// request goroutines, and s.snap caches the lazily composed snapshot.
	co *shard.Coordinator

	// Loop-owned state (never touched by handlers): the generation, the
	// LFT clone cache keys by switch node ID, and the SM the current
	// snapshot was built from (an SM handover swaps c.SM, forcing a
	// rebuild).
	gen     uint64
	lftRevs []lftIdentity
	snapSM  *sm.SubnetManager

	// execGate is a test seam: when non-nil the loop rendezvouses twice
	// around every command (announce, then wait for release), letting tests
	// hold the loop mid-drain to fill the admission queue deterministically.
	// Must be set before the first command is admitted.
	execGate chan struct{}
}

// NewServer wraps a freshly bootstrapped cloud. The server takes exclusive
// ownership: the caller must not call cloud methods directly afterwards.
// With cfg.Shards > 1 (or ShardsAuto) the control plane is sharded (see
// internal/shard);
// an invalid shard setup (e.g. no hypervisors) panics, as it would have
// failed cloud bootstrap anyway.
func NewServer(c *cloud.Cloud, cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	hub := c.SM.Telemetry()
	s := &Server{
		c:          c,
		reg:        hub.Registry(),
		tr:         hub.Tracer(),
		mux:        http.NewServeMux(),
		cmds:       make(chan *command, cfg.QueueDepth),
		retryAfter: cfg.RetryAfter,
		loopDone:   make(chan struct{}),
		log:        cfg.Logger,
	}
	s.rec = audit.NewRecorder(hub.Tracer(), cfg.FlightDir, cfg.FlightEntries)
	s.aud = audit.New(hub, s.rec, audit.Config{})
	s.WireTransitionMonitor()
	s.opCtx, s.opCancel = context.WithCancel(context.Background())
	s.routes()
	if cfg.Shards != 0 && cfg.Shards != 1 {
		if err := s.startSharded(cfg.Shards, cfg.QueueDepth); err != nil {
			panic(fmt.Sprintf("api: sharded control plane: %v", err))
		}
		close(s.loopDone) // no loop in sharded mode
		s.compose()
	} else {
		s.publish(nil)
		go s.loop()
	}
	if cfg.AuditInterval > 0 {
		s.auditStop = make(chan struct{})
		s.auditDone = make(chan struct{})
		go s.auditLoop(cfg.AuditInterval)
	}
	return s
}

// WireTransitionMonitor installs the transient-deadlock monitor (section
// VI-C live) on the cloud's current subnet manager: the SM calls the hook
// on the actor goroutine the moment a distribution starts mixing Rold and
// Rnew, so reading SM state inside it is race free. NewServer wires the
// bootstrap SM; after an SM handover swaps a freshly adopted manager into
// the cloud, the orchestrating code (the scenario harness) must call this
// again — while no mutation is in flight — so the new SM's distributions
// stay monitored.
func (s *Server) WireTransitionMonitor() {
	s.c.SM.OnDistribute = func(old, target map[topology.NodeID]*ib.LFT) {
		dlids := make([]ib.LID, 0, 64)
		for _, tg := range s.c.SM.Targets() {
			dlids = append(dlids, tg.LID)
		}
		rep := s.aud.CheckTransition(s.c.SM.Topo, old, target, s.c.SM.NodeOfLID, dlids)
		if rep.Total > 0 {
			s.log.Warn("transient CDG violation during LFT distribution",
				"violations", rep.Total)
		}
	}
}

// Handler returns the HTTP handler serving the full API surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the current fabric snapshot (never nil).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

func (s *Server) routes() {
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("GET /v1/trace", "trace", s.handleTrace)
	s.handle("GET /v1/topology", "topology", s.handleTopology)
	s.handle("GET /v1/vms", "vms_list", s.handleListVMs)
	s.handle("GET /v1/vms/{name}", "vms_get", s.handleGetVM)
	s.handle("GET /v1/paths/{src}/{dst}", "paths", s.handlePath)
	s.handle("GET /v1/explain", "explain", s.handleExplain)
	s.handle("GET /v1/events", "events", s.handleEvents)
	s.handle("GET /v1/audit", "audit", s.handleAudit)
	s.handle("GET /v1/flightrecorder", "flightrecorder", s.handleFlightRecorder)
	s.handle("POST /v1/vms", "vms_create", s.handleCreateVM)
	s.handle("DELETE /v1/vms/{name}", "vms_destroy", s.handleDestroyVM)
	s.handle("POST /v1/vms/{name}/migrate", "vms_migrate", s.handleMigrateVM)
	s.handle("POST /v1/reconfigure", "reconfigure", s.handleReconfigure)
	s.handle("POST /v1/reconcile", "reconcile", s.handleReconcile)
}

// reqIDKey carries the per-request ID through the request context.
type reqIDKey struct{}

// requestID returns the ID assigned to the request by handle ("" outside
// the handler chain, e.g. in tests constructing bare requests).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// handle registers a pattern with per-endpoint request counting, wall-clock
// latency histograms (api.latency.<op>_us) and request-ID assignment: an
// inbound X-Request-ID is honoured, otherwise one is allocated, and either
// way the ID is echoed on the response and threaded to the mutation log and
// the flight recorder.
func (s *Server) handle(pattern, op string, h http.HandlerFunc) {
	ctr := s.reg.Counter("api.requests." + op)
	hist := s.reg.WallHistogram("api.latency."+op+"_us", nil)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, reqID))
		h(w, r)
		ctr.Inc()
		hist.ObserveDuration(time.Since(start))
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- read endpoints -------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.co != nil {
		vms := 0
		for _, sn := range s.co.Snaps() {
			vms += len(sn.VMs)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":     "ok",
			"generation": s.co.Gen(),
			"queue":      s.co.QueueLen(),
			"vms":        vms,
			"shards":     s.co.Shards(),
		})
		return
	}
	sn := s.snap.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": sn.Gen,
		"queue":      len(s.cmds),
		"vms":        sn.NumVMs(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w) //nolint:errcheck
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	opts := telemetry.Options{IncludeWall: true, IncludeEvents: true}
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		s.tr.WriteJSON(w, opts) //nolint:errcheck
	case "chrome":
		// Trace Event Format: load the body straight into Perfetto.
		w.Header().Set("Content-Type", "application/json")
		s.tr.WriteChromeTrace(w, opts) //nolint:errcheck
	default:
		writeErr(w, http.StatusBadRequest, "unknown trace format %q (want json or chrome)", r.URL.Query().Get("format"))
	}
}

// TopologyResponse describes the fabric being served. Shards and
// ShardStats appear only in sharded mode.
type TopologyResponse struct {
	Fabric      string          `json:"fabric"`
	Switches    int             `json:"switches"`
	CAs         int             `json:"cas"`
	Model       string          `json:"model"`
	SMNode      topology.NodeID `json:"sm_node"`
	Generation  uint64          `json:"generation"`
	Shards      int             `json:"shards,omitempty"`
	ShardStats  []shard.Stats   `json:"shard_stats,omitempty"`
	Hypervisors []HypInfo       `json:"hypervisors"`
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot()
	resp := TopologyResponse{
		Fabric:      sn.Fabric,
		Switches:    len(sn.topo.Switches()),
		CAs:         len(sn.topo.CAs()),
		Model:       sn.Model,
		SMNode:      sn.SMNode,
		Generation:  sn.Gen,
		Hypervisors: sn.Hyps(),
	}
	if s.co != nil {
		resp.Shards = s.co.Shards()
		resp.ShardStats = s.co.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListVMs(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": sn.Gen,
		"vms":        sn.VMs(),
	})
}

func (s *Server) handleGetVM(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot()
	name := r.PathValue("name")
	if vm, ok := sn.VM(name); ok {
		writeJSON(w, http.StatusOK, vm)
		return
	}
	writeErr(w, http.StatusNotFound, "no VM %q", name)
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot()
	resp, err := sn.Path(r.PathValue("src"), r.PathValue("dst"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- mutation endpoints ---------------------------------------------------

// CreateVMRequest is the body of POST /v1/vms. Hypervisor pins placement;
// leaving it out delegates to the cloud's scheduler.
type CreateVMRequest struct {
	Name       string           `json:"name"`
	Hypervisor *topology.NodeID `json:"hypervisor,omitempty"`
}

func (s *Server) handleCreateVM(w http.ResponseWriter, r *http.Request) {
	var req CreateVMRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, "missing VM name")
		return
	}
	if s.co != nil {
		s.shardCreate(w, r, req)
		return
	}
	cmd := &command{kind: opCreateVM, name: req.Name}
	if req.Hypervisor != nil {
		cmd.hyp = *req.Hypervisor
	} else {
		cmd.hyp = topology.NoNode
	}
	s.enqueue(w, r, cmd)
}

func (s *Server) handleDestroyVM(w http.ResponseWriter, r *http.Request) {
	if s.co != nil {
		s.shardDestroy(w, r, r.PathValue("name"))
		return
	}
	s.enqueue(w, r, &command{kind: opDestroyVM, name: r.PathValue("name")})
}

// MigrateVMRequest is the body of POST /v1/vms/{name}/migrate.
type MigrateVMRequest struct {
	Destination topology.NodeID `json:"destination"`
}

func (s *Server) handleMigrateVM(w http.ResponseWriter, r *http.Request) {
	var req MigrateVMRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if s.co != nil {
		s.shardMigrate(w, r, r.PathValue("name"), req.Destination)
		return
	}
	s.enqueue(w, r, &command{kind: opMigrateVM, name: r.PathValue("name"), hyp: req.Destination})
}

func (s *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	if s.co != nil {
		// Full rerouting needs the whole fabric quiesced: freeze every
		// shard, reroute, resync (a reroute does not move VMs, but the
		// composed snapshot must pick up the new tables via a fresh gen).
		s.runFrozen(w, &command{kind: opReconfigure, reqID: requestID(r)}, true)
		return
	}
	s.enqueue(w, r, &command{kind: opReconfigure})
}

// enqueue admits a command to the loop (or rejects with backpressure) and
// relays the loop's reply. The reply channel is buffered so the loop never
// blocks on a handler, even one whose client has disconnected.
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, cmd *command) {
	cmd.reqID = requestID(r)
	cmd.reply = make(chan cmdReply, 1)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	admitted := false
	select {
	case s.cmds <- cmd:
		admitted = true
	default:
	}
	s.mu.RUnlock()
	if !admitted {
		s.reg.Counter("api.admission_rejects").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, "admission queue full (depth %d)", cap(s.cmds))
		return
	}
	s.reg.Gauge("api.queue_depth").Set(int64(len(s.cmds)))
	rep := <-cmd.reply
	writeJSON(w, rep.status, rep.body)
}

// Shutdown stops intake, drains the admission queue, and waits for the
// loop to exit. If ctx expires first, the in-flight operation's context is
// cancelled — aborting any LFT distribution mid-flight — and Shutdown
// still waits for the loop to finish its (now fast-failing) drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.cmds)
		if s.auditStop != nil {
			close(s.auditStop)
		}
	}
	s.mu.Unlock()
	var err error
	select {
	case <-s.loopDone:
	case <-ctx.Done():
		err = ctx.Err()
		s.opCancel()
		<-s.loopDone
	}
	if s.co != nil {
		if e := s.co.Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	if s.auditDone != nil {
		<-s.auditDone
	}
	s.opCancel()
	return err
}
