// Package sm implements the subnet manager: the OpenSM analogue that
// discovers the fabric with directed-route SMPs, assigns LIDs, runs a
// routing engine, and distributes linear forwarding tables to the switches
// in 64-LID blocks (one SMP per block).
//
// The manager keeps two views per switch: the target LFT computed by the
// routing engine and the programmed LFT it believes the physical switch
// holds. Distribution sends exactly the SMPs needed to reconcile them,
// which is how both the traditional full reconfiguration of section VI-A
// and the paper's minimal vSwitch reconfiguration (implemented on top of
// this package by internal/core) are accounted.
package sm

import (
	"fmt"
	"sync"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// lftStripes is the size of the per-switch lock stripe set guarding
// SetLFTEntries. Sharded control planes update different switches (and
// different LID columns of the same switch) from concurrent actors; a
// stripe serializes the clone→send→commit read-modify-write per switch.
const lftStripes = 256

// SubnetManager manages one IB subnet.
type SubnetManager struct {
	Topo      *topology.Topology
	SMNode    topology.NodeID // the CA hosting the SM
	Transport *smp.Transport
	Engine    routing.Engine
	Cost      smp.CostModel
	// Dist configures the concurrent LFT distribution engine (worker count
	// and retry policy).
	Dist DistributionConfig
	// RouteWorkers bounds the routing engines' path-computation worker
	// pool; 0 means one worker per CPU (GOMAXPROCS). Results are
	// bit-identical for every value.
	RouteWorkers int
	// IncrementalRouting routes ComputeRoutes through a dependency-tracked
	// delta-recompute wrapper: after a topology change only the destination
	// trees the change can affect are re-run, and the merged tables are
	// byte-identical to a from-scratch run (engines that cannot support
	// deltas fall back to a full recompute, honestly reported in the stats).
	IncrementalRouting bool
	// LMC is the LID Mask Control value applied to CAs at AssignLIDs time:
	// each CA receives 2^LMC consecutive, aligned LIDs, every one routed
	// independently (the multipathing the prepopulated vSwitch model
	// imitates without the contiguity constraint, section V-A).
	LMC uint8
	// OnDistribute, when set, is called synchronously at the moment a
	// non-trivial LFT distribution fans out — after planning, before the
	// first SMP — with the live programmed (Rold) and target (Rnew) table
	// maps. The fabric is about to hold a mixture of both routing
	// functions, which is exactly when the section VI-C transient-CDG
	// monitor must look. The callback runs on the distributing goroutine
	// and must only read the maps.
	OnDistribute func(programmed, target map[topology.NodeID]*ib.LFT)

	pool    *ib.LIDPool
	lidOf   map[topology.NodeID]ib.LID
	nodeOf  map[ib.LID]topology.NodeID
	extra   map[ib.LID]topology.NodeID // additional (e.g. VF) LIDs per node
	dirPath map[topology.NodeID][]ib.PortNum

	// addrMu guards the LID state that concurrent shard actors mutate
	// after bootstrap: the allocation pool and the extra (VF) LID
	// bindings. The base maps (lidOf, nodeOf, dirPath) are static once
	// AssignLIDs/Sweep complete and are read without it; sweeps and full
	// reconfigurations only run with the control plane quiesced.
	addrMu sync.Mutex
	// addrDirty lists, once each, the LIDs whose owner changed since the
	// last DrainAddressChanges (addrSeen dedupes): every write to nodeOf,
	// lidOf or extra marks its LID. Guarded by addrMu.
	addrDirty []ib.LID
	addrSeen  []uint64
	// lftMu stripes per-switch locks over SetLFTEntries so concurrent
	// actors updating different LID columns of one switch serialize their
	// clone→send→commit cycles instead of losing each other's entries.
	lftMu [lftStripes]sync.Mutex

	target map[topology.NodeID]*ib.LFT
	// programmed double-buffers the per-switch view of what the physical
	// switch holds: readers (the SMP router, the auditor, the API snapshot
	// layer) always see a complete table through the buffer's atomic active
	// pointer, and a distribution publishes its outcome with one pointer
	// swap per switch — never an in-place, half-merged mutation.
	programmed map[topology.NodeID]*ib.LFTBuffer
	reachable  map[topology.NodeID]bool
	portState  map[topology.NodeID][]bool // Up per port, as of the last (light) sweep

	swept  bool
	routed bool
	state  SMState

	// inc is the cached incremental wrapper around Engine; it is recreated
	// whenever Engine is swapped and dropped when IncrementalRouting is off,
	// so its dependency index always matches the engine it fronts.
	inc *routing.Incremental

	// sender, when set, replaces the raw transport for LFT distribution
	// SMPs (the path that owns a retry policy). Discovery, LID assignment
	// and vGUID programming keep perfect delivery: they have no retry loop.
	sender smp.Sender

	tel *telemetry.Hub
	log *EventLog
}

// New creates a subnet manager hosted on the given CA node, using the given
// routing engine. The default cost model applies; replace Cost to change k,
// r or the pipeline depth.
func New(topo *topology.Topology, smNode topology.NodeID, engine routing.Engine) (*SubnetManager, error) {
	n := topo.Node(smNode)
	if n == nil {
		return nil, fmt.Errorf("sm: SM node %d does not exist", smNode)
	}
	if n.IsSwitch() {
		return nil, fmt.Errorf("sm: the SM must run on a CA (OpenSM style), got switch %q", n.Desc)
	}
	hub := telemetry.NewHub()
	mgr := &SubnetManager{
		Topo:       topo,
		SMNode:     smNode,
		Transport:  smp.NewTransport(topo),
		Engine:     engine,
		Cost:       smp.DefaultCostModel(),
		Dist:       DefaultDistributionConfig(),
		pool:       ib.NewLIDPool(),
		lidOf:      map[topology.NodeID]ib.LID{},
		nodeOf:     map[ib.LID]topology.NodeID{},
		extra:      map[ib.LID]topology.NodeID{},
		dirPath:    map[topology.NodeID][]ib.PortNum{},
		target:     map[topology.NodeID]*ib.LFT{},
		programmed: map[topology.NodeID]*ib.LFTBuffer{},
		reachable:  map[topology.NodeID]bool{},
		portState:  map[topology.NodeID][]bool{},
		tel:        hub,
		log:        newEventLogOver(hub.Trace, 4096),
	}
	mgr.Transport.Counters.AttachRegistry(hub.Metrics)
	return mgr, nil
}

// Log exposes the event log.
func (s *SubnetManager) Log() *EventLog { return s.log }

// Telemetry exposes the SM's telemetry hub (metrics registry + trace). It
// is never nil: every SM starts with a private hub.
func (s *SubnetManager) Telemetry() *telemetry.Hub { return s.tel }

// SetTelemetry replaces the SM's telemetry hub, re-pointing the SMP
// counters and the event-log view at it. The orchestration layer uses this
// to share one hub (and so one trace/metrics export) across a whole run.
func (s *SubnetManager) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		h = telemetry.NewHub()
	}
	s.tel = h
	s.log = newEventLogOver(h.Trace, 4096)
	s.Transport.Counters.AttachRegistry(h.Metrics)
}

// InjectFaults routes LFT distribution SMPs through a fault-injecting
// transport with the given drop/delay/duplicate probabilities, returning it
// so callers can read its verdict stats. The distribution engine's retry
// policy (Dist.Retry) decides how many losses a block survives.
func (s *SubnetManager) InjectFaults(cfg smp.FaultConfig) *smp.FaultyTransport {
	ft := smp.NewFaultyTransport(s.Transport, cfg)
	s.sender = ft
	return ft
}

// ClearFaults restores perfect delivery for LFT distribution SMPs.
func (s *SubnetManager) ClearFaults() { s.sender = nil }

// lftSender returns the transport LFT distribution SMPs travel through.
func (s *SubnetManager) lftSender() smp.Sender {
	if s.sender != nil {
		return s.sender
	}
	return s.Transport
}

// SweepStats reports the cost of a discovery sweep.
type SweepStats struct {
	Nodes, Switches, CAs int
	SMPs                 int
	Duration             time.Duration
}

// Sweep performs directed-route topology discovery from the SM node,
// recording a directed path to every node and counting the SMPs a real
// OpenSM would send (NodeInfo per port probe, NodeDescription and
// SwitchInfo per node, PortInfo per connected port). Sweep demands full
// coverage (initial bring-up of a healthy fabric); after link failures use
// Resweep, which tolerates unreachable nodes.
func (s *SubnetManager) Sweep() (SweepStats, error) {
	st, err := s.sweep()
	if err != nil {
		return st, err
	}
	if st.Nodes != s.Topo.NumNodes() {
		return st, fmt.Errorf("sm: sweep found %d of %d nodes (disconnected fabric?)", st.Nodes, s.Topo.NumNodes())
	}
	return st, nil
}

// Resweep rediscovers the fabric after a topology change. Nodes that have
// become unreachable keep their LIDs (they may return) but stop being
// routing targets and are skipped by LFT distribution until a later
// Resweep finds them again.
func (s *SubnetManager) Resweep() (SweepStats, error) {
	st, err := s.sweep()
	if err != nil {
		return st, err
	}
	missing := s.Topo.NumNodes() - st.Nodes
	s.log.Addf(EvSweep, "resweep: %d nodes reachable, %d unreachable", st.Nodes, missing)
	return st, nil
}

// Reachable reports whether the most recent sweep could reach the node.
func (s *SubnetManager) Reachable(n topology.NodeID) bool { return s.reachable[n] }

func (s *SubnetManager) sweep() (SweepStats, error) {
	start := time.Now()
	before := s.Transport.Counters.Sent
	var st SweepStats
	span := s.tel.Tracer().Start(telemetry.SpanSweep, "full")
	defer func() {
		span.SetAttr("nodes", st.Nodes)
		span.SetAttr("switches", st.Switches)
		span.SetAttr("cas", st.CAs)
		span.SetAttr("smps", st.SMPs)
		span.End()
	}()
	s.tel.Registry().Counter("sm.sweeps").Inc()

	type qe struct {
		node topology.NodeID
		path []ib.PortNum
	}
	seen := map[topology.NodeID]bool{s.SMNode: true}
	s.dirPath = map[topology.NodeID][]ib.PortNum{s.SMNode: nil}
	queue := []qe{{node: s.SMNode, path: nil}}

	probe := func(path []ib.PortNum, attr smp.Attr, set bool) (topology.NodeID, error) {
		p := &smp.SMP{Attr: attr, IsSet: set, Path: append([]ib.PortNum(nil), path...)}
		return s.Transport.SendDirected(s.SMNode, p)
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := s.Topo.Node(cur.node)
		st.Nodes++
		if n.IsSwitch() {
			st.Switches++
		} else {
			st.CAs++
		}
		// NodeDescription for the node itself; SwitchInfo for switches.
		if _, err := probe(cur.path, smp.AttrNodeDesc, false); err != nil {
			return st, fmt.Errorf("sm: sweep NodeDesc at %q: %w", n.Desc, err)
		}
		if n.IsSwitch() {
			if _, err := probe(cur.path, smp.AttrSwitchInfo, false); err != nil {
				return st, err
			}
		}
		for pi := 1; pi < len(n.Ports); pi++ {
			pt := n.Ports[pi]
			if pt.Peer == topology.NoNode || !pt.Up {
				continue
			}
			// PortInfo for every connected port of the node.
			if _, err := probe(cur.path, smp.AttrPortInfo, false); err != nil {
				return st, err
			}
			// NodeInfo probe through the port to identify the neighbour.
			npath := append(append([]ib.PortNum(nil), cur.path...), ib.PortNum(pi))
			peer, err := probe(npath, smp.AttrNodeInfo, false)
			if err != nil {
				return st, fmt.Errorf("sm: sweep NodeInfo via %q port %d: %w", n.Desc, pi, err)
			}
			if !seen[peer] {
				seen[peer] = true
				s.dirPath[peer] = npath
				queue = append(queue, qe{node: peer, path: npath})
			}
		}
	}
	st.SMPs = s.Transport.Counters.Sent - before
	st.Duration = time.Since(start)
	s.swept = true
	s.reachable = seen
	s.snapshotPortState()
	s.log.Addf(EvSweep, "sweep: %d nodes (%d switches, %d CAs), %d SMPs",
		st.Nodes, st.Switches, st.CAs, st.SMPs)
	return st, nil
}

// AssignLIDs gives every CA and then every switch LIDs in
// discovery-independent (node ID) order, sending one PortInfo Set per node.
// CAs receive 2^LMC aligned consecutive LIDs each; switches always get a
// single LID (the IBA forbids LMC on switch port 0 in this configuration).
// It must follow Sweep.
func (s *SubnetManager) AssignLIDs() error {
	if !s.swept {
		return fmt.Errorf("sm: AssignLIDs before Sweep")
	}
	assign := func(id topology.NodeID, lmc uint8) error {
		if _, ok := s.lidOf[id]; ok {
			return nil
		}
		base, err := s.pool.AllocAligned(lmc)
		if err != nil {
			return err
		}
		s.lidOf[id] = base
		s.addrMu.Lock()
		for l := base; l < base+(ib.LID(1)<<lmc); l++ {
			s.nodeOf[l] = id
			s.markAddrLocked(l)
		}
		s.addrMu.Unlock()
		p := &smp.SMP{Attr: smp.AttrPortInfo, IsSet: true, Path: append([]ib.PortNum(nil), s.dirPath[id]...)}
		if _, err := s.Transport.SendDirected(s.SMNode, p); err != nil {
			return err
		}
		return nil
	}
	for _, ca := range s.Topo.CAs() {
		if err := assign(ca, s.LMC); err != nil {
			return err
		}
	}
	for _, sw := range s.Topo.Switches() {
		if err := assign(sw, 0); err != nil {
			return err
		}
	}
	s.tel.Registry().Gauge("sm.lids_assigned").Set(int64(s.pool.Count()))
	s.log.Addf(EvLIDs, "assigned %d LIDs (top %d, LMC %d)", s.pool.Count(), s.pool.TopUsed(), s.LMC)
	return nil
}

// LIDOf returns the base LID of a node (0 if unassigned).
func (s *SubnetManager) LIDOf(n topology.NodeID) ib.LID { return s.lidOf[n] }

// NodeOfLID resolves any LID — base or extra — to its owning node.
func (s *SubnetManager) NodeOfLID(l ib.LID) topology.NodeID {
	if n, ok := s.nodeOf[l]; ok {
		return n
	}
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	if n, ok := s.extra[l]; ok {
		return n
	}
	return topology.NoNode
}

// ResolveLIDs resolves a small set of LIDs to their owning nodes in one
// lock acquisition — the shape an op-scoped audit view needs.
func (s *SubnetManager) ResolveLIDs(lids []ib.LID) map[ib.LID]topology.NodeID {
	out := make(map[ib.LID]topology.NodeID, len(lids))
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	for _, l := range lids {
		if n, ok := s.nodeOf[l]; ok {
			out[l] = n
		} else if n, ok := s.extra[l]; ok {
			out[l] = n
		}
	}
	return out
}

// AddressView copies the complete LID→node map (base + extra) under the
// address lock: the consistent, immutable shape composed fabric-wide
// snapshots and full audit views are built from.
func (s *SubnetManager) AddressView() map[ib.LID]topology.NodeID {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	out := make(map[ib.LID]topology.NodeID, len(s.nodeOf)+len(s.extra))
	for l, n := range s.nodeOf {
		out[l] = n
	}
	for l, n := range s.extra {
		out[l] = n
	}
	return out
}

// AllocExtraLID allocates and binds an additional LID (a vSwitch VF LID) to
// an existing CA node, returning it. Used by the dynamic-assignment model.
func (s *SubnetManager) AllocExtraLID(node topology.NodeID) (ib.LID, error) {
	if s.Topo.Node(node) == nil {
		return 0, fmt.Errorf("sm: no node %d", node)
	}
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	lid, err := s.pool.Alloc()
	if err != nil {
		return 0, err
	}
	s.extra[lid] = node
	s.markAddrLocked(lid)
	return lid, nil
}

// ReserveExtraLID binds a specific additional LID to a CA node (the
// prepopulated model reserves VF LIDs up front).
func (s *SubnetManager) ReserveExtraLID(lid ib.LID, node topology.NodeID) error {
	if s.Topo.Node(node) == nil {
		return fmt.Errorf("sm: no node %d", node)
	}
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	if err := s.pool.Reserve(lid); err != nil {
		return err
	}
	s.extra[lid] = node
	s.markAddrLocked(lid)
	return nil
}

// ReleaseExtraLID unbinds and frees an additional LID.
func (s *SubnetManager) ReleaseExtraLID(lid ib.LID) {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	if _, ok := s.extra[lid]; !ok {
		return
	}
	delete(s.extra, lid)
	s.pool.Release(lid)
	s.markAddrLocked(lid)
}

// RebindExtraLID points an existing extra LID at a different node (the LID
// follows a migrating VM).
func (s *SubnetManager) RebindExtraLID(lid ib.LID, node topology.NodeID) error {
	if s.Topo.Node(node) == nil {
		return fmt.Errorf("sm: no node %d", node)
	}
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	if _, ok := s.extra[lid]; !ok {
		return fmt.Errorf("sm: LID %d is not an extra LID", lid)
	}
	s.extra[lid] = node
	s.markAddrLocked(lid)
	return nil
}

// markAddrLocked records that lid's owner changed. Called with addrMu held.
func (s *SubnetManager) markAddrLocked(lid ib.LID) {
	w, bit := int(lid)>>6, uint64(1)<<(lid&63)
	if w >= len(s.addrSeen) {
		s.addrSeen = append(s.addrSeen, make([]uint64, w+1-len(s.addrSeen))...)
	}
	if s.addrSeen[w]&bit == 0 {
		s.addrSeen[w] |= bit
		s.addrDirty = append(s.addrDirty, lid)
	}
}

// DrainAddressChanges returns the LIDs whose owner changed since the
// previous call — assigned, adopted, allocated, released or rebound, base
// or extra — and forgets them. The control plane patches exactly these
// into its next published snapshot, so address changes made outside its
// commands (a harness resweep, an SM handover) are not missed.
func (s *SubnetManager) DrainAddressChanges() []ib.LID {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	out := s.addrDirty
	for _, l := range out {
		s.addrSeen[l>>6] &^= uint64(1) << (l & 63)
	}
	s.addrDirty = nil
	return out
}

// ExtraLIDsOf lists the extra LIDs currently bound to a node, ascending.
func (s *SubnetManager) ExtraLIDsOf(node topology.NodeID) []ib.LID {
	var out []ib.LID
	s.addrMu.Lock()
	for l, n := range s.extra {
		if n == node {
			out = append(out, l)
		}
	}
	s.addrMu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// LIDCount returns the number of assigned LIDs (base + extra).
func (s *SubnetManager) LIDCount() int {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	return s.pool.Count()
}

// TopLID returns the highest assigned LID.
func (s *SubnetManager) TopLID() ib.LID {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	return s.pool.TopUsed()
}

// Targets builds the routing-engine target list from the current LID
// state, excluding nodes the latest sweep could not reach.
func (s *SubnetManager) Targets() []routing.Target {
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	out := make([]routing.Target, 0, len(s.nodeOf)+len(s.extra))
	for l, n := range s.nodeOf {
		if s.reachable[n] {
			out = append(out, routing.Target{LID: l, Node: n})
		}
	}
	for l, n := range s.extra {
		if s.reachable[n] {
			out = append(out, routing.Target{LID: l, Node: n})
		}
	}
	// Deterministic order (ascending LID) keeps engines reproducible.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].LID > out[j].LID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// routingEngine returns the engine ComputeRoutes should run: the raw Engine,
// or — with IncrementalRouting on — a cached incremental wrapper around it.
// The wrapper owns a dependency index keyed to one engine instance, so it is
// recreated whenever Engine is swapped out from under it.
func (s *SubnetManager) routingEngine() routing.Engine {
	if !s.IncrementalRouting {
		s.inc = nil
		return s.Engine
	}
	if s.inc == nil || s.inc.Inner() != s.Engine {
		s.inc = routing.NewIncremental(s.Engine)
	}
	return s.inc
}

// ComputeRoutes runs the routing engine over all current targets and
// installs the result as the target LFT state. The returned stats carry the
// measured path-computation time PCt of equation 1.
func (s *SubnetManager) ComputeRoutes() (routing.Stats, error) {
	if !s.swept {
		return routing.Stats{}, fmt.Errorf("sm: ComputeRoutes before Sweep")
	}
	eng := s.routingEngine()
	span := s.tel.Tracer().Start(telemetry.SpanPathCompute, s.Engine.Name())
	req := &routing.Request{
		Topo: s.Topo, Targets: s.Targets(), Workers: s.RouteWorkers,
		Prov: &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Span:     span.ID(),
			Engine:   s.Engine.Name(),
			Reason:   "compute_routes",
			Shard:    ib.ShardNone,
		},
	}
	res, err := eng.Compute(req)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return routing.Stats{}, err
	}
	span.SetAttr("engine", s.Engine.Name())
	span.SetAttr("workers", res.Stats.Workers)
	span.SetAttr("paths", res.Stats.PathsComputed)
	span.SetAttr("vls", res.Stats.VLsUsed)
	// Engine phases and per-worker busy time become wall-only child spans;
	// the phase wall durations also feed a wall-marked histogram so the
	// distribution of phase costs is queryable across many runs.
	phaseHist := s.tel.Registry().WallHistogram("routing.phase_wall_us", nil)
	for _, ph := range res.Stats.Phases {
		c := span.Child(telemetry.SpanPhase, ph.Name)
		c.EndWithWall(ph.Duration)
		phaseHist.ObserveDuration(ph.Duration)
	}
	for w, busy := range res.Stats.WorkerBusy {
		c := span.Child(telemetry.SpanPhase, fmt.Sprintf("worker-%d", w))
		c.EndWithWall(busy)
	}
	if inc := res.Stats.Incremental; inc.Attempted {
		span.SetAttr("incremental_applied", inc.Applied)
		reg := s.tel.Registry()
		if inc.Applied {
			reg.Counter("routing.incremental.applied").Inc()
			reg.Counter("routing.incremental.dests_recomputed").Add(int64(inc.DestsRecomputed))
			reg.Counter("routing.incremental.dests_patched").Add(int64(inc.DestsPatched))
			reg.Counter("routing.incremental.dests_total").Add(int64(inc.DestsTotal))
			span.SetAttr("dests_recomputed", inc.DestsRecomputed)
			span.SetAttr("dests_total", inc.DestsTotal)
		} else {
			reg.Counter("routing.incremental.fallback").Inc()
			span.SetAttr("incremental_fallback", inc.FallbackReason)
		}
	}
	span.EndWithWall(res.Stats.Duration)
	s.tel.Registry().Counter("sm.route_computes").Inc()
	s.target = res.LFTs
	s.routed = true
	s.log.Addf(EvRoute, "routing (%s): %d paths in %v", s.Engine.Name(),
		res.Stats.PathsComputed, res.Stats.Duration)
	return res.Stats, nil
}

// SwitchRoute implements smp.LFTResolver against the programmed state.
func (s *SubnetManager) SwitchRoute(sw topology.NodeID, dlid ib.LID) ib.PortNum {
	lft := s.programmedActive(sw)
	if lft == nil {
		return ib.DropPort
	}
	return lft.Get(dlid)
}

// ProgrammedLFT returns the LFT the SM believes the switch holds (nil
// before first distribution): the active side of the switch's double
// buffer, published atomically by the last distribution commit.
func (s *SubnetManager) ProgrammedLFT(sw topology.NodeID) *ib.LFT { return s.programmedActive(sw) }

// programmedActive reads one switch's active programmed table (nil when the
// switch was never programmed).
func (s *SubnetManager) programmedActive(sw topology.NodeID) *ib.LFT {
	if buf := s.programmed[sw]; buf != nil {
		return buf.Active()
	}
	return nil
}

// programmedView materialises the active side of every switch's buffer into
// a plain table map — the read-only shape the OnDistribute transient-CDG
// hook and the handover reconciliation consume.
func (s *SubnetManager) programmedView() map[topology.NodeID]*ib.LFT {
	out := make(map[topology.NodeID]*ib.LFT, len(s.programmed))
	for sw, buf := range s.programmed {
		if lft := buf.Active(); lft != nil {
			out[sw] = lft
		}
	}
	return out
}

// lftLock returns the stripe lock serializing SetLFTEntries for a switch.
func (s *SubnetManager) lftLock(sw topology.NodeID) *sync.Mutex {
	return &s.lftMu[uint64(sw)%lftStripes]
}

// commitProgrammed publishes t as the switch's programmed table with one
// atomic swap (creating the buffer on first programming).
func (s *SubnetManager) commitProgrammed(sw topology.NodeID, t *ib.LFT) {
	buf := s.programmed[sw]
	if buf == nil {
		buf = ib.NewLFTBuffer(nil)
		s.programmed[sw] = buf
	}
	buf.Stage(t)
	buf.Commit()
}

// TargetLFT returns the routing engine's most recent table for a switch.
func (s *SubnetManager) TargetLFT(sw topology.NodeID) *ib.LFT { return s.target[sw] }
