package shard

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// ErrBackpressure reports a full shard admission queue. The API layer maps
// it to HTTP 429 + Retry-After, the same backpressure contract as the
// single-actor admission queue.
var ErrBackpressure = errors.New("shard: admission queue full")

// ErrShutdown reports a control plane that has stopped accepting work.
var ErrShutdown = errors.New("shard: control plane is shutting down")

// task is one closure executed on a shard's actor goroutine.
type task func()

// Shard is one zone's actor: the only goroutine that touches the zone's
// HCAs (attach/detach, VF LIDs and GUIDs), its VM name set and its VF
// reservation ledger. LFT columns of the zone's VM LIDs are written through
// the SM's striped per-switch locks, so two shards editing their own
// columns on a shared spine merge correctly.
type Shard struct {
	id   int
	zone *Zone
	co   *Coordinator

	cmds chan task
	done chan struct{}
	ops  atomic.Uint64

	// Actor-owned state: only tasks running on this shard's goroutine (or
	// the constructor, before the actor starts) read or write these.
	names    map[string]struct{}
	reserved map[topology.NodeID]map[int]bool

	snap atomic.Pointer[Snap]

	// Per-shard instruments, labelled shard="<id>" in the registry so
	// /metrics exposes one series per actor. Nil-safe when telemetry is off.
	mQueueDepth *telemetry.Gauge
	mAdmitUS    *telemetry.Histogram
	mOps        *telemetry.Counter
}

// VMState is one VM in a shard snapshot.
type VMState struct {
	Name string
	Hyp  topology.NodeID
	VF   int
	Addr sriov.Addresses
}

// HypState is one hypervisor in a shard snapshot.
type HypState struct {
	Node     topology.NodeID
	VFs      int
	Attached int
}

// Snap is one shard's published copy-on-write snapshot: rebuilt by the
// owning actor after every mutation, read lock-free by the coordinator's
// composed fabric view. Its cost is O(zone), not O(fabric) — the reason a
// sharded control plane scales where the single actor's per-mutation
// fabric-wide snapshot does not.
type Snap struct {
	Shard   int
	Gen     uint64
	VMs     []VMState  // sorted by name
	Hyps    []HypState // sorted by node
	FreeVFs int        // unattached, unreserved VFs across the zone
}

// Stats is one shard's live load figures, served by the topology endpoint
// and reported per shard by ibsimload.
type Stats struct {
	Shard    int    `json:"shard"`
	Hyps     int    `json:"hyps"`
	VMs      int    `json:"vms"`
	FreeVFs  int    `json:"free_vfs"`
	Ops      uint64 `json:"ops"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
}

func newShard(id int, zone *Zone, co *Coordinator, depth int) *Shard {
	reg := co.C.SM.Telemetry().Registry()
	lbl := strconv.Itoa(id)
	return &Shard{
		id:       id,
		zone:     zone,
		co:       co,
		cmds:     make(chan task, depth),
		done:     make(chan struct{}),
		names:    map[string]struct{}{},
		reserved: map[topology.NodeID]map[int]bool{},

		mQueueDepth: reg.Gauge(telemetry.Labeled("shard.queue_depth", "shard", lbl)),
		mAdmitUS:    reg.WallHistogram(telemetry.Labeled("shard.admit_wall_us", "shard", lbl), nil),
		mOps:        reg.Counter(telemetry.Labeled("shard.ops", "shard", lbl)),
	}
}

// instrument wraps a task to record admission latency (enqueue to the moment
// the actor picks it up) and keep the queue-depth gauge current on dequeue.
func (s *Shard) instrument(t task) task {
	enq := time.Now()
	return func() {
		s.mAdmitUS.ObserveDuration(time.Since(enq))
		s.mQueueDepth.Set(int64(len(s.cmds)))
		t()
	}
}

// run is the actor goroutine: drain tasks until the queue closes.
func (s *Shard) run() {
	for t := range s.cmds {
		t()
	}
	close(s.done)
}

// trySubmit admits a task without blocking; a full queue is ErrBackpressure.
// Every operation's *first* submit goes through here, so saturation surfaces
// as 429 instead of unbounded blocking.
func (s *Shard) trySubmit(t task) error {
	s.co.life.RLock()
	defer s.co.life.RUnlock()
	if s.co.closed {
		return ErrShutdown
	}
	select {
	case s.cmds <- s.instrument(t):
		s.mQueueDepth.Set(int64(len(s.cmds)))
		return nil
	default:
		return ErrBackpressure
	}
}

// submit blocks until the task is queued. Only later phases of an already
// admitted operation use it: once phase 1 of a cross-shard migration has
// reserved state, the remaining phases must run, not bounce.
func (s *Shard) submit(t task) error {
	s.co.life.RLock()
	defer s.co.life.RUnlock()
	if s.co.closed {
		return ErrShutdown
	}
	s.cmds <- s.instrument(t)
	s.mQueueDepth.Set(int64(len(s.cmds)))
	return nil
}

// reserve marks a destination VF held for an in-flight cross-shard
// migration. Actor-owned: called from tasks on this shard only.
func (s *Shard) reserve(hyp topology.NodeID, vf int) {
	m := s.reserved[hyp]
	if m == nil {
		m = map[int]bool{}
		s.reserved[hyp] = m
	}
	m[vf] = true
}

func (s *Shard) unreserve(hyp topology.NodeID, vf int) {
	delete(s.reserved[hyp], vf)
}

// pickVF returns the lowest unattached, unreserved VF on h (-1 if none).
// The reservation check is what lets zone-local placement run concurrently
// with cross-shard migrations targeting the same HCA: both go through this
// shard's actor, which sees its own reservations.
func (s *Shard) pickVF(h *cloud.Hypervisor) int {
	res := s.reserved[h.Node]
	for vf := range h.HCA.VFs {
		if !h.HCA.VFs[vf].Attached && !res[vf] {
			return vf
		}
	}
	return -1
}

// placeLocal picks the zone's least-loaded hypervisor with a free VF
// (spread placement; ties to the lowest node ID, matching the cloud's
// Spread scheduler within the zone).
func (s *Shard) placeLocal() (topology.NodeID, int) {
	bestNode, bestVF := topology.NoNode, -1
	bestAttached := int(^uint(0) >> 1)
	for _, hn := range s.zone.Hyps {
		h := s.co.C.Hypervisor(hn)
		vf := s.pickVF(h)
		if vf < 0 {
			continue
		}
		if att := h.HCA.AttachedCount(); att < bestAttached {
			bestNode, bestVF, bestAttached = hn, vf, att
		}
	}
	return bestNode, bestVF
}

// publish rebuilds and atomically swaps this shard's snapshot.
func (s *Shard) publish(gen uint64) {
	sn := &Snap{Shard: s.id, Gen: gen}
	for _, hn := range s.zone.Hyps {
		h := s.co.C.Hypervisor(hn)
		att := h.HCA.AttachedCount()
		sn.Hyps = append(sn.Hyps, HypState{Node: hn, VFs: h.HCA.NumVFs(), Attached: att})
		sn.FreeVFs += h.HCA.NumVFs() - att - len(s.reserved[hn])
	}
	sn.VMs = make([]VMState, 0, len(s.names))
	for name := range s.names {
		vm := s.co.C.VM(name)
		if vm == nil {
			continue
		}
		sn.VMs = append(sn.VMs, VMState{Name: vm.Name, Hyp: vm.Hyp, VF: vm.VF, Addr: vm.Addr})
	}
	sort.Slice(sn.VMs, func(i, j int) bool { return sn.VMs[i].Name < sn.VMs[j].Name })
	s.snap.Store(sn)
}

// finish closes out one zone-local mutation on the actor: bump the op
// counter, publish a fresh snapshot on success, and run the coordinator's
// after-mutation hook (flight recorder + op-scoped audit in the API layer).
func (s *Shard) finish(op, name, reqID string, err error, lids []ib.LID, b *Binding) {
	s.ops.Add(1)
	s.mOps.Inc()
	gen := s.co.gen.Load()
	if err == nil {
		gen = s.co.gen.Add(1)
		s.publish(gen)
	}
	if f := s.co.cfg.AfterMutation; f != nil {
		f(Mutation{Op: op, Name: name, ReqID: reqID, Shard: s.id, Gen: gen,
			Err: err, AuditLIDs: lids, Binding: b})
	}
}

// execCreate runs a zone-local VM create on the actor. hyp == NoNode means
// the coordinator delegated placement to the zone.
func (s *Shard) execCreate(reqID, name string, hyp topology.NodeID) (CreateResult, error) {
	var res CreateResult
	var vf int
	if hyp == topology.NoNode {
		hyp, vf = s.placeLocal()
		if hyp == topology.NoNode {
			err := fmt.Errorf("cloud: zone %d has no %w", s.id, cloud.ErrNoFreeVF)
			s.finish("create_vm", name, reqID, err, nil, nil)
			return res, err
		}
	} else {
		h := s.co.C.Hypervisor(hyp)
		if h == nil {
			err := fmt.Errorf("cloud: node %d %w", hyp, cloud.ErrNotHypervisor)
			s.finish("create_vm", name, reqID, err, nil, nil)
			return res, err
		}
		if vf = s.pickVF(h); vf < 0 {
			err := fmt.Errorf("cloud: hypervisor %d has no %w", hyp, cloud.ErrNoFreeVF)
			s.finish("create_vm", name, reqID, err, nil, nil)
			return res, err
		}
	}
	vm, boot, err := s.co.C.CreateVMOnVFShard(name, hyp, vf, s.id)
	if err != nil {
		s.finish("create_vm", name, reqID, err, nil, nil)
		return res, err
	}
	s.names[name] = struct{}{}
	res = CreateResult{VM: VMState{Name: vm.Name, Hyp: vm.Hyp, VF: vm.VF, Addr: vm.Addr}, Boot: boot}
	s.finish("create_vm", name, reqID, nil,
		[]ib.LID{vm.Addr.LID}, &Binding{Name: name, LID: vm.Addr.LID, Hyp: vm.Hyp})
	return res, nil
}

// execDestroy runs a zone-local VM destroy on the actor.
func (s *Shard) execDestroy(reqID, name string) (DestroyResult, error) {
	var res DestroyResult
	vm := s.co.C.VM(name)
	if vm == nil {
		err := fmt.Errorf("cloud: %w %q", cloud.ErrNoVM, name)
		s.finish("destroy_vm", name, reqID, err, nil, nil)
		return res, err
	}
	vfLID := vm.Addr.LID
	boot, err := s.co.C.DestroyVMStatsShard(name, s.id)
	if err != nil {
		s.finish("destroy_vm", name, reqID, err, nil, nil)
		return res, err
	}
	delete(s.names, name)
	res = DestroyResult{Boot: boot}
	// Under prepopulated LIDs the VF keeps its LID after teardown, so the
	// freed column is still auditable; under dynamic assignment the LID is
	// gone and there is no column left to check.
	var lids []ib.LID
	if s.co.C.Model == sriov.VSwitchPrepopulated {
		lids = []ib.LID{vfLID}
	}
	s.finish("destroy_vm", name, reqID, nil, lids, nil)
	return res, nil
}

// execMigrate runs a zone-local migration (source and destination in this
// shard's zone) on the actor.
func (s *Shard) execMigrate(reqID, name string, dst topology.NodeID) (MigrateResult, error) {
	var res MigrateResult
	fail := func(err error) (MigrateResult, error) {
		s.finish("migrate_vm", name, reqID, err, nil, nil)
		return res, err
	}
	h := s.co.C.Hypervisor(dst)
	if h == nil {
		return fail(fmt.Errorf("cloud: destination %d %w", dst, cloud.ErrNotHypervisor))
	}
	vm := s.co.C.VM(name)
	if vm == nil {
		return fail(fmt.Errorf("cloud: %w %q", cloud.ErrNoVM, name))
	}
	if dst == vm.Hyp {
		return fail(fmt.Errorf("cloud: VM %q %w %d", name, cloud.ErrSameNode, dst))
	}
	dstVF := s.pickVF(h)
	if dstVF < 0 {
		return fail(fmt.Errorf("cloud: destination %d has no %w", dst, cloud.ErrNoFreeVF))
	}
	vmLID, destLID := vm.Addr.LID, h.HCA.VFs[dstVF].LID
	rep, err := s.co.C.MigrateVMVFShard(name, dst, dstVF, s.id)
	if err != nil {
		return fail(err)
	}
	res = MigrateResult{VM: VMState{Name: vm.Name, Hyp: vm.Hyp, VF: vm.VF, Addr: vm.Addr}, Rep: rep}
	var lids []ib.LID
	switch s.co.C.Model {
	case sriov.VSwitchPrepopulated:
		lids = []ib.LID{vmLID, destLID} // the swapped pair: both columns changed
	case sriov.VSwitchDynamic:
		lids = []ib.LID{vmLID}
	default:
		lids = []ib.LID{vm.Addr.LID}
	}
	s.finish("migrate_vm", name, reqID, nil, lids,
		&Binding{Name: name, LID: vm.Addr.LID, Hyp: vm.Hyp})
	return res, nil
}

// CreateResult answers a create operation.
type CreateResult struct {
	VM   VMState
	Boot core.BootStats
}

// DestroyResult answers a destroy operation.
type DestroyResult struct {
	Boot core.BootStats
}

// MigrateResult answers a migrate operation.
type MigrateResult struct {
	VM  VMState
	Rep cloud.MigrationReport
}

// Binding is the VM→(LID, hypervisor) claim a mutation establishes; the
// API layer feeds it to the op-scoped audit.
type Binding struct {
	Name string
	LID  ib.LID
	Hyp  topology.NodeID
}

// Mutation describes one completed control-plane mutation to the
// coordinator's AfterMutation hook. For zone-local operations the hook runs
// on the owning shard's actor goroutine (before the reply, like the
// single-actor loop); for cross-shard migrations it runs once on the
// coordinator's request goroutine after phase 2 completes.
type Mutation struct {
	Op     string
	Name   string
	ReqID  string
	Shard  int
	Gen    uint64
	Err    error
	Status int // HTTP-ish status the API layer assigns; 0 until then
	// AuditLIDs are the LID columns this mutation touched — the op-scoped
	// audit proves exactly these reach their owners, instead of re-walking
	// the whole fabric per mutation.
	AuditLIDs []ib.LID
	Binding   *Binding
}
