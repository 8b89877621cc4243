package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/sm"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Config parameterises a Coordinator.
type Config struct {
	// QueueDepth bounds each shard's admission queue. 0 means 64 (the same
	// default as the single-actor admission queue).
	QueueDepth int
	// AfterMutation, when non-nil, runs after every completed mutation (on
	// the owning actor for zone-local operations, on the coordinator's
	// request goroutine for cross-shard migrations). The API layer hooks the
	// flight recorder and the op-scoped audit here.
	AfterMutation func(Mutation)
}

// Coordinator is the thin routing layer over the shard actors: zone-local
// mutations go straight to their shard's queue, cross-shard migrations run
// the two-phase plan below, and fabric-wide operations run under Freeze.
type Coordinator struct {
	C    *cloud.Cloud
	Part *Partition
	cfg  Config

	shards []*Shard
	gen    atomic.Uint64

	// mu guards the VM→zone routing table and the per-VM busy set. An
	// operation on a busy VM (one with a cross-shard migration in flight)
	// fails fast with a conflict rather than queueing behind it.
	mu     sync.Mutex
	vmZone map[string]int
	busy   map[string]bool

	// xmu excludes cross-shard migrations (readers, held for the whole
	// two-phase plan) from Freeze and Shutdown (writers) — a freeze can
	// never cut a migration between its phases.
	xmu sync.RWMutex

	// life guards submits against queue close on shutdown.
	life   sync.RWMutex
	closed bool

	gateMu sync.Mutex
	gate   func(XMigration) error
}

// New partitions the cloud's hypervisors into n zones (n <= 0: one per
// pod/leaf group) and starts one actor per zone. Existing VMs are adopted
// into their owning shards. The coordinator takes exclusive ownership of
// the cloud, like api.NewServer does in single-actor mode.
func New(c *cloud.Cloud, n int, cfg Config) (*Coordinator, error) {
	part, err := NewPartition(c.SM.Topo, c.Hypervisors(), n)
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	co := &Coordinator{
		C:      c,
		Part:   part,
		cfg:    cfg,
		vmZone: map[string]int{},
		busy:   map[string]bool{},
	}
	for _, zone := range part.Zones {
		co.shards = append(co.shards, newShard(zone.ID, zone, co, cfg.QueueDepth))
	}
	for _, name := range c.VMs() {
		vm := c.VM(name)
		z := part.ZoneOfHyp(vm.Hyp)
		if z < 0 {
			return nil, fmt.Errorf("shard: VM %q on node %d outside every zone", name, vm.Hyp)
		}
		co.vmZone[name] = z
		co.shards[z].names[name] = struct{}{}
	}
	gen := co.gen.Add(1)
	for _, sh := range co.shards {
		sh.publish(gen)
		go sh.run()
	}
	return co, nil
}

// Shards returns the number of shards.
func (co *Coordinator) Shards() int { return len(co.shards) }

// Gen returns the current fabric generation (bumped by every successful
// mutation on any shard).
func (co *Coordinator) Gen() uint64 { return co.gen.Load() }

// Snaps returns every shard's current snapshot.
func (co *Coordinator) Snaps() []*Snap {
	out := make([]*Snap, len(co.shards))
	for i, sh := range co.shards {
		out[i] = sh.snap.Load()
	}
	return out
}

// Stats returns per-shard load figures.
func (co *Coordinator) Stats() []Stats {
	out := make([]Stats, len(co.shards))
	for i, sh := range co.shards {
		sn := sh.snap.Load()
		out[i] = Stats{
			Shard: i, Hyps: len(sh.zone.Hyps), VMs: len(sn.VMs), FreeVFs: sn.FreeVFs,
			Ops: sh.ops.Load(), QueueLen: len(sh.cmds), QueueCap: cap(sh.cmds),
		}
	}
	return out
}

// QueueLen returns the total backlog across all shard queues.
func (co *Coordinator) QueueLen() int {
	n := 0
	for _, sh := range co.shards {
		n += len(sh.cmds)
	}
	return n
}

// claim marks a VM busy for the duration of one operation. mustExist
// resolves the owning zone (create passes false and requires absence).
func (co *Coordinator) claim(name string, mustExist bool) (int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.busy[name] {
		return 0, fmt.Errorf("cloud: VM %q %w (another operation is in flight)", name, cloud.ErrBusy)
	}
	z, ok := co.vmZone[name]
	if mustExist && !ok {
		return 0, fmt.Errorf("cloud: %w %q", cloud.ErrNoVM, name)
	}
	if !mustExist && ok {
		return 0, fmt.Errorf("cloud: VM %q %w", name, cloud.ErrExists)
	}
	co.busy[name] = true
	return z, nil
}

// settle releases a busy claim, updating the routing table: zone >= 0
// (re)binds the VM to that zone, zone < 0 removes it.
func (co *Coordinator) settle(name string, zone int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	delete(co.busy, name)
	if zone >= 0 {
		co.vmZone[name] = zone
	} else if zone == -2 {
		delete(co.vmZone, name)
	}
}

// keepZone leaves the routing table untouched when settling.
const keepZone = -1

// dropZone removes the VM from the routing table when settling.
const dropZone = -2

// CreateVM places a VM: on hyp's zone when pinned (hyp != NoNode), else on
// the zone with the most free VFs, with spread placement inside the zone.
func (co *Coordinator) CreateVM(reqID, name string, hyp topology.NodeID) (CreateResult, error) {
	var res CreateResult
	if _, err := co.claim(name, false); err != nil {
		return res, err
	}
	z := -1
	if hyp != topology.NoNode {
		if z = co.Part.ZoneOfHyp(hyp); z < 0 {
			co.settle(name, keepZone)
			return res, fmt.Errorf("cloud: node %d %w", hyp, cloud.ErrNotHypervisor)
		}
	} else {
		best := -1
		for i, sn := range co.Snaps() {
			if sn.FreeVFs > best {
				best, z = sn.FreeVFs, i
			}
		}
	}
	sh := co.shards[z]
	type reply struct {
		res CreateResult
		err error
	}
	ch := make(chan reply, 1)
	if err := sh.trySubmit(func() {
		r, e := sh.execCreate(reqID, name, hyp)
		ch <- reply{r, e}
	}); err != nil {
		co.settle(name, keepZone)
		return res, err
	}
	r := <-ch
	if r.err != nil {
		co.settle(name, keepZone)
		return res, r.err
	}
	co.settle(name, z)
	return r.res, nil
}

// DestroyVM removes a VM through its owning shard.
func (co *Coordinator) DestroyVM(reqID, name string) (DestroyResult, error) {
	var res DestroyResult
	z, err := co.claim(name, true)
	if err != nil {
		return res, err
	}
	sh := co.shards[z]
	type reply struct {
		res DestroyResult
		err error
	}
	ch := make(chan reply, 1)
	if err := sh.trySubmit(func() {
		r, e := sh.execDestroy(reqID, name)
		ch <- reply{r, e}
	}); err != nil {
		co.settle(name, keepZone)
		return res, err
	}
	r := <-ch
	if r.err != nil {
		co.settle(name, keepZone)
		return res, r.err
	}
	co.settle(name, dropZone)
	return r.res, nil
}

// MigrateVM routes a migration: zone-local when source and destination
// share a shard, the two-phase cross-shard plan otherwise.
func (co *Coordinator) MigrateVM(reqID, name string, dst topology.NodeID) (MigrateResult, error) {
	var res MigrateResult
	srcZone, err := co.claim(name, true)
	if err != nil {
		return res, err
	}
	dstZone := co.Part.ZoneOfHyp(dst)
	if dstZone < 0 {
		co.settle(name, keepZone)
		return res, fmt.Errorf("cloud: destination %d %w", dst, cloud.ErrNotHypervisor)
	}
	if dstZone == srcZone {
		sh := co.shards[srcZone]
		type reply struct {
			res MigrateResult
			err error
		}
		ch := make(chan reply, 1)
		if err := sh.trySubmit(func() {
			r, e := sh.execMigrate(reqID, name, dst)
			ch <- reply{r, e}
		}); err != nil {
			co.settle(name, keepZone)
			return res, err
		}
		r := <-ch
		co.settle(name, keepZone)
		return r.res, r.err
	}
	res, err = co.migrateCross(reqID, name, srcZone, dstZone, dst)
	if err != nil {
		co.settle(name, keepZone)
		return res, err
	}
	co.settle(name, dstZone)
	return res, nil
}

// XMigration describes an in-flight cross-shard migration at its commit
// point: phase 1 is complete (destination VF reserved, source VF detached,
// LFT diff staged) and no fabric edit has happened yet.
type XMigration struct {
	VM                 string
	From, To           topology.NodeID
	FromShard, ToShard int
	VMLID              ib.LID
	DestVF             int
	DestVFLID          ib.LID
}

// SetCommitGate installs a hook that runs between phase 1 and phase 2 of
// every cross-shard migration, on the coordinator's request goroutine.
// Returning an error aborts the migration: the source VF is re-attached and
// the destination reservation released, with no LFT rollback needed (the
// gate fires before any edit is applied). The chaos engine uses the gate to
// stall a commit mid-flight while mutating both shards. The gate runs
// inside the cross-shard critical section: it must not call Freeze or
// Shutdown; zone-local mutations are allowed.
func (co *Coordinator) SetCommitGate(fn func(XMigration) error) {
	co.gateMu.Lock()
	co.gate = fn
	co.gateMu.Unlock()
}

func (co *Coordinator) commitGate() func(XMigration) error {
	co.gateMu.Lock()
	defer co.gateMu.Unlock()
	return co.gate
}

// migrateCross is the two-phase cross-shard migration. Phase 1 reserves the
// destination VF (dst actor) and stages the LFT diff + detaches the source
// VF (src actor). The commit applies the staged edits from the coordinator
// goroutine — safe alongside concurrent zone-local mutations because every
// LID column involved is exclusively owned by this operation and LFT writes
// go through the SM's per-switch stripe locks. Phase 2 hands the VF back on
// the source actor and adopts the VM on the destination actor. Either
// side's phase-1 failure (or a commit-gate veto) aborts by re-attaching the
// source VF and releasing the reservation.
func (co *Coordinator) migrateCross(reqID, name string, srcZone, dstZone int, dst topology.NodeID) (MigrateResult, error) {
	var res MigrateResult
	src, dstSh := co.shards[srcZone], co.shards[dstZone]
	co.xmu.RLock()
	defer co.xmu.RUnlock()

	// Each two-phase stage reports its wall latency as one labelled series:
	// shard.xphase_wall_us{phase="reserve"|"stage"|"commit"|"abort"}.
	reg := co.C.SM.Telemetry().Registry()
	phaseDone := func(phase string, start time.Time) {
		reg.WallHistogram(telemetry.Labeled("shard.xphase_wall_us", "phase", phase), nil).
			ObserveDuration(time.Since(start))
	}

	fail := func(err error) (MigrateResult, error) {
		if f := co.cfg.AfterMutation; f != nil {
			f(Mutation{Op: "migrate_vm", Name: name, ReqID: reqID, Shard: srcZone,
				Gen: co.gen.Load(), Err: err})
		}
		return res, err
	}

	// Phase 1a: reserve a destination VF on the destination shard.
	type p1a struct {
		vf  int
		lid ib.LID
		err error
	}
	reserveStart := time.Now()
	ch1 := make(chan p1a, 1)
	if err := dstSh.trySubmit(func() {
		h := co.C.Hypervisor(dst)
		vf := dstSh.pickVF(h)
		if vf < 0 {
			ch1 <- p1a{err: fmt.Errorf("cloud: destination %d has no %w", dst, cloud.ErrNoFreeVF)}
			return
		}
		dstSh.reserve(dst, vf)
		ch1 <- p1a{vf: vf, lid: h.HCA.VFs[vf].LID}
	}); err != nil {
		return res, err // backpressure before anything was staged: plain 429
	}
	r1 := <-ch1
	phaseDone("reserve", reserveStart)
	if r1.err != nil {
		return fail(r1.err)
	}
	release := func() {
		dstSh.submit(func() { dstSh.unreserve(dst, r1.vf) }) //nolint:errcheck // shutdown drops the ledger anyway
	}

	// Phase 1b: stage the LFT diff and detach the source VF.
	type p1b struct {
		vm   *cloud.VM
		plan *core.MigrationPlan
		err  error
	}
	stageStart := time.Now()
	ch2 := make(chan p1b, 1)
	if err := src.submit(func() {
		vm := co.C.VM(name)
		if vm == nil {
			ch2 <- p1b{err: fmt.Errorf("cloud: %w %q", cloud.ErrNoVM, name)}
			return
		}
		var plan *core.MigrationPlan
		var err error
		switch co.C.Model {
		case sriov.VSwitchPrepopulated:
			plan, err = co.C.RC.PlanSwap(vm.Addr.LID, r1.lid)
		case sriov.VSwitchDynamic:
			plan, err = co.C.RC.PlanCopy(vm.Addr.LID, co.C.SM.LIDOf(dst))
		case sriov.SharedPort:
			// No LFT work: the VM adopts the destination PF's LID.
		default:
			err = fmt.Errorf("cloud: unknown SR-IOV model %v", co.C.Model)
		}
		if err == nil {
			err = co.C.Hypervisor(vm.Hyp).HCA.Detach(vm.VF)
		}
		if err != nil {
			ch2 <- p1b{err: err}
			return
		}
		// The detached VF stays reserved until phase 2a hands it back:
		// without this, zone-local placement on the source shard would see
		// an unattached VF and double-book it mid-commit.
		src.reserve(vm.Hyp, vm.VF)
		co.C.SM.Log().Addf(sm.EvMigration,
			"signal: migrate %q from %d to %d (cross-shard %d -> %d)",
			name, vm.Hyp, dst, srcZone, dstZone)
		ch2 <- p1b{vm: vm, plan: plan}
	}); err != nil {
		release()
		return fail(err)
	}
	r2 := <-ch2
	phaseDone("stage", stageStart)
	if r2.err != nil {
		release()
		return fail(r2.err)
	}
	vm, plan := r2.vm, r2.plan
	oldHyp, oldVF, oldLID := vm.Hyp, vm.VF, vm.Addr.LID
	guid, gid := vm.Addr.GUID, vm.Addr.GID

	abort := func() {
		abortStart := time.Now()
		done := make(chan struct{}, 1)
		if err := src.submit(func() {
			co.C.Hypervisor(oldHyp).HCA.Attach(oldVF) //nolint:errcheck // VF state untouched since detach
			src.unreserve(oldHyp, oldVF)
			done <- struct{}{}
		}); err == nil {
			<-done
		}
		release()
		phaseDone("abort", abortStart)
	}

	// Commit gate (chaos/test seam): fires before any fabric edit, so an
	// abort needs no LFT rollback.
	if g := co.commitGate(); g != nil {
		if err := g(XMigration{VM: name, From: oldHyp, To: dst,
			FromShard: srcZone, ToShard: dstZone,
			VMLID: oldLID, DestVF: r1.vf, DestVFLID: r1.lid}); err != nil {
			abort()
			return fail(fmt.Errorf("cloud: cross-shard migration of %q aborted: %w", name, err))
		}
	}

	tr := co.C.SM.Telemetry().Tracer()
	span := tr.Start(telemetry.SpanMigration, name)
	reg.Counter("cloud.migrations").Inc()
	reg.Counter("shard.cross_migrations").Inc()

	// Commit: apply the staged edits (Apply also rebinds the moved LIDs in
	// the SM's address map) and transfer the vGUID. Failures here are
	// transport-level: like the single actor, we surface them without
	// attempting a rollback of partially applied edits. The staged plan is
	// stamped here, at the commit point: every LFT block this migration
	// rewrites attributes to the coordinator's commit phase and this span.
	commitStart := time.Now()
	var st core.PlanStats
	if plan != nil {
		plan.Prov = &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Span:     span.ID(),
			Engine:   "migrate",
			Reason: fmt.Sprintf("cross_shard %s %d->%d (shard %d->%d)",
				name, oldHyp, dst, srcZone, dstZone),
			Phase: "commit",
			Shard: ib.ShardCoordinator,
		}
		var err error
		if st, err = co.C.RC.Apply(plan); err != nil {
			release()
			span.End()
			return fail(err)
		}
	}
	hostSMPs, err := co.C.RC.MigrateAddresses(oldHyp, dst, guid)
	if err != nil {
		release()
		span.End()
		return fail(err)
	}

	// Phase 2a: the source shard hands the VF back to its pool.
	ch3 := make(chan error, 1)
	src.submit(func() { //nolint:errcheck // post-commit phases cannot be refused; see submit
		h := co.C.Hypervisor(oldHyp)
		var err error
		switch co.C.Model {
		case sriov.VSwitchPrepopulated:
			err = h.HCA.SetVFLID(oldVF, r1.lid) // the LIDs physically swap
		case sriov.VSwitchDynamic:
			err = h.HCA.SetVFLID(oldVF, ib.LIDUnassigned)
		}
		if err == nil {
			err = h.HCA.SetVFGUID(oldVF, h.HCA.PFGUID+ib.GUID(oldVF+1))
		}
		src.unreserve(oldHyp, oldVF)
		delete(src.names, name)
		src.ops.Add(1)
		src.publish(co.gen.Add(1))
		ch3 <- err
	})
	if err := <-ch3; err != nil {
		release()
		span.End()
		return fail(err)
	}

	// Phase 2b: the destination shard adopts the VM.
	type p2b struct {
		addr sriov.Addresses
		err  error
	}
	ch4 := make(chan p2b, 1)
	dstSh.submit(func() { //nolint:errcheck
		h := co.C.Hypervisor(dst)
		var err error
		if co.C.Model != sriov.SharedPort {
			err = h.HCA.SetVFLID(r1.vf, oldLID)
		}
		if err == nil {
			err = h.HCA.SetVFGUID(r1.vf, guid)
		}
		if err == nil {
			err = h.HCA.Attach(r1.vf)
		}
		dstSh.unreserve(dst, r1.vf)
		if err != nil {
			ch4 <- p2b{err: err}
			return
		}
		addr, err := h.HCA.VFAddresses(r1.vf)
		if err != nil {
			ch4 <- p2b{err: err}
			return
		}
		vm.Hyp, vm.VF, vm.Addr = dst, r1.vf, addr
		dstSh.names[name] = struct{}{}
		dstSh.ops.Add(1)
		dstSh.publish(co.gen.Add(1))
		ch4 <- p2b{addr: addr}
	})
	r4 := <-ch4
	if r4.err != nil {
		span.End()
		return fail(r4.err)
	}

	changed := r4.addr.LID != oldLID
	if changed {
		if err := co.C.SA.Rebind(gid, r4.addr.LID); err != nil {
			span.End()
			return fail(err)
		}
	}
	phaseDone("commit", commitStart)

	span.SetAttr("vm", name)
	span.SetAttr("from", int64(oldHyp))
	span.SetAttr("to", int64(dst))
	span.SetAttr("model", co.C.Model)
	span.SetAttr("cross_shard", fmt.Sprintf("%d->%d", srcZone, dstZone))
	span.SetAttr("switches", st.SwitchesUpdated)
	span.SetAttr("smps", st.SMPs)
	span.SetAttr("host_smps", hostSMPs)
	span.SetAttr("addresses_changed", changed)
	span.SetModelled(st.ModelledTime)
	span.End()
	co.C.SM.Log().Addf(sm.EvMigration,
		"migrated %q to node %d (LID %d, cross-shard %d -> %d, addresses changed: %v)",
		name, dst, r4.addr.LID, srcZone, dstZone, changed)

	res = MigrateResult{
		VM: VMState{Name: name, Hyp: dst, VF: r1.vf, Addr: r4.addr},
		Rep: cloud.MigrationReport{
			VM: name, From: oldHyp, To: dst, Plan: st, HostSMPs: hostSMPs,
			AddressesChanged: changed, Downtime: st.ModelledTime, Span: span.ID(),
		},
	}
	var lids []ib.LID
	switch co.C.Model {
	case sriov.VSwitchPrepopulated:
		lids = []ib.LID{oldLID, r1.lid}
	case sriov.VSwitchDynamic:
		lids = []ib.LID{oldLID}
	default:
		lids = []ib.LID{r4.addr.LID}
	}
	if f := co.cfg.AfterMutation; f != nil {
		f(Mutation{Op: "migrate_vm", Name: name, ReqID: reqID, Shard: dstZone,
			Gen: co.gen.Load(), AuditLIDs: lids,
			Binding: &Binding{Name: name, LID: r4.addr.LID, Hyp: dst}})
	}
	return res, nil
}

// Resync rebuilds the routing table, every shard's name set and every
// shard's snapshot from the cloud's live state. Call only from inside
// Freeze: the actors are parked at the barrier, so the coordinator
// temporarily owns their state. Fabric-wide operations that move VMs
// without going through the shards — reconciliation waves, defragmentation
// — must resync before the control plane thaws.
func (co *Coordinator) Resync() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, sh := range co.shards {
		sh.names = map[string]struct{}{}
	}
	clear(co.vmZone)
	for _, name := range co.C.VMs() {
		vm := co.C.VM(name)
		z := co.Part.ZoneOfHyp(vm.Hyp)
		if z < 0 {
			return fmt.Errorf("shard: VM %q on node %d outside every zone", name, vm.Hyp)
		}
		co.vmZone[name] = z
		co.shards[z].names[name] = struct{}{}
	}
	gen := co.gen.Add(1)
	for _, sh := range co.shards {
		sh.publish(gen)
	}
	return nil
}

// Freeze quiesces the whole control plane and runs fn: no cross-shard
// migration is in flight (xmu) and every actor is parked at a barrier with
// an empty queue ahead of it. Fabric-wide operations — full audits,
// reconfiguration, reconciliation, SM handover — run here. Operations
// admitted during the freeze wait in their shard queues, exactly like
// commands queued behind a slow command in single-actor mode.
func (co *Coordinator) Freeze(fn func()) error {
	start := time.Now()
	defer func() {
		co.C.SM.Telemetry().Registry().
			WallHistogram("shard.freeze_wall_us", nil).
			ObserveDuration(time.Since(start))
	}()
	co.xmu.Lock()
	defer co.xmu.Unlock()
	arrived := make(chan struct{}, len(co.shards))
	release := make(chan struct{})
	parked := 0
	var failed error
	for _, sh := range co.shards {
		if err := sh.submit(func() {
			arrived <- struct{}{}
			<-release
		}); err != nil {
			failed = err
			break
		}
		parked++
	}
	for i := 0; i < parked; i++ {
		<-arrived
	}
	if failed != nil {
		close(release)
		return failed
	}
	fn()
	close(release)
	return nil
}

// Shutdown stops intake, drains every shard queue and waits for the actors
// to exit (or ctx to expire).
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.xmu.Lock()
	co.life.Lock()
	if !co.closed {
		co.closed = true
		for _, sh := range co.shards {
			close(sh.cmds)
		}
	}
	co.life.Unlock()
	co.xmu.Unlock()
	for _, sh := range co.shards {
		select {
		case <-sh.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
