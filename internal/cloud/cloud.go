// Package cloud is the orchestration layer of the reproduction: the
// OpenStack-analogue of the paper's testbed (section VII). It owns
// hypervisors with SR-IOV HCAs, schedules VMs onto VFs, and drives the
// four-step live-migration workflow of section VII-B:
//
//  1. the SR-IOV VF is detached from the VM and the live migration starts,
//  2. the orchestrator signals the SM with the VM and destination,
//  3. the SM reconfigures the fabric (LID swap or copy, vGUID transfer),
//  4. the VF holding the VM's addresses is attached at the destination.
//
// All three SR-IOV models are supported so the experiments can contrast
// them: Shared Port migrations change the VM's LID (staling peer caches),
// vSwitch migrations carry the full address set.
package cloud

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sa"
	"ibvsim/internal/sm"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Hypervisor is one compute node.
type Hypervisor struct {
	Node topology.NodeID
	HCA  *sriov.HCA
}

// VM is a scheduled virtual machine.
type VM struct {
	Name string
	Hyp  topology.NodeID
	VF   int
	Addr sriov.Addresses
}

// Config parameterises a cloud.
type Config struct {
	Model            sriov.Model
	VFsPerHypervisor int
	Engine           routing.Engine
	Scheduler        Scheduler
	// Telemetry, when non-nil, replaces the SM's private hub so the caller
	// can export the metrics registry and reconfiguration trace (or share
	// one hub across clouds).
	Telemetry *telemetry.Hub
	// RouteWorkers pins the routing worker-pool size (0 = one per CPU).
	// Experiments that golden-test trace output set 1 for reproducibility.
	RouteWorkers int
}

// Cloud is the orchestrator.
type Cloud struct {
	SM    *sm.SubnetManager
	RC    *core.Reconfigurator
	SA    *sa.Service
	Model sriov.Model

	hyps     map[topology.NodeID]*Hypervisor
	hypOrder []topology.NodeID
	sched    Scheduler
	nextGUID uint64 // atomically bumped: shard actors create VMs concurrently

	// mu guards the vms registry map. VM *contents* are owned by whoever
	// owns the VM's zone (in sharded mode: its shard actor, or, mid
	// cross-shard migration, the coordinator holding the VM busy); the
	// single-actor control plane owns everything.
	mu  sync.RWMutex
	vms map[string]*VM
}

// allocGUID returns a fresh subnet-unique vGUID for a VM. Unlike per-VF
// default GUIDs, per-VM GUIDs stay unique when VMs migrate away and new
// VMs reuse the freed VF.
func (c *Cloud) allocGUID() ib.GUID {
	return ib.GUID(atomic.AddUint64(&c.nextGUID, 1))
}

// BootstrapReport carries the subnet bring-up statistics.
type BootstrapReport struct {
	Sweep        sm.SweepStats
	Routing      routing.Stats
	Distribution sm.DistributionStats
	// PrepopulatedLIDs is how many VF LIDs were reserved up front (only
	// for the prepopulated model).
	PrepopulatedLIDs int
}

// New builds a cloud on the topology: the SM runs on smNode, every node in
// hypNodes becomes a hypervisor with cfg.VFsPerHypervisor VFs, and the
// subnet is bootstrapped (for the prepopulated model the VF LIDs are
// reserved before path computation, so the initial routing covers them —
// the section V-A cost).
func New(topo *topology.Topology, smNode topology.NodeID, hypNodes []topology.NodeID, cfg Config) (*Cloud, BootstrapReport, error) {
	var rep BootstrapReport
	if cfg.VFsPerHypervisor < 1 {
		return nil, rep, fmt.Errorf("cloud: need >= 1 VF per hypervisor")
	}
	if cfg.Engine == nil {
		cfg.Engine = routing.NewMinHop()
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = FirstFit{}
	}
	mgr, err := sm.New(topo, smNode, cfg.Engine)
	if err != nil {
		return nil, rep, err
	}
	if cfg.Telemetry != nil {
		mgr.SetTelemetry(cfg.Telemetry)
	}
	mgr.RouteWorkers = cfg.RouteWorkers
	c := &Cloud{
		SM:       mgr,
		RC:       core.NewReconfigurator(mgr),
		SA:       sa.NewService(),
		Model:    cfg.Model,
		hyps:     map[topology.NodeID]*Hypervisor{},
		vms:      map[string]*VM{},
		sched:    cfg.Scheduler,
		nextGUID: 0x9000_0000_0000_0000,
	}

	if rep.Sweep, err = mgr.Sweep(); err != nil {
		return nil, rep, err
	}
	if err := mgr.AssignLIDs(); err != nil {
		return nil, rep, err
	}

	for _, hn := range hypNodes {
		n := topo.Node(hn)
		if n == nil || n.IsSwitch() {
			return nil, rep, fmt.Errorf("cloud: hypervisor %d must be a CA", hn)
		}
		hca, err := sriov.NewHCA(cfg.Model, hn, n.GUID, mgr.LIDOf(hn), cfg.VFsPerHypervisor)
		if err != nil {
			return nil, rep, err
		}
		c.hyps[hn] = &Hypervisor{Node: hn, HCA: hca}
		c.hypOrder = append(c.hypOrder, hn)
	}
	sort.Slice(c.hypOrder, func(i, j int) bool { return c.hypOrder[i] < c.hypOrder[j] })

	if cfg.Model == sriov.VSwitchPrepopulated {
		// Reserve one LID per VF before computing paths.
		for _, hn := range c.hypOrder {
			h := c.hyps[hn]
			for vf := 0; vf < h.HCA.NumVFs(); vf++ {
				lid, err := mgr.AllocExtraLID(hn)
				if err != nil {
					return nil, rep, fmt.Errorf("cloud: prepopulating VF LIDs: %w", err)
				}
				if err := h.HCA.SetVFLID(vf, lid); err != nil {
					return nil, rep, err
				}
				rep.PrepopulatedLIDs++
			}
		}
	}

	rs, err := mgr.ComputeRoutes()
	if err != nil {
		return nil, rep, err
	}
	rep.Routing = rs
	if rep.Distribution, err = mgr.DistributeDiff(); err != nil {
		return nil, rep, err
	}
	return c, rep, nil
}

// Hypervisors returns the hypervisor nodes in ascending order.
func (c *Cloud) Hypervisors() []topology.NodeID { return c.hypOrder }

// Hypervisor returns one hypervisor (nil if unknown).
func (c *Cloud) Hypervisor(n topology.NodeID) *Hypervisor { return c.hyps[n] }

// VMs returns the VM names in lexical order.
func (c *Cloud) VMs() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.vms))
	for n := range c.vms {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// VM returns a VM by name (nil if unknown).
func (c *Cloud) VM(name string) *VM {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.vms[name]
}

// VMCountOn returns the number of VMs on a hypervisor.
func (c *Cloud) VMCountOn(n topology.NodeID) int {
	h := c.hyps[n]
	if h == nil {
		return 0
	}
	return len(h.HCA.AttachedVFs())
}

// CreateVM schedules a VM through the configured scheduler.
func (c *Cloud) CreateVM(name string) (*VM, error) {
	hyp, err := c.sched.Place(c)
	if err != nil {
		return nil, err
	}
	return c.CreateVMOn(name, hyp)
}

// CreateVMOn places a VM on a specific hypervisor.
func (c *Cloud) CreateVMOn(name string, hyp topology.NodeID) (*VM, error) {
	vm, _, err := c.CreateVMOnVF(name, hyp, -1)
	return vm, err
}

// CreateVMOnVF places a VM on a specific hypervisor and VF (vf < 0 picks
// the first free one), returning the LFT-boot cost (non-zero only under
// dynamic LID assignment). Sharded control planes pass an explicit VF so
// the shard's reservation ledger — not FreeVF — decides placement.
func (c *Cloud) CreateVMOnVF(name string, hyp topology.NodeID, vf int) (*VM, core.BootStats, error) {
	return c.CreateVMOnVFShard(name, hyp, vf, ib.ShardNone)
}

// CreateVMOnVFShard is CreateVMOnVF with the calling shard recorded in the
// provenance stamp of every LFT write the boot performs (ib.ShardNone for
// the single-actor control plane).
func (c *Cloud) CreateVMOnVFShard(name string, hyp topology.NodeID, vf int, shard int) (*VM, core.BootStats, error) {
	var boot core.BootStats
	c.mu.RLock()
	_, exists := c.vms[name]
	c.mu.RUnlock()
	if exists {
		return nil, boot, fmt.Errorf("cloud: VM %q %w", name, ErrExists)
	}
	h := c.hyps[hyp]
	if h == nil {
		return nil, boot, fmt.Errorf("cloud: node %d %w", hyp, ErrNotHypervisor)
	}
	if vf < 0 {
		vf = h.HCA.FreeVF()
	}
	if vf < 0 {
		return nil, boot, fmt.Errorf("cloud: hypervisor %d has no %w", hyp, ErrNoFreeVF)
	}
	if c.Model == sriov.VSwitchDynamic {
		var err error
		prov := &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Engine:   "boot",
			Reason:   "create_vm " + name,
			Shard:    shard,
		}
		if boot, err = c.RC.BootVMLIDProv(hyp, prov); err != nil {
			return nil, boot, err
		}
		if err := h.HCA.SetVFLID(vf, boot.LID); err != nil {
			return nil, boot, err
		}
	}
	if err := h.HCA.SetVFGUID(vf, c.allocGUID()); err != nil {
		return nil, boot, err
	}
	if err := h.HCA.Attach(vf); err != nil {
		return nil, boot, err
	}
	addr, err := h.HCA.VFAddresses(vf)
	if err != nil {
		return nil, boot, err
	}
	vm := &VM{Name: name, Hyp: hyp, VF: vf, Addr: addr}
	c.mu.Lock()
	c.vms[name] = vm
	c.mu.Unlock()
	c.SA.Register(addr.GID, sa.PathRecord{DLID: addr.LID})
	c.SM.Log().Addf(sm.EvVM, "created VM %q on node %d VF %d (LID %d)", name, hyp, vf, addr.LID)
	return vm, boot, nil
}

// DestroyVM removes a VM, releasing its VF (and, under dynamic assignment,
// its LID).
func (c *Cloud) DestroyVM(name string) error {
	_, err := c.DestroyVMStats(name)
	return err
}

// DestroyVMStats is DestroyVM returning the LFT-invalidation cost (non-zero
// only under dynamic LID assignment).
func (c *Cloud) DestroyVMStats(name string) (core.BootStats, error) {
	return c.DestroyVMStatsShard(name, ib.ShardNone)
}

// DestroyVMStatsShard is DestroyVMStats with the calling shard recorded in
// the provenance stamp of every invalidated LFT block.
func (c *Cloud) DestroyVMStatsShard(name string, shard int) (core.BootStats, error) {
	var boot core.BootStats
	vm := c.VM(name)
	if vm == nil {
		return boot, fmt.Errorf("cloud: %w %q", ErrNoVM, name)
	}
	h := c.hyps[vm.Hyp]
	if err := h.HCA.Detach(vm.VF); err != nil {
		return boot, err
	}
	if c.Model == sriov.VSwitchDynamic {
		var err error
		prov := &ib.Provenance{
			Mutation: ib.NextMutationID(),
			Engine:   "boot",
			Reason:   "destroy_vm " + name,
			Shard:    shard,
		}
		if boot, err = c.RC.DestroyVMLIDProv(vm.Addr.LID, prov); err != nil {
			return boot, err
		}
		if err := h.HCA.SetVFLID(vm.VF, ib.LIDUnassigned); err != nil {
			return boot, err
		}
	}
	c.SA.Unregister(vm.Addr.GID)
	c.mu.Lock()
	delete(c.vms, name)
	c.mu.Unlock()
	c.SM.Log().Addf(sm.EvVM, "destroyed VM %q", name)
	return boot, nil
}

// MigrationReport describes one live migration.
type MigrationReport struct {
	VM       string
	From, To topology.NodeID
	Plan     core.PlanStats
	HostSMPs int
	// AddressesChanged is true when the VM's LID differs after migration
	// (always the case under Shared Port, never under vSwitch).
	AddressesChanged bool
	// Downtime is the modelled network downtime: the reconfiguration time
	// (the VM memory copy overlaps it and is not modelled here).
	Downtime time.Duration
	// Span is the root migration span's trace ID, so a client can audit the
	// report against the telemetry trace without scanning span windows.
	Span int
}

// MigrateVM performs the four-step workflow of section VII-B.
func (c *Cloud) MigrateVM(name string, dst topology.NodeID) (MigrationReport, error) {
	return c.MigrateVMVF(name, dst, -1)
}

// MigrateVMVF is MigrateVM with an explicit destination VF (dstVF < 0 picks
// the first free one). Shard actors choose the VF themselves so in-flight
// cross-shard reservations on the destination HCA are respected.
func (c *Cloud) MigrateVMVF(name string, dst topology.NodeID, dstVF int) (MigrationReport, error) {
	return c.MigrateVMVFShard(name, dst, dstVF, ib.ShardNone)
}

// MigrateVMVFShard is MigrateVMVF with the calling shard recorded in the
// provenance stamp of every LFT write the reconfiguration performs.
func (c *Cloud) MigrateVMVFShard(name string, dst topology.NodeID, dstVF int, shard int) (MigrationReport, error) {
	var rep MigrationReport
	vm := c.VM(name)
	if vm == nil {
		return rep, fmt.Errorf("cloud: %w %q", ErrNoVM, name)
	}
	dstH := c.hyps[dst]
	if dstH == nil {
		return rep, fmt.Errorf("cloud: destination %d %w", dst, ErrNotHypervisor)
	}
	if dst == vm.Hyp {
		return rep, fmt.Errorf("cloud: VM %q %w %d", name, ErrSameNode, dst)
	}
	srcH := c.hyps[vm.Hyp]
	if dstVF < 0 {
		dstVF = dstH.HCA.FreeVF()
	}
	if dstVF < 0 {
		return rep, fmt.Errorf("cloud: destination %d has no %w", dst, ErrNoFreeVF)
	}
	rep.VM, rep.From, rep.To = name, vm.Hyp, dst

	tr := c.SM.Telemetry().Tracer()
	span := tr.Start(telemetry.SpanMigration, name)
	rep.Span = span.ID()
	tr.PushScope(span)
	defer func() {
		tr.PopScope()
		span.SetAttr("vm", name)
		span.SetAttr("from", int64(rep.From))
		span.SetAttr("to", int64(rep.To))
		span.SetAttr("model", c.Model)
		span.SetAttr("switches", rep.Plan.SwitchesUpdated)
		span.SetAttr("smps", rep.Plan.SMPs)
		span.SetAttr("host_smps", rep.HostSMPs)
		span.SetAttr("addresses_changed", rep.AddressesChanged)
		span.SetModelled(rep.Downtime)
		span.End()
	}()
	c.SM.Telemetry().Registry().Counter("cloud.migrations").Inc()

	// Step 1: detach the VF; the (modelled) memory copy begins.
	if err := srcH.HCA.Detach(vm.VF); err != nil {
		return rep, err
	}
	// Step 2: signal the SM (the OpenStack -> OpenSM side channel).
	c.SM.Log().Addf(sm.EvMigration, "signal: migrate %q from %d to %d", name, vm.Hyp, dst)

	// Step 3: reconfigure the fabric.
	prov := &ib.Provenance{
		Mutation: ib.NextMutationID(),
		Span:     span.ID(),
		Engine:   "migrate",
		Reason:   fmt.Sprintf("migrate_vm %s %d->%d", name, vm.Hyp, dst),
		Shard:    shard,
	}
	switch c.Model {
	case sriov.VSwitchPrepopulated:
		destLID := dstH.HCA.VFs[dstVF].LID
		plan, err := c.RC.PlanSwap(vm.Addr.LID, destLID)
		if err != nil {
			return rep, err
		}
		plan.Prov = prov
		if rep.Plan, err = c.RC.Apply(plan); err != nil {
			return rep, err
		}
		// The LIDs physically swap between the two VFs.
		if err := srcH.HCA.SetVFLID(vm.VF, destLID); err != nil {
			return rep, err
		}
		if err := dstH.HCA.SetVFLID(dstVF, vm.Addr.LID); err != nil {
			return rep, err
		}
	case sriov.VSwitchDynamic:
		plan, err := c.RC.PlanCopy(vm.Addr.LID, c.SM.LIDOf(dst))
		if err != nil {
			return rep, err
		}
		plan.Prov = prov
		if rep.Plan, err = c.RC.Apply(plan); err != nil {
			return rep, err
		}
		if err := srcH.HCA.SetVFLID(vm.VF, ib.LIDUnassigned); err != nil {
			return rep, err
		}
		if err := dstH.HCA.SetVFLID(dstVF, vm.Addr.LID); err != nil {
			return rep, err
		}
	case sriov.SharedPort:
		// No LFT change: the VM adopts the destination PF's LID, breaking
		// its address stability (the architecture's core limitation).
		rep.AddressesChanged = true
	default:
		return rep, fmt.Errorf("cloud: unknown SR-IOV model %v", c.Model)
	}

	// The vGUID travels with the VM in every model.
	hostSMPs, err := c.RC.MigrateAddresses(vm.Hyp, dst, vm.Addr.GUID)
	if err != nil {
		return rep, err
	}
	rep.HostSMPs = hostSMPs
	if err := srcH.HCA.SetVFGUID(vm.VF, srcH.HCA.PFGUID+ib.GUID(vm.VF+1)); err != nil {
		return rep, err
	}
	if err := dstH.HCA.SetVFGUID(dstVF, vm.Addr.GUID); err != nil {
		return rep, err
	}

	// Step 4: attach the VF at the destination.
	if err := dstH.HCA.Attach(dstVF); err != nil {
		return rep, err
	}
	vm.Hyp, vm.VF = dst, dstVF
	newAddr, err := dstH.HCA.VFAddresses(dstVF)
	if err != nil {
		return rep, err
	}
	if newAddr.LID != vm.Addr.LID {
		rep.AddressesChanged = true
		if err := c.SA.Rebind(vm.Addr.GID, newAddr.LID); err != nil {
			return rep, err
		}
	}
	vm.Addr = newAddr
	rep.Downtime = rep.Plan.ModelledTime
	c.SM.Log().Addf(sm.EvMigration, "migrated %q to node %d (LID %d, addresses changed: %v)",
		name, dst, vm.Addr.LID, rep.AddressesChanged)
	return rep, nil
}
