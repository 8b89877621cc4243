// Package reconcile turns the cloud's imperative migration primitives into
// a declarative placement layer: clients state a *desired placement* — an
// explicit VM→hypervisor map or a goal like drain(host), defrag or spread —
// and the planner diffs it against current state, then compiles an ordered
// sequence of migration waves that reaches it.
//
// The plan minimises reconfiguration cost along the paper's axes: moves are
// ordered leaf-local first (a section VI-D intra-leaf migration touches the
// fewest switches), each wave's LFT edits are merged into one distribution
// (so edits sharing a switch's 64-LID block cost one SMP — section VI-B's
// n' < n effect compounded across moves), and waves are packed as large as
// destination-VF capacity allows, so a whole defragmentation costs a few
// distribution waves instead of one per VM.
//
// Cost prediction runs against a shadow copy of the fabric (LFT overlays +
// LID ownership + VF occupancy), so wave N+1 is planned on the state wave N
// leaves behind, and a dry run reports exactly the SMP counts an apply
// would: the planner replicates the distribution layer's block-run
// coalescing over its predicted per-switch edits.
package reconcile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/topology"
)

// Goal is a declarative placement objective.
type Goal string

const (
	// GoalDefrag consolidates VMs onto the minimal number of hypervisors
	// (the paper's "optimization of fragmented networks", section V-B).
	GoalDefrag Goal = "defrag"
	// GoalSpread levels VM counts across all hypervisors to within one.
	GoalSpread Goal = "spread"
	// GoalDrain empties one hypervisor (Spec.Host), e.g. for maintenance.
	GoalDrain Goal = "drain"
	// GoalPlacement applies an explicit VM→hypervisor map (Spec.Placement).
	GoalPlacement Goal = "placement"
)

// Spec is a desired placement.
type Spec struct {
	Goal Goal
	// Host is the hypervisor to empty under GoalDrain.
	Host topology.NodeID
	// Placement is the explicit map under GoalPlacement. VMs not listed
	// stay where they are.
	Placement map[string]topology.NodeID
}

// ParseGoal parses the goal DSL used on the wire: "defrag", "spread",
// "drain:<node>" (also accepted as "drain(<node>)").
func ParseGoal(s string) (Spec, error) {
	switch {
	case s == string(GoalDefrag):
		return Spec{Goal: GoalDefrag}, nil
	case s == string(GoalSpread):
		return Spec{Goal: GoalSpread}, nil
	case strings.HasPrefix(s, "drain:"), strings.HasPrefix(s, "drain(") && strings.HasSuffix(s, ")"):
		arg := strings.TrimPrefix(s, "drain:")
		arg = strings.TrimSuffix(strings.TrimPrefix(arg, "drain("), ")")
		n, err := strconv.Atoi(arg)
		if err != nil {
			return Spec{}, fmt.Errorf("reconcile: bad drain host %q: %v", arg, err)
		}
		return Spec{Goal: GoalDrain, Host: topology.NodeID(n)}, nil
	default:
		return Spec{}, fmt.Errorf("reconcile: unknown goal %q (want defrag, spread or drain:<node>)", s)
	}
}

// Move is one planned migration, annotated for reporting.
type Move struct {
	VM       string
	From, To topology.NodeID
	// Wave is the index of the distribution wave the move rides.
	Wave int
	// LeafLocal marks moves that stay under one leaf switch — the cheapest
	// reconfigurations (section VI-D); the planner schedules them first.
	LeafLocal bool
}

// StepCost is the predicted cost of one wave, in the same vocabulary as the
// control plane's per-mutation CostReports.
type StepCost struct {
	SwitchesUpdated  int
	LFTSMPs          int
	InvalidationSMPs int
	HostSMPs         int
	Modelled         time.Duration
}

func (c *StepCost) add(o StepCost) {
	c.SwitchesUpdated += o.SwitchesUpdated
	c.LFTSMPs += o.LFTSMPs
	c.InvalidationSMPs += o.InvalidationSMPs
	c.HostSMPs += o.HostSMPs
	c.Modelled += o.Modelled
}

// Plan is a compiled reconciliation: ordered waves plus their predicted
// costs. Converged means the desired placement already holds.
type Plan struct {
	Goal      Goal
	Moves     []Move
	Waves     [][]cloud.Move // execute each with Cloud.MigrateWave, in order
	Predicted []StepCost     // one per wave
	Total     StepCost
	Converged bool
}

// Planner compiles placement specs against a cloud.
type Planner struct {
	C *cloud.Cloud
}

// Plan diffs the spec's desired placement against current state and
// compiles the migration waves. The cloud is not mutated.
func (p *Planner) Plan(spec Spec) (*Plan, error) {
	moves, err := p.desired(spec)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Goal: spec.Goal}
	if len(moves) == 0 {
		plan.Converged = true
		return plan, nil
	}

	// Order: leaf-local moves first, then by VM name — deterministic, and
	// the early waves are the cheap intra-leaf reconfigurations.
	leaf := func(n topology.NodeID) topology.NodeID { return p.C.SM.Topo.LeafSwitchOf(n) }
	ann := make([]Move, 0, len(moves))
	for _, mv := range moves {
		vm := p.C.VM(mv.VM)
		if vm == nil {
			return nil, fmt.Errorf("reconcile: %w %q", cloud.ErrNoVM, mv.VM)
		}
		ann = append(ann, Move{
			VM:        mv.VM,
			From:      vm.Hyp,
			To:        mv.To,
			LeafLocal: leaf(vm.Hyp) == leaf(mv.To),
		})
	}
	sort.Slice(ann, func(i, j int) bool {
		if ann[i].LeafLocal != ann[j].LeafLocal {
			return ann[i].LeafLocal
		}
		return ann[i].VM < ann[j].VM
	})

	// Group into waves with the same admission rule ExecuteMoves uses —
	// a move is admitted once its destination has an unreserved free VF in
	// the *shadow* state, so capacity freed by earlier waves is credited —
	// and predict each wave's cost on the shadow fabric.
	sh := newShadow(p.C)
	pending := ann
	for len(pending) > 0 {
		reserved := map[topology.NodeID]int{}
		var wave []Move
		var rest []Move
		for i, mv := range pending {
			if sh.attached(mv.To)+reserved[mv.To] >= sh.capacity(mv.To) {
				rest = append(rest, mv)
				continue
			}
			reserved[mv.To]++
			wave = append(wave, mv)
			if p.C.RC.Mitigation == core.MitigationInvalidate {
				// Merged multi-move distributions are illegal under the
				// port-255 pre-pass; degrade to single-move waves.
				rest = append(rest, pending[i+1:]...)
				break
			}
		}
		if len(wave) == 0 {
			return nil, fmt.Errorf("reconcile: placement infeasible: no pending destination has a %w (%d moves stuck)", cloud.ErrNoFreeVF, len(pending))
		}
		cm := make([]cloud.Move, len(wave))
		for i, mv := range wave {
			cm[i] = cloud.Move{VM: mv.VM, To: mv.To}
		}
		cost, err := p.simulateWave(sh, cm)
		if err != nil {
			return nil, err
		}
		for i := range wave {
			wave[i].Wave = len(plan.Waves)
		}
		plan.Moves = append(plan.Moves, wave...)
		plan.Waves = append(plan.Waves, cm)
		plan.Predicted = append(plan.Predicted, cost)
		plan.Total.add(cost)
		pending = rest
	}
	return plan, nil
}

// desired computes the move list that realises the spec.
func (p *Planner) desired(spec Spec) ([]cloud.Move, error) {
	switch spec.Goal {
	case GoalDefrag:
		return p.C.DefragPlan(), nil
	case GoalDrain:
		return p.drainMoves(spec.Host)
	case GoalSpread:
		return p.spreadMoves(), nil
	case GoalPlacement:
		return p.placementMoves(spec.Placement)
	default:
		return nil, fmt.Errorf("reconcile: unknown goal %q", spec.Goal)
	}
}

// drainMoves empties one hypervisor, packing its VMs onto the remaining
// hosts: same-leaf receivers first, then the most loaded host with space.
func (p *Planner) drainMoves(host topology.NodeID) ([]cloud.Move, error) {
	if p.C.Hypervisor(host) == nil {
		return nil, fmt.Errorf("reconcile: drain target %d %w", host, cloud.ErrNotHypervisor)
	}
	hostLeaf := p.C.SM.Topo.LeafSwitchOf(host)
	load := map[topology.NodeID]int{}
	free := map[topology.NodeID]int{}
	for _, hn := range p.C.Hypervisors() {
		h := p.C.Hypervisor(hn)
		load[hn] = len(h.HCA.AttachedVFs())
		free[hn] = h.HCA.NumVFs() - load[hn]
	}
	var moves []cloud.Move
	for _, name := range p.C.VMs() { // sorted
		vm := p.C.VM(name)
		if vm.Hyp != host {
			continue
		}
		recv := topology.NoNode
		recvLocal := false
		for _, hn := range p.C.Hypervisors() {
			if hn == host || free[hn] <= 0 {
				continue
			}
			local := p.C.SM.Topo.LeafSwitchOf(hn) == hostLeaf
			switch {
			case recv == topology.NoNode,
				local && !recvLocal,
				local == recvLocal && load[hn] > load[recv],
				local == recvLocal && load[hn] == load[recv] && hn < recv:
				recv, recvLocal = hn, local
			}
		}
		if recv == topology.NoNode {
			return nil, fmt.Errorf("reconcile: draining %d is infeasible: no %w for VM %q", host, cloud.ErrNoFreeVF, name)
		}
		moves = append(moves, cloud.Move{VM: name, To: recv})
		free[recv]--
		load[recv]++
	}
	return moves, nil
}

// spreadMoves levels VM counts across hypervisors to within one, moving VMs
// from the most loaded host to the least loaded (same-leaf receivers break
// ties) until balanced.
func (p *Planner) spreadMoves() []cloud.Move {
	load := map[topology.NodeID]int{}
	vmsOn := map[topology.NodeID][]string{}
	for _, hn := range p.C.Hypervisors() {
		load[hn] = 0
	}
	for _, name := range p.C.VMs() { // sorted: deterministic donations
		vm := p.C.VM(name)
		load[vm.Hyp]++
		vmsOn[vm.Hyp] = append(vmsOn[vm.Hyp], name)
	}
	var moves []cloud.Move
	for {
		maxH, minH := topology.NoNode, topology.NoNode
		for _, hn := range p.C.Hypervisors() {
			if maxH == topology.NoNode || load[hn] > load[maxH] {
				maxH = hn
			}
			if minH == topology.NoNode || load[hn] < load[minH] {
				minH = hn
			}
		}
		if maxH == topology.NoNode || load[maxH]-load[minH] <= 1 {
			return moves
		}
		// Prefer a same-leaf receiver among the minimally loaded hosts.
		donorLeaf := p.C.SM.Topo.LeafSwitchOf(maxH)
		for _, hn := range p.C.Hypervisors() {
			if load[hn] == load[minH] && p.C.SM.Topo.LeafSwitchOf(hn) == donorLeaf && hn != maxH {
				minH = hn
				break
			}
		}
		names := vmsOn[maxH]
		name := names[len(names)-1]
		vmsOn[maxH] = names[:len(names)-1]
		vmsOn[minH] = append(vmsOn[minH], name)
		moves = append(moves, cloud.Move{VM: name, To: minH})
		load[maxH]--
		load[minH]++
	}
}

// placementMoves validates an explicit map and returns the diff against
// current placement.
func (p *Planner) placementMoves(want map[string]topology.NodeID) ([]cloud.Move, error) {
	if len(want) == 0 {
		return nil, fmt.Errorf("reconcile: empty placement map")
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)

	// Final feasibility: every host's end load must fit its VF count.
	final := map[topology.NodeID]int{}
	for _, hn := range p.C.Hypervisors() {
		final[hn] = p.C.VMCountOn(hn)
	}
	var moves []cloud.Move
	for _, name := range names {
		vm := p.C.VM(name)
		if vm == nil {
			return nil, fmt.Errorf("reconcile: %w %q", cloud.ErrNoVM, name)
		}
		dst := want[name]
		if p.C.Hypervisor(dst) == nil {
			return nil, fmt.Errorf("reconcile: placement of %q: %d %w", name, dst, cloud.ErrNotHypervisor)
		}
		if dst == vm.Hyp {
			continue
		}
		final[vm.Hyp]--
		final[dst]++
		moves = append(moves, cloud.Move{VM: name, To: dst})
	}
	for _, hn := range p.C.Hypervisors() {
		if cap := p.C.Hypervisor(hn).HCA.NumVFs(); final[hn] > cap {
			return nil, fmt.Errorf("reconcile: placement overfills hypervisor %d (%d VMs, %d VFs)", hn, final[hn], cap)
		}
	}
	return moves, nil
}
