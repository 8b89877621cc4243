package reconcile

import (
	"fmt"
	"sort"

	"ibvsim/internal/cloud"
	"ibvsim/internal/core"
	"ibvsim/internal/ib"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// shadow is a copy-on-write overlay of the fabric state a migration wave
// reads and writes: programmed LFTs, LID ownership, per-hypervisor VF
// occupancy and per-VM placement. It satisfies core.PlanView, so wave N+1's
// plans are computed on the exact state wave N's merged distribution will
// leave behind — the prediction a dry run reports is byte-for-byte the cost
// an apply pays.
type shadow struct {
	c     *cloud.Cloud
	lfts  map[topology.NodeID]*ib.LFT    // written switches only
	owner map[ib.LID]topology.NodeID     // rebound LIDs only
	vfs   map[topology.NodeID][]vfShadow // every hypervisor
	vm    map[string]*vmShadow           // every VM
}

type vfShadow struct {
	lid      ib.LID
	attached bool
}

type vmShadow struct {
	hyp topology.NodeID
	vf  int
	lid ib.LID
}

func newShadow(c *cloud.Cloud) *shadow {
	sh := &shadow{
		c:     c,
		lfts:  map[topology.NodeID]*ib.LFT{},
		owner: map[ib.LID]topology.NodeID{},
		vfs:   map[topology.NodeID][]vfShadow{},
		vm:    map[string]*vmShadow{},
	}
	for _, hn := range c.Hypervisors() {
		h := c.Hypervisor(hn)
		list := make([]vfShadow, len(h.HCA.VFs))
		for i := range h.HCA.VFs {
			list[i] = vfShadow{h.HCA.VFs[i].LID, h.HCA.VFs[i].Attached}
		}
		sh.vfs[hn] = list
	}
	for _, name := range c.VMs() {
		v := c.VM(name)
		sh.vm[name] = &vmShadow{v.Hyp, v.VF, v.Addr.LID}
	}
	return sh
}

// ProgrammedLFT implements core.PlanView.
func (s *shadow) ProgrammedLFT(sw topology.NodeID) *ib.LFT {
	if l := s.lfts[sw]; l != nil {
		return l
	}
	return s.c.SM.ProgrammedLFT(sw)
}

// NodeOfLID implements core.PlanView.
func (s *shadow) NodeOfLID(l ib.LID) topology.NodeID {
	if n, ok := s.owner[l]; ok {
		return n
	}
	return s.c.SM.NodeOfLID(l)
}

// writableLFT returns the switch's overlay table, cloning the live one on
// first write.
func (s *shadow) writableLFT(sw topology.NodeID) *ib.LFT {
	if l := s.lfts[sw]; l != nil {
		return l
	}
	base := s.c.SM.ProgrammedLFT(sw)
	if base == nil {
		return nil
	}
	cl := base.Clone()
	s.lfts[sw] = cl
	return cl
}

func (s *shadow) attached(hn topology.NodeID) int {
	n := 0
	for _, vf := range s.vfs[hn] {
		if vf.attached {
			n++
		}
	}
	return n
}

func (s *shadow) capacity(hn topology.NodeID) int { return len(s.vfs[hn]) }

// countRuns replicates the distribution engine's SMP packing: ascending
// dirty blocks, adjacent blocks share one SMP up to max per run (max < 1
// means one block per SMP — the engine default).
func countRuns(blocks []int, max int) int {
	if max < 1 {
		max = 1
	}
	runs, runLen, prev := 0, 0, -2
	for _, b := range blocks {
		if runs > 0 && b == prev+1 && runLen < max {
			runLen++
			prev = b
			continue
		}
		runs++
		runLen = 1
		prev = b
	}
	return runs
}

// simulateWave plans every move of the wave against the shadow state,
// merges the plans, predicts the merged distribution's cost exactly as
// ApplyEdits+SetLFTEntries would account it, and then applies the wave's
// effects to the shadow: LFT edits, LID rebinds, VF detach/attach.
func (p *Planner) simulateWave(sh *shadow, wave []cloud.Move) (StepCost, error) {
	rc := p.C.RC
	type planned struct {
		mv   cloud.Move
		st   *vmShadow
		vf   int
		plan *core.MigrationPlan
	}
	reserved := map[topology.NodeID]map[int]bool{}
	var pms []planned
	var plans []*core.MigrationPlan
	for _, mv := range wave {
		st := sh.vm[mv.VM]
		if st == nil {
			return StepCost{}, fmt.Errorf("reconcile: %w %q", cloud.ErrNoVM, mv.VM)
		}
		if reserved[mv.To] == nil {
			reserved[mv.To] = map[int]bool{}
		}
		dstVF := -1
		for i, vf := range sh.vfs[mv.To] {
			if !vf.attached && !reserved[mv.To][i] {
				dstVF = i
				break
			}
		}
		if dstVF < 0 {
			return StepCost{}, fmt.Errorf("reconcile: destination %d has no %w for %q", mv.To, cloud.ErrNoFreeVF, mv.VM)
		}
		reserved[mv.To][dstVF] = true
		var plan *core.MigrationPlan
		var err error
		switch p.C.Model {
		case sriov.VSwitchPrepopulated:
			plan, err = rc.PlanSwapOn(sh, st.lid, sh.vfs[mv.To][dstVF].lid)
		case sriov.VSwitchDynamic:
			plan, err = rc.PlanCopyOn(sh, st.lid, p.C.SM.LIDOf(mv.To))
		case sriov.SharedPort:
			// no LFT updates
		default:
			err = fmt.Errorf("reconcile: unknown SR-IOV model %v", p.C.Model)
		}
		if err != nil {
			return StepCost{}, err
		}
		if plan != nil {
			plans = append(plans, plan)
		}
		pms = append(pms, planned{mv, st, dstVF, plan})
	}

	cost := StepCost{HostSMPs: 2 * len(wave)}
	if len(plans) > 0 {
		merged, err := core.MergePlans(plans...)
		if err != nil {
			return StepCost{}, err
		}
		maxRun := p.C.SM.Dist.MaxBlocksPerSMP
		for sw, changes := range merged.Updates {
			cost.SwitchesUpdated++
			blockSet := map[int]bool{}
			for l := range changes {
				blockSet[ib.BlockOf(l)] = true
			}
			blocks := make([]int, 0, len(blockSet))
			for b := range blockSet {
				blocks = append(blocks, b)
			}
			sort.Ints(blocks)
			cost.LFTSMPs += countRuns(blocks, maxRun)
			if rc.Mitigation == core.MitigationInvalidate {
				if lft := sh.ProgrammedLFT(sw); lft != nil && lft.Get(merged.VMLID) != ib.DropPort {
					cost.InvalidationSMPs++
				}
			}
		}
		cost.Modelled = p.C.SM.Cost.DistributionTime(cost.LFTSMPs+cost.InvalidationSMPs, rc.Mode)
		if rc.Mitigation == core.MitigationDrain {
			cost.Modelled += rc.DrainTime
		}
		// Commit the merged edits to the shadow LFTs.
		for sw, changes := range merged.Updates {
			lft := sh.writableLFT(sw)
			if lft == nil {
				return StepCost{}, fmt.Errorf("reconcile: switch %d not programmed", sw)
			}
			for l, pt := range changes {
				lft.Set(l, pt)
			}
		}
	}

	// Per-move shadow bookkeeping, mirroring finishWaveMove.
	for _, m := range pms {
		src, dst := m.st.hyp, m.mv.To
		switch p.C.Model {
		case sriov.VSwitchPrepopulated:
			destLID := sh.vfs[dst][m.vf].lid
			sh.owner[m.st.lid] = dst
			sh.owner[destLID] = src
			// The LIDs physically swap between the two VFs.
			sh.vfs[src][m.st.vf] = vfShadow{lid: destLID, attached: false}
			sh.vfs[dst][m.vf] = vfShadow{lid: m.st.lid, attached: true}
		case sriov.VSwitchDynamic:
			sh.owner[m.st.lid] = dst
			sh.vfs[src][m.st.vf] = vfShadow{lid: ib.LIDUnassigned, attached: false}
			sh.vfs[dst][m.vf] = vfShadow{lid: m.st.lid, attached: true}
		case sriov.SharedPort:
			sh.vfs[src][m.st.vf].attached = false
			sh.vfs[dst][m.vf].attached = true
			m.st.lid = p.C.Hypervisor(dst).HCA.PFLID // the VM adopts the PF's LID
		}
		m.st.hyp, m.st.vf = dst, m.vf
	}
	return cost, nil
}
