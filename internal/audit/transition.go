package audit

import (
	"fmt"
	"time"

	"ibvsim/internal/cdg"
	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// mapRoutes adapts a plain LFT map to cdg.TableRoutes so the transition
// check can read the old and new routing functions independently of the
// subnet manager's live resolver (which always answers from programmed).
type mapRoutes struct {
	lfts   map[topology.NodeID]*ib.LFT
	nodeOf func(ib.LID) topology.NodeID
}

func (m mapRoutes) SwitchLFT(sw topology.NodeID) *ib.LFT { return m.lfts[sw] }

func (m mapRoutes) SwitchRoute(sw topology.NodeID, dlid ib.LID) ib.PortNum {
	lft := m.lfts[sw]
	if lft == nil {
		return ib.DropPort
	}
	return lft.Get(dlid)
}

func (m mapRoutes) NodeOf(l ib.LID) topology.NodeID { return m.nodeOf(l) }

// CheckTransition proves invariant family (c) for an in-flight LFT
// distribution: while switches are being reprogrammed the fabric holds an
// arbitrary mixture of the old routing function (the programmed tables) and
// the new one (the targets), so the union CDG Rold ∪ Rnew — not either CDG
// alone — must be acyclic (the paper's section VI-C transient hazard).
//
// The subnet manager calls this through its OnDistribute hook at the moment
// a distribution fans out, i.e. exactly when the mixture becomes possible.
// A cycle is counted as a transient_cdg violation and triggers a flight
// dump; distribution itself is not blocked (the monitor observes, the
// mitigation policy in core decides).
//
// Like checkInstalledCDG, the analysis covers CA-owned destinations only:
// switch-destined traffic is VL15 management, outside data-VL deadlock.
func (a *Auditor) CheckTransition(t *topology.Topology, old, target map[topology.NodeID]*ib.LFT,
	nodeOf func(ib.LID) topology.NodeID, dlids []ib.LID) *Report {
	start := time.Now()
	span := a.tr.Start(telemetry.SpanAudit, "transition")
	var c collector
	c.max = a.cfg.MaxViolations

	dlids = dataLIDs(t, dlids, nodeOf)
	// This check runs on every distribution fan-out, so it builds the union
	// in one pass on dense switch channels (cycle verdicts are identical:
	// CA injection channels are sources). Each edge is tagged with the
	// side(s) that induce it, which gives the per-side edge counts and
	// cycle verdicts without building either graph on its own.
	g := cdg.BuildSwitchUnion(t, mapRoutes{old, nodeOf}, mapRoutes{target, nodeOf}, dlids)
	span.SetAttr("old_edges", g.SideEdges(cdg.SideOld))
	span.SetAttr("new_edges", g.SideEdges(cdg.SideNew))
	span.SetAttr("union_edges", g.NumEdges())

	if cyc := g.FindCycle(); cyc != nil {
		oldCyclic := g.HasCycleOn(cdg.SideOld)
		newCyclic := g.HasCycleOn(cdg.SideNew)
		c.add(Violation{
			Kind: KindTransientCDG,
			Detail: fmt.Sprintf(
				"union CDG of in-flight distribution has a cycle (old cyclic=%v, new cyclic=%v): %s",
				oldCyclic, newCyclic, cycleString(cyc)),
		})
	}

	rep := &Report{
		Scope:           "transition",
		LIDsChecked:     len(dlids),
		SwitchesChecked: len(t.Switches()),
		Total:           c.total,
		ByKind:          c.byKind,
		Violations:      c.kept,
		Truncated:       c.total > len(c.kept),
		WallUS:          time.Since(start).Microseconds(),
	}
	span.SetAttr("generation", int64(rep.Gen))
	span.SetAttr("lids", rep.LIDsChecked)
	span.SetAttr("violations", rep.Total)
	span.End()
	a.finish(rep)
	return rep
}
