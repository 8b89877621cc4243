package sm

import (
	"fmt"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/smp"
	"ibvsim/internal/telemetry"
)

// SMState is the subnet-manager role state (a subset of the IBA SM state
// machine).
type SMState uint8

const (
	// SMDiscovering is the initial state before negotiation.
	SMDiscovering SMState = iota
	// SMMaster owns the subnet.
	SMMaster
	// SMStandby monitors the master, ready to take over.
	SMStandby
)

// String implements fmt.Stringer.
func (s SMState) String() string {
	switch s {
	case SMMaster:
		return "master"
	case SMStandby:
		return "standby"
	default:
		return "discovering"
	}
}

// Negotiate performs the SMInfo master election between two subnet
// managers on the same fabric: the higher priority wins, ties break to the
// lower port GUID (IBA 14.4.1). The polls use directed-route SMPs because
// a contender may not have assigned LIDs or programmed LFTs yet — exactly
// why OpenSM's own discovery runs directed. Both SMs must have swept.
// Returns the master.
func Negotiate(a, b *SubnetManager, prioA, prioB uint8) (*SubnetManager, error) {
	if a.Topo != b.Topo {
		return nil, fmt.Errorf("sm: negotiating SMs live on different fabrics")
	}
	if !a.swept || !b.swept {
		return nil, fmt.Errorf("sm: both SMs must sweep before negotiating")
	}
	// Each side polls the other's SMInfo (one directed Get each).
	pa := &smp.SMP{Attr: smp.AttrSMInfo, Path: append([]ib.PortNum(nil), a.dirPath[b.SMNode]...)}
	pb := &smp.SMP{Attr: smp.AttrSMInfo, Path: append([]ib.PortNum(nil), b.dirPath[a.SMNode]...)}
	if got, err := a.Transport.SendDirected(a.SMNode, pa); err != nil || got != b.SMNode {
		return nil, fmt.Errorf("sm: SMInfo poll toward %d failed (%v)", b.SMNode, err)
	}
	if got, err := b.Transport.SendDirected(b.SMNode, pb); err != nil || got != a.SMNode {
		return nil, fmt.Errorf("sm: SMInfo poll toward %d failed (%v)", a.SMNode, err)
	}
	master, standby := a, b
	switch {
	case prioA > prioB:
	case prioB > prioA:
		master, standby = b, a
	case a.Topo.Node(a.SMNode).GUID <= b.Topo.Node(b.SMNode).GUID:
	default:
		master, standby = b, a
	}
	master.state = SMMaster
	standby.state = SMStandby
	master.log.Addf(EvNote, "SMInfo negotiation: master (peer on node %d standby)", standby.SMNode)
	standby.log.Addf(EvNote, "SMInfo negotiation: standby (master on node %d)", master.SMNode)
	return master, nil
}

// State returns the SM's negotiated role.
func (s *SubnetManager) State() SMState { return s.state }

// AdoptStats reports the cost of a standby taking over a running subnet.
type AdoptStats struct {
	PortInfoReads int
	LFTBlockReads int
	// DistributionSMPs is how many Set SMPs reconciliation needed after
	// adoption — zero when the routing engines agree, which is why
	// deterministic engines make failover cheap.
	DistributionSMPs int
	Duration         time.Duration
}

// AdoptFabricState promotes a standby to master of a live subnet: it reads
// every node's PortInfo (learning the LID assignments the failed master
// made) and every switch's populated LFT blocks (one Get SMP per block),
// then recomputes routes and reconciles with a diff distribution. With a
// deterministic routing engine the reconciliation sends zero SMPs — the
// takeover never disturbs traffic.
func (s *SubnetManager) AdoptFabricState(prev *SubnetManager) (AdoptStats, error) {
	start := time.Now()
	var st AdoptStats
	if prev.Topo != s.Topo {
		return st, fmt.Errorf("sm: cannot adopt state from a different fabric")
	}
	tr := s.tel.Tracer()
	span := tr.Start(telemetry.SpanHandover, "adopt")
	tr.PushScope(span)
	defer func() {
		tr.PopScope()
		span.SetAttr("portinfo_reads", st.PortInfoReads)
		span.SetAttr("lft_block_reads", st.LFTBlockReads)
		span.SetAttr("reconciliation_smps", st.DistributionSMPs)
		span.SetModelled(s.Cost.SMPTime(smp.DirectedRoute) *
			time.Duration(st.PortInfoReads+st.LFTBlockReads))
		span.EndWithWall(st.Duration)
	}()
	s.tel.Registry().Counter("sm.handovers").Inc()
	if _, err := s.Sweep(); err != nil {
		return st, err
	}
	// Learn LID assignments: one PortInfo Get per node.
	for node, lid := range prev.lidOf {
		p := &smp.SMP{Attr: smp.AttrPortInfo, Path: append([]ib.PortNum(nil), s.dirPath[node]...)}
		if _, err := s.Transport.SendDirected(s.SMNode, p); err != nil {
			return st, err
		}
		st.PortInfoReads++
		s.lidOf[node] = lid
		if err := s.pool.Reserve(lid); err != nil {
			return st, fmt.Errorf("sm: adopting LID %d: %w", lid, err)
		}
		s.addrMu.Lock()
		s.nodeOf[lid] = node
		s.markAddrLocked(lid)
		s.addrMu.Unlock()
	}
	// Extra LIDs (VM/VF LIDs) are management state replicated out of band
	// (the OpenStack database in the paper's emulation).
	for lid, node := range prev.extra {
		if err := s.ReserveExtraLID(lid, node); err != nil {
			return st, err
		}
	}
	// Read back every switch's programmed LFT, one Get per populated block.
	for _, sw := range s.Topo.Switches() {
		lft := prev.programmedActive(sw)
		if lft == nil {
			continue
		}
		top := lft.TopPopulatedBlock()
		for b := 0; b <= top; b++ {
			p := &smp.SMP{Attr: smp.AttrLinearFwdTbl, AttrMod: uint32(b),
				Path: append([]ib.PortNum(nil), s.dirPath[sw]...)}
			if _, err := s.Transport.SendDirected(s.SMNode, p); err != nil {
				return st, err
			}
			st.LFTBlockReads++
		}
		adopted := lft.Clone()
		adopted.ClearDirty()
		s.commitProgrammed(sw, adopted)
	}
	// Recompute and reconcile.
	if _, err := s.ComputeRoutes(); err != nil {
		return st, err
	}
	ds, err := s.DistributeDiff()
	if err != nil {
		return st, err
	}
	st.DistributionSMPs = ds.SMPs
	st.Duration = time.Since(start)
	s.state = SMMaster
	s.log.Addf(EvNote, "adopted fabric state: %d PortInfo reads, %d LFT block reads, %d reconciliation SMPs",
		st.PortInfoReads, st.LFTBlockReads, st.DistributionSMPs)
	return st, nil
}
