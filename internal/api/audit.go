package api

import (
	"net/http"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// AuditView adapts the snapshot for the auditor. Everything handed over is
// immutable (the snapshot's tables and LFT clones are never written after
// publication; the LID map is built here), so views may be audited
// concurrently with mutations.
func (sn *Snapshot) AuditView() *audit.View {
	owners := map[ib.LID]topology.NodeID{}
	var lids []ib.LID
	sn.nodeOfLID.each(func(l int, n topology.NodeID) {
		owners[ib.LID(l)] = n
		lids = append(lids, ib.LID(l))
	})
	vms := make([]audit.VMBinding, 0, sn.NumVMs())
	for _, vm := range sn.VMs() {
		vms = append(vms, audit.VMBinding{Name: vm.Name, LID: ib.LID(vm.LID), Hyp: vm.Node})
	}
	return &audit.View{
		Topo:       sn.topo,
		Gen:        sn.Gen,
		LFTOf:      sn.lft,
		NodeOfLID:  owners,
		ActiveLIDs: lids,
		VMs:        vms,
	}
}

// Auditor exposes the server's auditor (for tests and embedding daemons).
func (s *Server) Auditor() *audit.Auditor { return s.aud }

// auditOpScoped runs the op-scoped reachability audit shared by both
// control planes: prove the LID columns a mutation touched still route to
// their owners from the SM's leaf, and that the new binding (if any)
// agrees with the address map. O(touched LIDs x path length), not
// O(fabric) — the per-mutation audit discipline that lets the control
// plane scale (DESIGN.md section 14). The classic single-actor loop
// adopted it from the sharded mode, so the two architectures differ only
// in snapshot-publish and queue structure, not in audit cost; fabric-wide
// invariant passes remain on the audit cadence, the reconciler's waves and
// GET /v1/audit?run=full.
func (s *Server) auditOpScoped(gen uint64, lids []ib.LID, vms []audit.VMBinding) {
	if len(lids) == 0 {
		return
	}
	if smLID := s.c.SM.LIDOf(s.c.SM.SMNode); smLID != ib.LIDUnassigned {
		lids = append(append(make([]ib.LID, 0, len(lids)+1), lids...), smLID)
	}
	v := &audit.View{
		Topo:       s.c.SM.Topo,
		Gen:        gen,
		LFTOf:      s.c.SM.ProgrammedLFT,
		NodeOfLID:  s.c.SM.ResolveLIDs(lids),
		ActiveLIDs: lids,
		VMs:        vms,
	}
	if rep := s.aud.Run(v, audit.ScopeReach); rep.Total > 0 {
		s.log.Warn("audit violations after mutation",
			"generation", rep.Gen, "violations", rep.Total, "by_kind", rep.ByKind)
	}
}

// auditAfterMutation runs the fast invariant families against the snapshot
// the loop just published. It runs on the actor goroutine — before the
// client gets its reply — so a response to a corrupting mutation is always
// preceded by the violation being counted and flight-recorded. Fabric-wide
// commands (reconfigure, reconcile) and the reconciler's waves use it; VM
// lifecycle mutations audit op-scoped instead (auditOpScoped). It returns
// the violation count so multi-step operations (the reconciler's waves) can
// gate each step on a clean fabric.
func (s *Server) auditAfterMutation(sn *Snapshot) int {
	rep := s.aud.Run(sn.AuditView(), audit.ScopeFast)
	if rep.Total > 0 {
		s.log.Warn("audit violations after mutation",
			"generation", rep.Gen, "violations", rep.Total, "by_kind", rep.ByKind)
	}
	return rep.Total
}

// auditLoop is the cadence goroutine: a full-scope audit (reachability +
// hygiene + installed-routing CDG) of whatever snapshot is current, every
// interval, until Shutdown.
func (s *Server) auditLoop(interval time.Duration) {
	defer close(s.auditDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.auditStop:
			return
		case <-tick.C:
			if s.co != nil {
				// Sharded: a consistent fabric-wide view only exists with
				// the shards quiesced; freeze, compose, audit.
				s.frozenFullAudit()
				continue
			}
			rep := s.aud.Run(s.snap.Load().AuditView(), audit.ScopeFull)
			if rep.Total > 0 {
				s.log.Warn("cadence audit violations",
					"generation", rep.Gen, "violations", rep.Total, "by_kind", rep.ByKind)
			}
		}
	}
}

// handleAudit answers GET /v1/audit: cumulative audit counters plus the
// most recent report. ?run=full first runs a synchronous full-scope audit
// against the current snapshot — safe from any goroutine, and what the CI
// smoke test calls after its load run.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("run") == "full" {
		if s.co != nil {
			s.frozenFullAudit()
		} else {
			s.aud.Run(s.snap.Load().AuditView(), audit.ScopeFull)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"runs":             s.aud.Runs(),
		"violations_total": s.aud.ViolationsTotal(),
		"dumps":            s.rec.Dumps(),
		"last":             s.aud.Last(),
	})
}

// handleFlightRecorder answers GET /v1/flightrecorder: the retained ring
// and the last violation dump (dumps also land on disk when the server was
// configured with a flight directory).
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"dumps":     s.rec.Dumps(),
		"entries":   s.rec.Entries(),
		"last_dump": s.rec.LastDump(),
	})
}
