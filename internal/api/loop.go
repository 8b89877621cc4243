package api

import (
	"context"
	"errors"
	"net/http"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// opKind identifies a command for the single-writer loop.
type opKind uint8

const (
	opCreateVM opKind = iota + 1
	opDestroyVM
	opMigrateVM
	opReconfigure
	opReconcile
)

// command is one admitted mutation. The loop executes it, publishes a new
// snapshot, and delivers exactly one cmdReply on the buffered reply channel.
type command struct {
	kind   opKind
	name   string          // VM name (create/destroy/migrate) or goal (reconcile)
	hyp    topology.NodeID // placement (create) or destination (migrate); NoNode = scheduler
	spec   reconcile.Spec  // desired placement (reconcile)
	dryRun bool            // plan only, mutate nothing (reconcile)
	reqID  string          // request ID assigned by the handler chain
	reply  chan cmdReply
}

// opName labels commands for logs and flight-recorder entries.
func (k opKind) opName() string {
	switch k {
	case opCreateVM:
		return "create_vm"
	case opDestroyVM:
		return "destroy_vm"
	case opMigrateVM:
		return "migrate_vm"
	case opReconfigure:
		return "reconfigure"
	case opReconcile:
		return "reconcile"
	}
	return "unknown"
}

type cmdReply struct {
	status int
	body   any
	// auditLIDs are the LID columns the command touched; the loop audits
	// exactly these after the mutation (auditOpScoped) instead of walking
	// the whole fabric. Failed migrations still carry the VM's LID — a
	// half-applied reconfiguration strands precisely that column, and the
	// audit must flag it before the client sees the error.
	auditLIDs []ib.LID
	auditVMs  []audit.VMBinding
	// auditFull asks for the fabric-wide fast pass instead: set by the
	// fabric-wide commands (reconfigure, reconcile), whose touched set is
	// the whole fabric.
	auditFull bool
	// patch names what a VM command touched, for the patched snapshot
	// publish. nil — fabric-wide commands, and VM commands that failed
	// partway — asks for a full rebuild.
	patch *snapPatch
}

// CostReport states what one operation cost the fabric, in the paper's
// vocabulary: n' switches had LFT entries updated with a total of LFTSMPs
// block-write SMPs (section VI's n' x m'), plus per-hypervisor address SMPs.
// SpanSMPs is the number of smp spans the operation emitted into the
// telemetry trace — in fault-free operation it equals LFTSMPs, and
// TraceSpan lets a client verify that against /v1/trace independently.
type CostReport struct {
	SwitchesUpdated  int   `json:"switches_updated"`
	LFTSMPs          int   `json:"lft_smps"`
	InvalidationSMPs int   `json:"invalidation_smps,omitempty"`
	HostSMPs         int   `json:"host_smps,omitempty"`
	SpanSMPs         int   `json:"span_smps"`
	TraceSpan        int   `json:"trace_span,omitempty"`
	ModelledUS       int64 `json:"modelled_us"`
}

// VMResponse answers create and get requests.
type VMResponse struct {
	VMInfo
	Cost CostReport `json:"cost"`
}

// DestroyResponse answers destroy requests.
type DestroyResponse struct {
	Name string     `json:"name"`
	Cost CostReport `json:"cost"`
}

// MigrateResponse answers migrate requests with the section VII-B report.
type MigrateResponse struct {
	Name             string          `json:"name"`
	From             topology.NodeID `json:"from"`
	To               topology.NodeID `json:"to"`
	LID              uint16          `json:"lid"`
	AddressesChanged bool            `json:"addresses_changed"`
	DowntimeUS       int64           `json:"downtime_us"`
	Cost             CostReport      `json:"cost"`
}

// ReconfigureResponse answers reconfiguration requests. With the SM's
// IncrementalRouting enabled, Incremental reports whether the delta path
// applied (paths then counts only the destination trees actually re-run)
// and the distribution is a block diff rather than a full push.
type ReconfigureResponse struct {
	Engine            string `json:"engine"`
	Paths             int    `json:"paths"`
	Incremental       bool   `json:"incremental,omitempty"`
	DestsRecomputed   int    `json:"dests_recomputed,omitempty"`
	SwitchesUpdated   int    `json:"switches_updated"`
	SwitchesCancelled int    `json:"switches_cancelled,omitempty"`
	SMPs              int    `json:"smps"`
	BlocksCoalesced   int    `json:"blocks_coalesced,omitempty"`
	ModelledUS        int64  `json:"modelled_us"`
	Cancelled         bool   `json:"cancelled,omitempty"`
}

// loop is the actor goroutine: the only code that calls into the cloud
// after NewServer returns. Commands are executed strictly in admission
// order; after each one a fresh snapshot is published *before* the reply is
// sent, so a client that saw its response also sees its write in reads.
func (s *Server) loop() {
	defer close(s.loopDone)
	depth := s.reg.Gauge("api.queue_depth")
	exec := s.reg.WallHistogram("api.op_exec_us", nil)
	for cmd := range s.cmds {
		if s.execGate != nil {
			s.execGate <- struct{}{} // announce: about to execute
			<-s.execGate             // wait for release
		}
		depth.Set(int64(len(s.cmds)))
		start := time.Now()
		spanBefore := s.tr.LastSpanID()
		rep := s.execute(cmd)
		exec.ObserveDuration(time.Since(start))
		sn := s.publish(rep.patch)
		// Black box first, then audit, then the reply: if the mutation
		// corrupted the fabric, the violation is counted and the dump
		// already holds this mutation by the time the client hears back.
		s.rec.RecordMutation(audit.Mutation{
			Op: cmd.kind.opName(), Name: cmd.name, RequestID: cmd.reqID,
			Status: rep.status, Gen: sn.Gen,
			SpanFrom: spanBefore + 1, SpanTo: s.tr.LastSpanID(),
		})
		s.log.Info("mutation",
			"op", cmd.kind.opName(), "name", cmd.name, "request_id", cmd.reqID,
			"status", rep.status, "generation", sn.Gen,
			"duration", time.Since(start).Round(time.Microsecond))
		if rep.auditFull {
			s.auditAfterMutation(sn)
		} else {
			s.auditOpScoped(sn.Gen, rep.auditLIDs, rep.auditVMs)
		}
		cmd.reply <- rep
	}
	depth.Set(0)
}

func (s *Server) execute(cmd *command) cmdReply {
	before := s.tr.LastSpanID()
	switch cmd.kind {
	case opCreateVM:
		var err error
		if cmd.hyp == topology.NoNode {
			_, err = s.c.CreateVM(cmd.name)
		} else {
			_, err = s.c.CreateVMOn(cmd.name, cmd.hyp)
		}
		patch := &snapPatch{vms: []string{cmd.name}}
		if err != nil {
			return errReply(err).withPatch(patch)
		}
		vm := s.c.VM(cmd.name)
		hypDesc := ""
		if n := s.c.SM.Topo.Node(vm.Hyp); n != nil {
			hypDesc = n.Desc
		}
		return cmdReply{
			status: http.StatusCreated,
			body: VMResponse{
				VMInfo: VMInfo{
					Name:    vm.Name,
					Node:    vm.Hyp,
					HypDesc: hypDesc,
					VF:      vm.VF,
					LID:     uint16(vm.Addr.LID),
					GUID:    vm.Addr.GUID.String(),
					GID:     vm.Addr.GID.String(),
				},
				Cost: s.costFromWindow(before),
			},
			auditLIDs: []ib.LID{vm.Addr.LID},
			auditVMs:  []audit.VMBinding{{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp}},
			patch:     patch,
		}

	case opDestroyVM:
		var freedLID ib.LID
		patch := &snapPatch{vms: []string{cmd.name}}
		if vm := s.c.VM(cmd.name); vm != nil {
			freedLID = vm.Addr.LID
			patch.hyps = []topology.NodeID{vm.Hyp}
		}
		if err := s.c.DestroyVM(cmd.name); err != nil {
			return errReply(err).withPatch(patch)
		}
		r := cmdReply{status: http.StatusOK, body: DestroyResponse{
			Name: cmd.name,
			Cost: s.costFromWindow(before),
		}, patch: patch}
		// Under prepopulated LIDs the VF keeps its LID after teardown, so
		// the freed column is still auditable; under dynamic assignment the
		// LID is gone and there is no column left to check.
		if s.c.Model == sriov.VSwitchPrepopulated && freedLID != ib.LIDUnassigned {
			r.auditLIDs = []ib.LID{freedLID}
		}
		return r

	case opMigrateVM:
		var vmLID ib.LID
		srcHyp := topology.NoNode
		srcVF := -1
		if vm := s.c.VM(cmd.name); vm != nil {
			vmLID, srcHyp, srcVF = vm.Addr.LID, vm.Hyp, vm.VF
		}
		patch := &snapPatch{vms: []string{cmd.name}, hyps: []topology.NodeID{srcHyp}}
		rep, err := s.c.MigrateVM(cmd.name, cmd.hyp)
		if err != nil {
			r := errReply(err).withPatch(patch)
			// A failed migration may have half-applied its plan (e.g. the
			// invalidation pre-pass landed and the updates died), stranding
			// exactly the VM's column — audit it before the client hears.
			if vmLID != ib.LIDUnassigned {
				r.auditLIDs = []ib.LID{vmLID}
			}
			return r
		}
		cost := s.costFromWindow(before)
		// The migration report is authoritative; the span window fills in
		// the cross-reference (root span ID, observed smp span count).
		cost.SwitchesUpdated = rep.Plan.SwitchesUpdated
		cost.LFTSMPs = rep.Plan.SMPs
		cost.InvalidationSMPs = rep.Plan.InvalidationSMPs
		cost.HostSMPs = rep.HostSMPs
		cost.ModelledUS = rep.Plan.ModelledTime.Microseconds()
		vm := s.c.VM(cmd.name)
		lids := []ib.LID{vm.Addr.LID}
		// Under the prepopulated swap the source VF now holds the partner
		// column of the exchange — both changed, audit both.
		if s.c.Model == sriov.VSwitchPrepopulated && srcVF >= 0 {
			if h := s.c.Hypervisor(srcHyp); h != nil && srcVF < len(h.HCA.VFs) {
				lids = append(lids, h.HCA.VFs[srcVF].LID)
			}
		}
		return cmdReply{
			status: http.StatusOK,
			body: MigrateResponse{
				Name:             cmd.name,
				From:             rep.From,
				To:               rep.To,
				LID:              uint16(vm.Addr.LID),
				AddressesChanged: rep.AddressesChanged,
				DowntimeUS:       rep.Downtime.Microseconds(),
				Cost:             cost,
			},
			auditLIDs: lids,
			auditVMs:  []audit.VMBinding{{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp}},
			patch:     patch,
		}

	case opReconfigure:
		rs, ds, err := s.c.SM.ReconfigureCtx(s.opCtx)
		resp := ReconfigureResponse{
			Engine:            s.c.SM.Engine.Name(),
			Paths:             rs.PathsComputed,
			Incremental:       rs.Incremental.Applied,
			SwitchesUpdated:   ds.SwitchesUpdated,
			SwitchesCancelled: ds.SwitchesCancelled,
			SMPs:              ds.SMPs,
			BlocksCoalesced:   ds.BlocksCoalesced,
			ModelledUS:        ds.ModelledTime.Microseconds(),
		}
		if rs.Incremental.Applied {
			resp.DestsRecomputed = rs.Incremental.DestsRecomputed
		}
		if errors.Is(err, context.Canceled) {
			resp.Cancelled = true
			return cmdReply{status: http.StatusServiceUnavailable, body: resp, auditFull: true}
		}
		if err != nil {
			r := errReply(err)
			r.auditFull = true
			return r
		}
		return cmdReply{status: http.StatusOK, body: resp, auditFull: true}

	case opReconcile:
		r := s.execReconcile(cmd)
		r.auditFull = true
		return r
	}
	return cmdReply{status: http.StatusInternalServerError, body: map[string]string{"error": "unknown command"}}
}

// costFromWindow derives a cost report from the spans the operation just
// emitted (span IDs are allocated in order and the loop is the only span
// producer, so (before, LastSpanID] is exactly this operation's window).
// For operations without an orchestrator-level report — VM boot and
// teardown under dynamic LID assignment — the smp spans are the record.
// The read costs O(window): the tracer locates the window by ID and no
// attribute map is built.
func (s *Server) costFromWindow(before int) CostReport {
	var c CostReport
	switches := map[string]struct{}{}
	s.tr.Range(before, func(sp telemetry.SpanRef) {
		switch sp.Kind() {
		case telemetry.SpanSMP:
			c.SpanSMPs++
			c.LFTSMPs++
			c.ModelledUS += sp.Modelled().Microseconds()
			if sw, ok := sp.StrAttr("switch"); ok {
				switches[sw] = struct{}{}
			}
		case telemetry.SpanMigration:
			c.TraceSpan = sp.ID()
		}
	})
	c.SwitchesUpdated = len(switches)
	return c
}

func errReply(err error) cmdReply {
	return cmdReply{status: classifyErr(err), body: map[string]string{"error": err.Error()}}
}

// withPatch keeps the patched publish for a failed VM command when the
// cloud refused it up front (a typed 4xx error: nothing changed). Any other
// failure may have stopped partway, so the reply asks for a rebuild.
func (r cmdReply) withPatch(p *snapPatch) cmdReply {
	if r.status != http.StatusInternalServerError {
		r.patch = p
	}
	return r
}

// classifyErr maps the cloud's typed refusals (cloud.Err*) onto HTTP
// statuses; anything else is a 500.
func classifyErr(err error) int {
	switch {
	case errors.Is(err, cloud.ErrExists),
		errors.Is(err, cloud.ErrSameNode),
		errors.Is(err, cloud.ErrBusy),
		errors.Is(err, cloud.ErrNoFreeVF):
		return http.StatusConflict
	case errors.Is(err, cloud.ErrNoVM):
		return http.StatusNotFound
	case errors.Is(err, cloud.ErrNotHypervisor):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
