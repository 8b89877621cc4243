package api

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

func TestReconcileEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, 6, 2, 3, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()

	// Fragment: one VM on each of six hosts; minimal occupancy is two.
	for i := 0; i < 6; i++ {
		node := hyps[i].Node
		st := doJSON(t, cl, "POST", ts.URL+"/v1/vms",
			CreateVMRequest{Name: fmt.Sprintf("fr-%d", i), Hypervisor: &node}, nil)
		if st != http.StatusCreated {
			t.Fatalf("create fr-%d: status %d", i, st)
		}
	}

	// Dry run via the query form: plans, mutates nothing.
	var dry ReconcileResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, &dry); st != http.StatusOK {
		t.Fatalf("dry run: status %d: %+v", st, dry)
	}
	if !dry.DryRun || dry.Converged || len(dry.Moves) == 0 || dry.Applied != nil {
		t.Fatalf("dry run response: %+v", dry)
	}
	if dry.PredictedTotal.LFTSMPs == 0 || len(dry.Predicted) != dry.Waves {
		t.Fatalf("dry run prediction not populated: %+v", dry)
	}
	var vms struct {
		VMs []VMInfo `json:"vms"`
	}
	doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &vms)
	if n := occupiedNodes(vms.VMs); n != 6 {
		t.Fatalf("dry run mutated placement: %d occupied hosts", n)
	}

	// Apply: the applied per-wave costs must equal the prediction exactly.
	var app ReconcileResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile", ReconcileRequest{Goal: "defrag"}, &app); st != http.StatusOK {
		t.Fatalf("apply: status %d: %+v", st, app)
	}
	if app.Aborted || !app.Converged || app.AuditViolations != 0 {
		t.Fatalf("apply response: %+v", app)
	}
	if len(app.Applied) != len(app.Predicted) {
		t.Fatalf("applied %d waves, predicted %d", len(app.Applied), len(app.Predicted))
	}
	for i := range app.Applied {
		pr, ap := app.Predicted[i], app.Applied[i]
		if pr.SwitchesUpdated != ap.SwitchesUpdated || pr.LFTSMPs != ap.LFTSMPs ||
			pr.InvalidationSMPs != ap.InvalidationSMPs || pr.HostSMPs != ap.HostSMPs ||
			pr.ModelledUS != ap.ModelledUS {
			t.Errorf("wave %d: predicted %+v != applied %+v", i, pr, ap)
		}
	}
	// The same prediction held across the dry run and the apply.
	if dry.PredictedTotal != app.PredictedTotal {
		t.Errorf("dry-run predicted %+v, apply predicted %+v", dry.PredictedTotal, app.PredictedTotal)
	}
	doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &vms)
	if n := occupiedNodes(vms.VMs); n != 2 {
		t.Fatalf("defrag left %d occupied hosts, want 2", n)
	}

	// Re-reconciling the achieved state converges with zero moves.
	var again ReconcileResponse
	doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=defrag&dry_run=1", nil, &again)
	if !again.Converged || len(again.Moves) != 0 {
		t.Fatalf("achieved state must be a fixpoint: %+v", again)
	}

	// Drain via the JSON body form.
	target := vms.VMs[0].Node
	var drain ReconcileResponse
	host := target
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile", ReconcileRequest{Goal: "drain", Host: &host}, &drain); st != http.StatusOK {
		t.Fatalf("drain: status %d: %+v", st, drain)
	}
	doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &vms)
	for _, vm := range vms.VMs {
		if vm.Node == target {
			t.Fatalf("VM %q still on drained host %d", vm.Name, target)
		}
	}

	// Error surface: unknown goal and bad drain host are 400s; an explicit
	// placement of an unknown VM is a 404.
	var e map[string]string
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=bogus", nil, &e); st != http.StatusBadRequest {
		t.Fatalf("bogus goal: status %d", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile?goal=drain:zz", nil, &e); st != http.StatusBadRequest {
		t.Fatalf("bad drain host: status %d", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconcile",
		ReconcileRequest{Placement: map[string]topology.NodeID{"ghost": hyps[0].Node}}, &e); st != http.StatusNotFound {
		t.Fatalf("ghost placement: status %d", st)
	}
}

func occupiedNodes(vms []VMInfo) int {
	nodes := map[topology.NodeID]bool{}
	for _, vm := range vms {
		nodes[vm.Node] = true
	}
	return len(nodes)
}

// newPaperFatTreeServer boots the paper's 648-node fat-tree behind the API.
func newPaperFatTreeServer(t *testing.T, vfs int, model sriov.Model) (*Server, *httptest.Server) {
	t.Helper()
	topo, err := topology.BuildPaperFatTree(648)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            model,
		VFsPerHypervisor: vfs,
		RouteWorkers:     4,
		Engine:           routing.NewFatTree(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts
}

// TestReconcileFatTreeAcceptance is the PR's acceptance scenario: on a
// fragmented 648-node fat-tree with VMs across twice the minimal host count,
// reconcile(defrag) must (a) converge to minimal occupancy, (b) cost fewer
// LFT SMPs and fewer sequential batches than migrating the same moves
// one-by-one on an identically prepared server, and (c) predict its applied
// costs exactly.
func TestReconcileFatTreeAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("648-node fabric boot is slow")
	}
	const vfs = 4
	bootVMs := func(t *testing.T, srv *Server, ts *httptest.Server) {
		cl := ts.Client()
		hyps := srv.Snapshot().Hyps()
		// 24 VMs across 12 hosts (2 each): minimal occupancy is 6 hosts, so
		// the fleet is fragmented across 2x the minimal host count.
		for i := 0; i < 12; i++ {
			node := hyps[i*3].Node
			for j := 0; j < 2; j++ {
				st := doJSON(t, cl, "POST", ts.URL+"/v1/vms",
					CreateVMRequest{Name: fmt.Sprintf("vm-%02d-%d", i, j), Hypervisor: &node}, nil)
				if st != http.StatusCreated {
					t.Fatalf("create vm-%02d-%d: status %d", i, j, st)
				}
			}
		}
	}

	srvA, tsA := newPaperFatTreeServer(t, vfs, sriov.VSwitchDynamic)
	bootVMs(t, srvA, tsA)
	clA := tsA.Client()

	var rec ReconcileResponse
	if st := doJSON(t, clA, "POST", tsA.URL+"/v1/reconcile?goal=defrag", nil, &rec); st != http.StatusOK {
		t.Fatalf("reconcile: status %d: %+v", st, rec)
	}
	if rec.Aborted || !rec.Converged || rec.AuditViolations != 0 {
		t.Fatalf("reconcile response: %+v", rec)
	}
	if len(rec.Moves) == 0 || rec.Waves >= len(rec.Moves) {
		t.Fatalf("want fewer batches than moves, got %d waves for %d moves", rec.Waves, len(rec.Moves))
	}
	for i := range rec.Applied {
		pr, ap := rec.Predicted[i], rec.Applied[i]
		if pr.SwitchesUpdated != ap.SwitchesUpdated || pr.LFTSMPs != ap.LFTSMPs ||
			pr.InvalidationSMPs != ap.InvalidationSMPs || pr.HostSMPs != ap.HostSMPs ||
			pr.ModelledUS != ap.ModelledUS {
			t.Errorf("wave %d: predicted %+v != applied %+v", i, pr, ap)
		}
	}
	var vmsA struct {
		VMs []VMInfo `json:"vms"`
	}
	doJSON(t, clA, "GET", tsA.URL+"/v1/vms", nil, &vmsA)
	if n := occupiedNodes(vmsA.VMs); n != 6 { // ceil(24 VMs / 4 VFs)
		t.Fatalf("defrag left %d occupied hosts, want minimal 6", n)
	}

	// Baseline: an identically prepared server pays for the same moves with
	// one migration (one LFT distribution) each.
	srvB, tsB := newPaperFatTreeServer(t, vfs, sriov.VSwitchDynamic)
	bootVMs(t, srvB, tsB)
	clB := tsB.Client()
	baselineSMPs := 0
	for _, mv := range rec.Moves {
		var mrep MigrateResponse
		st := doJSON(t, clB, "POST", tsB.URL+"/v1/vms/"+mv.VM+"/migrate",
			MigrateVMRequest{Destination: mv.To}, &mrep)
		if st != http.StatusOK {
			t.Fatalf("baseline migrate %q: status %d", mv.VM, st)
		}
		baselineSMPs += mrep.Cost.LFTSMPs + mrep.Cost.InvalidationSMPs
	}
	var vmsB struct {
		VMs []VMInfo `json:"vms"`
	}
	doJSON(t, clB, "GET", tsB.URL+"/v1/vms", nil, &vmsB)
	if n := occupiedNodes(vmsB.VMs); n != 6 {
		t.Fatalf("baseline left %d occupied hosts, want 6", n)
	}

	batchedSMPs := rec.AppliedTotal.LFTSMPs + rec.AppliedTotal.InvalidationSMPs
	if batchedSMPs >= baselineSMPs {
		t.Fatalf("batched reconcile used %d SMPs, one-by-one used %d: coalescing bought nothing", batchedSMPs, baselineSMPs)
	}
	if rec.Waves >= len(rec.Moves) {
		t.Fatalf("batched reconcile used %d waves for %d moves", rec.Waves, len(rec.Moves))
	}
	t.Logf("defrag: %d moves in %d waves, %d SMPs batched vs %d one-by-one",
		len(rec.Moves), rec.Waves, batchedSMPs, baselineSMPs)
}
