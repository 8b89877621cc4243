package api

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/routing"
	"ibvsim/internal/sm"
	"ibvsim/internal/smp"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// cowEntries collects the set entries of a cowArray.
func cowEntries[T comparable](a cowArray[T]) map[int]T {
	out := map[int]T{}
	a.each(func(i int, v T) { out[i] = v })
	return out
}

// diffSnapshots reports the first difference between two snapshots: VMs,
// hypervisors, both address maps, and every switch's LFT contents and
// per-block provenance.
func diffSnapshots(got, want *Snapshot) error {
	if got.Gen != want.Gen || got.Fabric != want.Fabric || got.Model != want.Model || got.SMNode != want.SMNode {
		return fmt.Errorf("header %d/%s/%s/%d, want %d/%s/%s/%d",
			got.Gen, got.Fabric, got.Model, got.SMNode, want.Gen, want.Fabric, want.Model, want.SMNode)
	}
	if g, w := got.VMs(), want.VMs(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("VMs\n got %+v\nwant %+v", g, w)
	}
	if g, w := got.Hyps(), want.Hyps(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("hypervisors\n got %+v\nwant %+v", g, w)
	}
	if g, w := cowEntries(got.lidOf), cowEntries(want.lidOf); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("lidOf\n got %v\nwant %v", g, w)
	}
	if g, w := cowEntries(got.nodeOfLID), cowEntries(want.nodeOfLID); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("nodeOfLID\n got %v\nwant %v", g, w)
	}
	for _, sw := range want.topo.Switches() {
		g, w := got.lft(sw), want.lft(sw)
		if (g == nil) != (w == nil) {
			return fmt.Errorf("switch %d: LFT present %v, want %v", sw, g != nil, w != nil)
		}
		if g == nil {
			continue
		}
		if !g.Equal(w) {
			return fmt.Errorf("switch %d: LFT contents differ", sw)
		}
		for b := 0; b < max(g.NumBlocks(), w.NumBlocks()); b++ {
			l := ib.LID(b * 64)
			if gp, wp := g.ProvenanceOf(l), w.ProvenanceOf(l); !reflect.DeepEqual(gp, wp) {
				return fmt.Errorf("switch %d block %d: provenance %+v, want %+v", sw, b, gp, wp)
			}
		}
	}
	return nil
}

// handoverSM fails the server's SM over to a standby on another CA, the
// way the chaos harness does: sweep, negotiate, adopt, then swap c.SM.
// The loop must be idle.
func handoverSM(t *testing.T, srv *Server) {
	t.Helper()
	cur := srv.c.SM
	cas := cur.Topo.CAs()
	node := cas[len(cas)-1]
	if node == cur.SMNode {
		node = cas[0]
	}
	stby, err := sm.New(cur.Topo, node, routing.NewFatTree())
	if err != nil {
		t.Fatal(err)
	}
	stby.SetTelemetry(cur.Telemetry())
	stby.Dist = cur.Dist
	stby.RouteWorkers = 1
	stby.LMC = cur.LMC
	if _, err := stby.Sweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Negotiate(cur, stby, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := stby.AdoptFabricState(cur); err != nil {
		t.Fatal(err)
	}
	srv.c.SM = stby
	srv.c.RC.SM = stby
	srv.WireTransitionMonitor()
}

// TestPatchedPublishMatchesRebuild is the differential test of the
// patched publish: across a seeded command sequence — successful and
// refused VM commands, migrations that fail partway under SMP loss,
// reconfigure, reconcile apply and dry run, and out-of-band changes (link
// flaps, a spine reboot, LIDs bound and released behind the control
// plane's back, SM handover) — the published snapshot must equal its
// from-scratch twin after every command, and VM commands must take the
// patched path.
func TestPatchedPublishMatchesRebuild(t *testing.T) {
	for _, model := range []sriov.Model{sriov.SharedPort, sriov.VSwitchDynamic, sriov.VSwitchPrepopulated} {
		t.Run(model.String(), func(t *testing.T) {
			spec := topology.XGFTSpec{M: []int{3, 3}, W: []int{1, 3}}
			srv, ts := newFatTreeServer(t, spec, 2, model, Config{})
			cl := ts.Client()
			topo := srv.c.SM.Topo
			rng := rand.New(rand.NewSource(int64(model) * 7919))
			hyps := srv.c.Hypervisors()
			var spines []topology.NodeID
			for _, sw := range topo.Switches() {
				if topo.LeafSwitchOf(sw) == topology.NoNode && !hasCA(topo, sw) {
					spines = append(spines, sw)
				}
			}
			rebuilds := func() int64 { return srv.reg.Counter("api.snapshot.rebuilds").Value() }
			swapped := false // an SM handover since the last publish forces one rebuild
			check := func(step int, what string) {
				t.Helper()
				if err := diffSnapshots(srv.Snapshot(), srv.buildSnapshot(nil)); err != nil {
					t.Fatalf("step %d (%s): patched snapshot differs from rebuild: %v", step, what, err)
				}
			}
			vmOp := func(step int, what, method, url string, body any) {
				t.Helper()
				before := rebuilds()
				st := doJSON(t, cl, method, ts.URL+url, body, nil)
				if got := rebuilds() - before; st != http.StatusInternalServerError && !swapped && got != 0 {
					t.Fatalf("step %d (%s, status %d): VM command rebuilt the snapshot", step, what, st)
				}
				swapped = false
				check(step, fmt.Sprintf("%s -> %d", what, st))
			}
			fabricOp := func(step int, what, url string) {
				t.Helper()
				doJSON(t, cl, "POST", ts.URL+url, nil, nil)
				swapped = false
				check(step, what)
			}
			resweep := func() {
				if _, err := srv.c.SM.LightSweep(); err != nil {
					t.Fatal(err)
				}
				if _, err := srv.c.SM.Resweep(); err != nil {
					t.Fatal(err)
				}
			}
			var oobLIDs []ib.LID
			for step := 0; step < 160; step++ {
				name := fmt.Sprintf("vm%d", rng.Intn(10))
				// Destinations include non-hypervisors (the SM's CA, a
				// switch) so refusals are exercised.
				dst := hyps[rng.Intn(len(hyps))]
				switch rng.Intn(12) {
				case 0:
					dst = srv.c.SM.SMNode
				case 1:
					dst = topo.Switches()[0]
				}
				switch r := rng.Intn(20); {
				case r < 5:
					vmOp(step, "create "+name, "POST", "/v1/vms", CreateVMRequest{Name: name, Hypervisor: &dst})
				case r < 7:
					vmOp(step, "create "+name+" (scheduler)", "POST", "/v1/vms", CreateVMRequest{Name: name})
				case r < 10:
					vmOp(step, "destroy "+name, "DELETE", "/v1/vms/"+name, nil)
				case r < 14:
					vmOp(step, "migrate "+name, "POST", "/v1/vms/"+name+"/migrate", MigrateVMRequest{Destination: dst})
				case r == 14:
					// A migration that dies partway: one attempt per SMP at
					// 50% loss. The reply is a 500 and the publish rebuilds.
					srv.c.SM.Dist.Retry.MaxAttempts = 1
					srv.c.SM.InjectFaults(smp.FaultConfig{Drop: 0.5, Seed: int64(step)})
					vmOp(step, "lossy migrate "+name, "POST", "/v1/vms/"+name+"/migrate", MigrateVMRequest{Destination: dst})
					srv.c.SM.ClearFaults()
					srv.c.SM.Dist.Retry = sm.DefaultDistributionConfig().Retry
					fabricOp(step, "reconfigure after loss", "/v1/reconfigure")
				case r == 15:
					fabricOp(step, "reconcile dry run", "/v1/reconcile?goal=defrag&dry_run=1")
					fabricOp(step, "reconcile", "/v1/reconcile?goal=defrag")
				case r == 16:
					// Link flap: down, resweep, a VM command against the
					// stale tables, reroute; then back up and reroute.
					a, _, ap := trunkLink(t, topo)
					if err := topo.SetLinkState(a, ap, false); err != nil {
						t.Fatal(err)
					}
					resweep()
					vmOp(step, "create "+name+" during flap", "POST", "/v1/vms", CreateVMRequest{Name: name})
					fabricOp(step, "reconfigure after link down", "/v1/reconfigure")
					if err := topo.SetLinkState(a, ap, true); err != nil {
						t.Fatal(err)
					}
					resweep()
					fabricOp(step, "reconfigure after link up", "/v1/reconfigure")
				case r == 17:
					// Spine reboot: every port down, reroute, back up.
					sw := spines[rng.Intn(len(spines))]
					ports := topo.Node(sw).Ports
					for p := 1; p < len(ports); p++ {
						if ports[p].Peer != topology.NoNode {
							if err := topo.SetLinkState(sw, ib.PortNum(p), false); err != nil {
								t.Fatal(err)
							}
						}
					}
					resweep()
					fabricOp(step, "reconfigure after spine down", "/v1/reconfigure")
					for p := 1; p < len(ports); p++ {
						if ports[p].Peer != topology.NoNode {
							if err := topo.SetLinkState(sw, ib.PortNum(p), true); err != nil {
								t.Fatal(err)
							}
						}
					}
					resweep()
					fabricOp(step, "reconfigure after spine up", "/v1/reconfigure")
				case r == 18:
					// Address changes behind the control plane's back: the
					// next patched publish must pick them up.
					if len(oobLIDs) > 0 && rng.Intn(2) == 0 {
						srv.c.SM.ReleaseExtraLID(oobLIDs[0])
						oobLIDs = oobLIDs[1:]
					} else {
						lid, err := srv.c.SM.AllocExtraLID(hyps[rng.Intn(len(hyps))])
						if err != nil {
							t.Fatal(err)
						}
						oobLIDs = append(oobLIDs, lid)
					}
					vmOp(step, "destroy "+name+" after LID change", "DELETE", "/v1/vms/"+name, nil)
				default:
					if rng.Intn(4) == 0 {
						handoverSM(t, srv)
						swapped = true
						vmOp(step, "migrate "+name+" after handover", "POST", "/v1/vms/"+name+"/migrate", MigrateVMRequest{Destination: dst})
					} else {
						fabricOp(step, "reconfigure", "/v1/reconfigure")
					}
				}
			}
			if srv.Snapshot().NumVMs() == 0 {
				t.Fatal("sequence ended with no VMs; the test exercised little")
			}
		})
	}
}

// hasCA reports whether a switch has a CA neighbour.
func hasCA(topo *topology.Topology, sw topology.NodeID) bool {
	for _, p := range topo.Node(sw).Ports {
		if p.Peer != topology.NoNode && !topo.Node(p.Peer).IsSwitch() {
			return true
		}
	}
	return false
}
