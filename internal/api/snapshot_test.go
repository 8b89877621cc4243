package api

import (
	"fmt"
	"net/http"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// TestSnapshotFollowsProgrammedObjectSwap is the regression test for a
// copy-on-write staleness bug the chaos campaigns caught: the SM *replaces*
// the programmed LFT object on every fully-successful distribution (with a
// clone of the target, carrying the target's own revision counter), so a
// snapshot cache keyed on revision alone can keep serving the pre-reroute
// clone when the fresh object's revision coincides with the recorded one.
// After a link failure + reconfigure, the published snapshot then walks
// paths out the dead port while the SM itself is healthy.
//
// The sequence below reproduces the hazard: reconfigure (programmed objects
// swapped once), fail a trunk link and resweep directly on the SM, then
// reconfigure again (swapped again, revisions frequently colliding on a
// symmetric fabric). The snapshot must track the programmed tables exactly.
func TestSnapshotFollowsProgrammedObjectSwap(t *testing.T) {
	spec := topology.XGFTSpec{M: []int{3, 3}, W: []int{1, 3}}
	srv, ts := newFatTreeServer(t, spec, 2, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	topo := srv.c.SM.Topo

	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
		t.Fatalf("first reconfigure: status %d", st)
	}
	before := srv.Snapshot()

	// Fail one switch-to-switch link directly on the fabric, as the chaos
	// harness does between API commands. The loop is idle (the previous
	// reply was sent after its snapshot was published), so this does not
	// race the server.
	a, b, ap := trunkLink(t, topo)
	if err := topo.SetLinkState(a, ap, false); err != nil {
		t.Fatal(err)
	}
	if !topo.Connected() {
		t.Fatalf("link %d<->%d was the only path; pick a redundant fabric", a, b)
	}
	if _, err := srv.c.SM.LightSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.c.SM.Resweep(); err != nil {
		t.Fatal(err)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/reconfigure", nil, nil); st != http.StatusOK {
		t.Fatalf("reconfigure after link failure: status %d", st)
	}

	// The reroute must have moved at least one table, otherwise this test
	// exercises nothing.
	sn := srv.Snapshot()
	moved := false
	for _, sw := range topo.Switches() {
		prog := srv.c.SM.ProgrammedLFT(sw)
		if prog == nil {
			t.Fatalf("switch %d has no programmed LFT", sw)
		}
		if sn.lft(sw) == nil {
			t.Fatalf("snapshot has no LFT clone for switch %d", sw)
		}
		if !sn.lft(sw).Equal(prog) {
			t.Errorf("switch %d: snapshot LFT diverges from programmed table (stale COW clone)", sw)
		}
		if before.lft(sw) != nil && !before.lft(sw).Equal(prog) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("reconfigure after link failure changed no table; test is vacuous")
	}

	// The user-visible symptom: a stale snapshot walks paths out the dead
	// port. Every CA pair must still resolve through the snapshot walker.
	cas := topo.CAs()
	for _, src := range cas {
		for _, dst := range cas {
			if src == dst {
				continue
			}
			url := fmt.Sprintf("%s/v1/paths/%d/%d", ts.URL, src, dst)
			var pr PathResponse
			if st := doJSON(t, cl, "GET", url, nil, &pr); st != http.StatusOK {
				t.Fatalf("path %d->%d: status %d (snapshot walks a dead route)", src, dst, st)
			}
		}
	}
}

// trunkLink returns the first switch-to-switch link (and a's port toward b).
func trunkLink(t *testing.T, topo *topology.Topology) (a, b topology.NodeID, ap ib.PortNum) {
	t.Helper()
	for _, sw := range topo.Switches() {
		n := topo.Node(sw)
		for i := 1; i < len(n.Ports); i++ {
			p := n.Ports[i]
			if p.Peer != topology.NoNode && p.Peer > sw && topo.Node(p.Peer).IsSwitch() {
				return sw, p.Peer, ib.PortNum(i)
			}
		}
	}
	t.Fatal("fabric has no switch-to-switch link")
	return 0, 0, 0
}
