package cdg

import (
	"math/rand"
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// TestDenseBuildDepsCycle pins the raw id graph DFSSSP layers on: the
// multigraph keeps duplicates, the cycle comes back in forward order, and
// a rebuild without the closing edge is acyclic.
func TestDenseBuildDepsCycle(t *testing.T) {
	g := NewDense(6)
	g.BuildDeps([][]Dep{{{0, 1}, {1, 2}}, {{1, 2}, {2, 0}, {4, 5}}})
	if g.NumEdges() != 5 {
		t.Fatalf("multigraph must keep duplicate deps: %d edges", g.NumEdges())
	}
	cyc := g.CycleIDs(AllSides)
	if len(cyc) != 3 || cyc[0] != 0 || cyc[1] != 1 || cyc[2] != 2 {
		t.Fatalf("want cycle [0 1 2], got %v", cyc)
	}
	g.BuildDeps([][]Dep{{{0, 1}, {1, 2}}, {{4, 5}}})
	if g.HasCycle() {
		t.Fatalf("acyclic rebuild reports a cycle: %v", g.CycleIDs(AllSides))
	}
}

// tableRoutes is the fuzz target's route source: per-switch tables plus a
// LID ownership map. It implements TableRoutes; plainRoutes hides that so
// the builder's per-call fallback is exercised too.
type tableRoutes struct {
	lfts  map[topology.NodeID]*ib.LFT
	owner map[ib.LID]topology.NodeID
}

func (r tableRoutes) SwitchLFT(sw topology.NodeID) *ib.LFT { return r.lfts[sw] }

func (r tableRoutes) SwitchRoute(sw topology.NodeID, dlid ib.LID) ib.PortNum {
	if l := r.lfts[sw]; l != nil {
		return l.Get(dlid)
	}
	return ib.DropPort
}

func (r tableRoutes) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := r.owner[l]; ok {
		return n
	}
	return topology.NoNode
}

type plainRoutes struct{ r tableRoutes }

func (p plainRoutes) SwitchRoute(sw topology.NodeID, dlid ib.LID) ib.PortNum {
	return p.r.SwitchRoute(sw, dlid)
}
func (p plainRoutes) NodeOf(l ib.LID) topology.NodeID { return p.r.NodeOf(l) }

// fuzzTopology builds one of the seeded small shapes: a ring, a star, or a
// 2-level fat tree, sized by rng.
func fuzzTopology(t *testing.T, shape uint8, rng *rand.Rand) *topology.Topology {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	switch shape % 3 {
	case 0:
		topo, err := topology.BuildRing(3+rng.Intn(4), 1+rng.Intn(2))
		must(err)
		return topo
	case 1:
		topo := topology.New("star")
		hub := topo.AddSwitch(8, "hub")
		for i := 0; i < 2+rng.Intn(4); i++ {
			leaf := topo.AddSwitch(4, "leaf")
			_, _, err := topo.Link(hub, leaf)
			must(err)
			for c := 0; c < 1+rng.Intn(2); c++ {
				_, _, err := topo.Link(topo.AddCA("ca"), leaf)
				must(err)
			}
		}
		return topo
	default:
		topo := topology.New("fat-tree")
		spines := make([]topology.NodeID, 2+rng.Intn(2))
		for i := range spines {
			spines[i] = topo.AddSwitch(6, "spine")
		}
		for l := 0; l < 2+rng.Intn(3); l++ {
			leaf := topo.AddSwitch(8, "leaf")
			for _, s := range spines {
				_, _, err := topo.Link(leaf, s)
				must(err)
			}
			for c := 0; c < 1+rng.Intn(3); c++ {
				_, _, err := topo.Link(topo.AddCA("ca"), leaf)
				must(err)
			}
		}
		return topo
	}
}

// fuzzPort draws an LFT entry: mostly a connected port, but also DropPort,
// port 0, an unconnected port and ports beyond the switch's range.
func fuzzPort(rng *rand.Rand, n *topology.Node) ib.PortNum {
	switch k := rng.Intn(10); {
	case k < 5:
		if ports := n.ConnectedPorts(); len(ports) > 0 {
			return ports[rng.Intn(len(ports))]
		}
		return 1
	case k == 5:
		return ib.DropPort
	case k == 6:
		return 0
	case k == 7:
		return ib.PortNum(len(n.Ports) + rng.Intn(4))
	default:
		return ib.PortNum(1 + rng.Intn(len(n.Ports)))
	}
}

// switchSourced returns the reference graph's edges whose source channel
// belongs to a switch.
func switchSourced(topo *topology.Topology, g *Graph) map[[2]Channel]bool {
	out := map[[2]Channel]bool{}
	for _, e := range g.Edges() {
		if topo.Node(e[0].Node).IsSwitch() {
			out[e] = true
		}
	}
	return out
}

func edgeSet(g *Dense) map[[2]Channel]bool {
	out := map[[2]Channel]bool{}
	for _, e := range g.Edges() {
		out[e] = true
	}
	return out
}

func sameEdges(a, b map[[2]Channel]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

// FuzzSwitchCDG differentially tests the dense builders against the
// map-keyed reference. On random small fabrics with random down links,
// random CA ownership of LIDs and random (old, new) LFTs — DropPort, port
// 0 and out-of-range entries included — it requires:
//   - BuildSwitchCDG's edge set to equal BuildFromLFTs's switch-sourced
//     edges, with and without the TableRoutes fast path;
//   - the one-pass union's verdict and per-side verdicts to equal
//     Union(gOld, gNew).HasCycle(), gOld.HasCycle() and gNew.HasCycle(),
//     its per-side edge counts to match, and its reported cycle to be a
//     real cycle of the union.
//
// flips lets the fuzzer overwrite entries directly: each byte pair (i, p)
// sets entry i of the old tables (mod their size) to port p.
func FuzzSwitchCDG(f *testing.F) {
	for shape := uint8(0); shape < 3; shape++ {
		for seed := int64(1); seed <= 4; seed++ {
			f.Add(shape, seed, []byte{})
		}
	}
	f.Add(uint8(0), int64(9), []byte{0, 1, 5, 255, 7, 0, 3, 2})
	f.Add(uint8(2), int64(11), []byte{1, 40, 2, 3, 9, 1})

	f.Fuzz(func(t *testing.T, shape uint8, seed int64, flips []byte) {
		rng := rand.New(rand.NewSource(seed))
		topo := fuzzTopology(t, shape, rng)
		for _, n := range topo.Nodes() {
			for _, p := range n.Ports[1:] {
				if p.Peer != topology.NoNode && n.ID < p.Peer && rng.Intn(7) == 0 {
					if err := topo.SetLinkState(n.ID, p.Num, false); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		cas, sws := topo.CAs(), topo.Switches()
		nlids := len(cas) + 3
		owner := map[ib.LID]topology.NodeID{}
		var dlids []ib.LID
		for l := ib.LID(1); int(l) <= nlids; l++ {
			dlids = append(dlids, l)
			if rng.Intn(8) != 0 {
				owner[l] = cas[rng.Intn(len(cas))]
			}
		}
		old := tableRoutes{lfts: map[topology.NodeID]*ib.LFT{}, owner: owner}
		nw := tableRoutes{lfts: map[topology.NodeID]*ib.LFT{}, owner: owner}
		for _, sw := range sws {
			if rng.Intn(10) == 0 {
				continue // a switch without a table forwards nothing
			}
			n := topo.Node(sw)
			lo, ln := ib.NewLFT(ib.LID(nlids)), ib.NewLFT(ib.LID(nlids))
			for _, l := range dlids {
				p := fuzzPort(rng, n)
				lo.Set(l, p)
				if rng.Intn(3) == 0 {
					p = fuzzPort(rng, n)
				}
				ln.Set(l, p)
			}
			old.lfts[sw], nw.lfts[sw] = lo, ln
		}
		for i := 0; i+1 < len(flips); i += 2 {
			k := int(flips[i]) % (len(sws) * nlids)
			if l := old.lfts[sws[k/nlids]]; l != nil {
				l.Set(dlids[k%nlids], ib.PortNum(flips[i+1]))
			}
		}

		gOld := BuildFromLFTs(topo, old, dlids)
		gNew := BuildFromLFTs(topo, nw, dlids)
		refOld, refNew := switchSourced(topo, gOld), switchSourced(topo, gNew)
		for _, r := range []LFTRoutes{old, plainRoutes{old}} {
			d := BuildSwitchCDG(topo, r, dlids)
			if got := edgeSet(d); !sameEdges(got, refOld) || d.NumEdges() != len(refOld) {
				t.Fatalf("%T: dense edges %v != switch-sourced edges of reference %v", r, d.Edges(), gOld.Edges())
			}
			if d.HasCycle() != gOld.HasCycle() {
				t.Fatalf("%T: dense cyclic=%v, reference cyclic=%v", r, d.HasCycle(), gOld.HasCycle())
			}
		}

		u := BuildSwitchUnion(topo, old, nw, dlids)
		refUnion := Union(gOld, gNew)
		if u.HasCycle() != refUnion.HasCycle() ||
			u.HasCycleOn(SideOld) != gOld.HasCycle() || u.HasCycleOn(SideNew) != gNew.HasCycle() {
			t.Fatalf("union verdicts (all/old/new) = %v/%v/%v, reference %v/%v/%v",
				u.HasCycle(), u.HasCycleOn(SideOld), u.HasCycleOn(SideNew),
				refUnion.HasCycle(), gOld.HasCycle(), gNew.HasCycle())
		}
		if u.SideEdges(SideOld) != len(refOld) || u.SideEdges(SideNew) != len(refNew) {
			t.Fatalf("side edge counts %d/%d, reference %d/%d",
				u.SideEdges(SideOld), u.SideEdges(SideNew), len(refOld), len(refNew))
		}
		all := edgeSet(u)
		for e := range refOld {
			refNew[e] = true
		}
		if !sameEdges(all, refNew) {
			t.Fatalf("union edges %v != reference union of switch-sourced edges", u.Edges())
		}
		if cyc := u.FindCycle(); cyc != nil {
			for i := 0; i+1 < len(cyc); i++ {
				if !all[[2]Channel{cyc[i], cyc[i+1]}] {
					t.Fatalf("reported cycle %v uses a non-edge %v->%v", cyc, cyc[i], cyc[i+1])
				}
			}
		}
	})
}
