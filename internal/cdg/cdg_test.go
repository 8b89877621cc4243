package cdg

import (
	"testing"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

func TestAddRemoveDep(t *testing.T) {
	g := NewGraph()
	a := Channel{Node: 1, Port: 1}
	b := Channel{Node: 2, Port: 1}
	if !g.AddDep(a, b) {
		t.Error("first AddDep should report new")
	}
	if g.AddDep(a, b) {
		t.Error("second AddDep should not be new")
	}
	if g.NumEdges() != 1 || g.NumChannels() != 2 {
		t.Errorf("edges=%d channels=%d", g.NumEdges(), g.NumChannels())
	}
	g.RemoveDep(a, b)
	if g.NumEdges() != 1 {
		t.Error("multiplicity-2 edge should survive one removal")
	}
	g.RemoveDep(a, b)
	if g.NumEdges() != 0 {
		t.Error("edge should be gone")
	}
	// Removing a non-existent edge is a no-op.
	g.RemoveDep(a, b)
	g.RemoveDep(Channel{Node: 9, Port: 9}, b)
	g.RemoveDep(a, Channel{Node: 9, Port: 9})
	if g.HasCycle() {
		t.Error("empty graph has no cycle")
	}
}

func TestFindCycleSimple(t *testing.T) {
	g := NewGraph()
	a := Channel{Node: 1, Port: 1}
	b := Channel{Node: 2, Port: 1}
	c := Channel{Node: 3, Port: 1}
	g.AddDep(a, b)
	g.AddDep(b, c)
	if g.HasCycle() {
		t.Fatal("chain should be acyclic")
	}
	g.AddDep(c, a)
	cyc := g.FindCycle()
	if cyc == nil {
		t.Fatal("triangle should have a cycle")
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Errorf("cycle should close on itself: %v", cyc)
	}
	if len(cyc) != 4 {
		t.Errorf("triangle cycle length = %d, want 4 (a,b,c,a)", len(cyc))
	}
	// Self-loop is a cycle of length 2.
	g2 := NewGraph()
	g2.AddDep(a, a)
	if got := g2.FindCycle(); len(got) != 2 {
		t.Errorf("self-loop cycle = %v", got)
	}
}

func TestFindCycleDisconnectedComponents(t *testing.T) {
	g := NewGraph()
	// Acyclic component.
	g.AddDep(Channel{Node: 1, Port: 1}, Channel{Node: 2, Port: 1})
	// Cyclic component elsewhere.
	x := Channel{Node: 10, Port: 1}
	y := Channel{Node: 11, Port: 1}
	g.AddDep(x, y)
	g.AddDep(y, x)
	if !g.HasCycle() {
		t.Error("cycle in second component not found")
	}
}

func TestPathDeps(t *testing.T) {
	topo := topology.New("t")
	s0 := topo.AddSwitch(3, "s0")
	s1 := topo.AddSwitch(3, "s1")
	s2 := topo.AddSwitch(3, "s2")
	topo.Link(s0, s1)
	topo.Link(s1, s2)
	deps, err := PathDeps(topo, []topology.NodeID{s0, s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 {
		t.Fatalf("deps = %v", deps)
	}
	want := [2]Channel{{Node: s0, Port: 1}, {Node: s1, Port: 2}}
	if deps[0] != want {
		t.Errorf("deps[0] = %v, want %v", deps[0], want)
	}
	// Short paths produce no deps.
	if d, err := PathDeps(topo, []topology.NodeID{s0}); err != nil || d != nil {
		t.Errorf("single-node path: %v, %v", d, err)
	}
	// Non-adjacent nodes error.
	if _, err := PathDeps(topo, []topology.NodeID{s0, s2}); err == nil {
		t.Error("non-adjacent path should fail")
	}
}

func TestAddPathRollback(t *testing.T) {
	topo := topology.New("t")
	s := make([]topology.NodeID, 4)
	for i := range s {
		s[i] = topo.AddSwitch(4, "s")
	}
	topo.Link(s[0], s[1])
	topo.Link(s[1], s[2])
	topo.Link(s[2], s[3])
	g := NewGraph()
	deps, err := g.AddPath(topo, []topology.NodeID{s[0], s[1], s[2], s[3]})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	g.RemovePath(deps)
	if g.NumEdges() != 0 {
		t.Errorf("rollback left %d edges", g.NumEdges())
	}
	if _, err := g.AddPath(topo, []topology.NodeID{s[0], s[3]}); err == nil {
		t.Error("AddPath with non-adjacent nodes should fail")
	}
}

// ringRoutes implements LFTRoutes with clockwise-shortest ring routing,
// which is famously cyclic in its channel dependencies.
type ringRoutes struct {
	topo *topology.Topology
	sw   []topology.NodeID          // ring order
	cas  map[ib.LID]topology.NodeID // lid -> CA node
	home map[topology.NodeID]int    // CA -> ring index
	idx  map[topology.NodeID]int    // switch -> ring index
}

func (r *ringRoutes) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := r.cas[l]; ok {
		return n
	}
	return topology.NoNode
}

func (r *ringRoutes) SwitchRoute(sw topology.NodeID, dlid ib.LID) ib.PortNum {
	dst, ok := r.cas[dlid]
	if !ok {
		return ib.DropPort
	}
	di := r.home[dst]
	si := r.idx[sw]
	if di == si {
		return r.topo.PortToward(sw, dst)
	}
	// Always forward clockwise (port 1 links to the next switch).
	return 1
}

func TestBuildFromLFTsRingHasCycle(t *testing.T) {
	topo, err := topology.BuildRing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &ringRoutes{
		topo: topo,
		cas:  map[ib.LID]topology.NodeID{},
		home: map[topology.NodeID]int{},
		idx:  map[topology.NodeID]int{},
	}
	for i, sw := range topo.Switches() {
		r.sw = append(r.sw, sw)
		r.idx[sw] = i
	}
	var dlids []ib.LID
	for i, ca := range topo.CAs() {
		lid := ib.LID(i + 1)
		r.cas[lid] = ca
		r.home[ca] = r.idx[topo.LeafSwitchOf(ca)]
		dlids = append(dlids, lid)
	}
	g := BuildFromLFTs(topo, r, dlids)
	if !g.HasCycle() {
		t.Error("clockwise ring routing must have a cyclic CDG")
	}
	// Unrouted LIDs and unknown destinations are skipped without panic.
	g2 := BuildFromLFTs(topo, r, []ib.LID{999})
	if g2.NumEdges() != 0 {
		t.Error("unknown LID should add no edges")
	}
}

// treeRoutes routes everything through switch 0 on a star, which is acyclic.
type starRoutes struct {
	topo *topology.Topology
	cas  map[ib.LID]topology.NodeID
}

func (r *starRoutes) NodeOf(l ib.LID) topology.NodeID {
	if n, ok := r.cas[l]; ok {
		return n
	}
	return topology.NoNode
}

func (r *starRoutes) SwitchRoute(sw topology.NodeID, dlid ib.LID) ib.PortNum {
	dst, ok := r.cas[dlid]
	if !ok {
		return ib.DropPort
	}
	if p := r.topo.PortToward(sw, dst); p != 0 {
		return p
	}
	// toward the hub (switch 0)
	return r.topo.PortToward(sw, r.topo.Switches()[0])
}

func TestBuildFromLFTsStarAcyclic(t *testing.T) {
	topo := topology.New("star")
	hub := topo.AddSwitch(8, "hub")
	r := &starRoutes{topo: topo, cas: map[ib.LID]topology.NodeID{}}
	var dlids []ib.LID
	for i := 0; i < 3; i++ {
		leaf := topo.AddSwitch(4, "leaf")
		if _, _, err := topo.Link(hub, leaf); err != nil {
			t.Fatal(err)
		}
		ca := topo.AddCA("ca")
		if _, _, err := topo.Link(ca, leaf); err != nil {
			t.Fatal(err)
		}
		lid := ib.LID(i + 1)
		r.cas[lid] = ca
		dlids = append(dlids, lid)
	}
	g := BuildFromLFTs(topo, r, dlids)
	if g.HasCycle() {
		t.Errorf("star routing should be deadlock free; cycle: %v", g.FindCycle())
	}
	if g.NumEdges() == 0 {
		t.Error("expected some dependencies")
	}
}

// TestBuildSwitchCDGCycleEquivalence pins the contract BuildSwitchCDG is
// allowed to exist under: identical cycle verdicts to the complete graph,
// with the switch-to-switch edge set being exactly the complete graph's
// edges minus those sourced at CA injection channels.
func TestBuildSwitchCDGCycleEquivalence(t *testing.T) {
	// Cyclic fixture: the clockwise ring.
	topo, err := topology.BuildRing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &ringRoutes{
		topo: topo,
		cas:  map[ib.LID]topology.NodeID{},
		home: map[topology.NodeID]int{},
		idx:  map[topology.NodeID]int{},
	}
	for i, sw := range topo.Switches() {
		r.sw = append(r.sw, sw)
		r.idx[sw] = i
	}
	var dlids []ib.LID
	for i, ca := range topo.CAs() {
		lid := ib.LID(i + 1)
		r.cas[lid] = ca
		r.home[ca] = r.idx[topo.LeafSwitchOf(ca)]
		dlids = append(dlids, lid)
	}
	full := BuildFromLFTs(topo, r, dlids)
	sw := BuildSwitchCDG(topo, r, dlids)
	if full.HasCycle() != sw.HasCycle() {
		t.Errorf("ring: full cyclic=%v, switch-only cyclic=%v", full.HasCycle(), sw.HasCycle())
	}
	if !sw.HasCycle() {
		t.Error("switch-only CDG of the clockwise ring must be cyclic")
	}

	// Acyclic fixture: the star.
	star := topology.New("star")
	hub := star.AddSwitch(8, "hub")
	sr := &starRoutes{topo: star, cas: map[ib.LID]topology.NodeID{}}
	var sdlids []ib.LID
	for i := 0; i < 3; i++ {
		leaf := star.AddSwitch(4, "leaf")
		if _, _, err := star.Link(hub, leaf); err != nil {
			t.Fatal(err)
		}
		ca := star.AddCA("ca")
		if _, _, err := star.Link(ca, leaf); err != nil {
			t.Fatal(err)
		}
		lid := ib.LID(i + 1)
		sr.cas[lid] = ca
		sdlids = append(sdlids, lid)
	}
	sfull := BuildFromLFTs(star, sr, sdlids)
	sonly := BuildSwitchCDG(star, sr, sdlids)
	if sonly.HasCycle() {
		t.Errorf("star switch-only CDG should be acyclic; cycle: %v", sonly.FindCycle())
	}
	// Edge-set containment: the switch-only edges are exactly the complete
	// graph's edges minus those sourced at CA injection channels.
	check := func(name string, tp *topology.Topology, fullG *Graph, onlyG *Dense) {
		fullSet := map[[2]Channel]bool{}
		for _, e := range fullG.Edges() {
			fullSet[e] = true
		}
		onlySet := map[[2]Channel]bool{}
		for _, e := range onlyG.Edges() {
			onlySet[e] = true
			if !fullSet[e] {
				t.Errorf("%s: switch-only edge %v->%v missing from complete graph", name, e[0], e[1])
			}
		}
		for e := range fullSet {
			if n := tp.Node(e[0].Node); n == nil || !n.IsSwitch() {
				continue // CA injection channel: deliberately omitted
			}
			if !onlySet[e] {
				t.Errorf("%s: switch-switch edge %v->%v missing from switch-only graph", name, e[0], e[1])
			}
		}
	}
	check("ring", topo, full, sw)
	check("star", star, sfull, sonly)
}

func TestChannelString(t *testing.T) {
	c := Channel{Node: 3, Port: 7}
	if c.String() != "ch(3:7)" {
		t.Errorf("String = %q", c.String())
	}
}
