package cdg

import (
	"sort"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// Space numbers the channels of a topology's switches densely: the channel
// (switch, port) gets id index × stride + port, where index is the switch's
// position in Topology.Switches() (ascending node ID) and stride is the
// largest switch port-array length. CA channels have no id — they carry no
// incoming dependencies, so they never lie on a cycle.
type Space struct {
	switches []topology.NodeID // dense switch index -> node
	index    []int32           // node -> dense switch index, -1 for non-switches
	stride   int
}

// NewSpace numbers the channels of t's switches.
func NewSpace(t *topology.Topology) *Space {
	s := &Space{switches: t.Switches(), index: make([]int32, t.NumNodes())}
	for i := range s.index {
		s.index[i] = -1
	}
	for i, id := range s.switches {
		s.index[id] = int32(i)
		if n := len(t.Node(id).Ports); n > s.stride {
			s.stride = n
		}
	}
	return s
}

// NumChannels is the size of the id space (switches × stride).
func (s *Space) NumChannels() int { return len(s.switches) * s.stride }

// ID returns the dense id of port p on the switch with dense index sw.
func (s *Space) ID(sw int, p ib.PortNum) int32 { return int32(sw*s.stride + int(p)) }

// switchIndex returns the dense index of a switch node, or -1 when id is
// not a switch of the numbered topology.
func (s *Space) switchIndex(id topology.NodeID) int {
	if id < 0 || int(id) >= len(s.index) {
		return -1
	}
	return int(s.index[id])
}

// channel names a dense id.
func (s *Space) channel(id int32) Channel {
	return Channel{Node: s.switches[int(id)/s.stride], Port: ib.PortNum(int(id) % s.stride)}
}

// Side masks tag the edges of a union graph with the routing functions that
// induce them (BuildSwitchUnion). An untagged graph's edges match every mask.
const (
	SideOld  uint8 = 1 << 0
	SideNew  uint8 = 1 << 1
	AllSides uint8 = 0xff
)

// Dep is one channel dependency between dense channel ids.
type Dep struct{ From, To int32 }

// Dense is a channel dependency graph over dense channel ids in CSR form:
// the successors of channel c are to[start[c]:start[c+1]]. It is the
// repository's working CDG representation — the audit's installed and
// transient checks and DFSSSP's virtual-lane layering all run on it. The
// map-keyed Graph remains as the BuildFromLFTs reference.
//
// The cycle search visits channels in ascending id order and follows each
// channel's successors in CSR order. The switch builders emit successors
// in ascending id order, so the cycle they report depends only on the
// edge set, never on the order destinations were fed in.
type Dense struct {
	space *Space // names ids for FindCycle/Edges; nil for raw id graphs
	start []int32
	to    []int32
	side  []uint8 // per-edge side mask; nil when untagged

	// Scratch reused across builds and cycle searches.
	cursor []int32
	color  []uint8
	parent []int32
	stack  []denseFrame
}

type denseFrame struct{ node, next int32 }

// NewDense returns an edgeless raw graph over channel ids 0..n-1, to be
// filled by BuildDeps.
func NewDense(n int) *Dense { return &Dense{start: make([]int32, n+1)} }

// BuildDeps rebuilds g as the multigraph of the given dependency lists by
// counting sort: no hashing, linear in the number of dependencies, and
// each channel's successors keep list order (so the cycle search is
// deterministic in the order of lists). Duplicate dependencies are kept.
func (g *Dense) BuildDeps(lists [][]Dep) {
	n := len(g.start) - 1
	for i := range g.start {
		g.start[i] = 0
	}
	total := 0
	for _, l := range lists {
		for _, d := range l {
			g.start[d.From+1]++
		}
		total += len(l)
	}
	for i := 0; i < n; i++ {
		g.start[i+1] += g.start[i]
	}
	if cap(g.to) < total {
		g.to = make([]int32, total)
	}
	g.to = g.to[:total]
	g.side = nil
	if len(g.cursor) != n {
		g.cursor = make([]int32, n)
	}
	copy(g.cursor, g.start[:n])
	for _, l := range lists {
		for _, d := range l {
			g.to[g.cursor[d.From]] = d.To
			g.cursor[d.From]++
		}
	}
}

// numChannels returns the size of the channel id space.
func (g *Dense) numChannels() int { return len(g.start) - 1 }

// NumEdges returns the number of edges (distinct edges for the switch
// builders, which deduplicate).
func (g *Dense) NumEdges() int { return len(g.to) }

// SideEdges returns the number of edges whose side mask intersects mask.
func (g *Dense) SideEdges(mask uint8) int {
	if g.side == nil {
		return len(g.to)
	}
	n := 0
	for _, s := range g.side {
		if s&mask != 0 {
			n++
		}
	}
	return n
}

// CycleIDs returns one directed cycle through the edges whose side mask
// intersects mask, as a channel-id sequence (edges run between consecutive
// elements and from the last back to the first), or nil when that
// subgraph is acyclic. Iterative white/grey/black DFS.
func (g *Dense) CycleIDs(mask uint8) []int32 {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	n := g.numChannels()
	if len(g.color) != n {
		g.color = make([]uint8, n)
		g.parent = make([]int32, n)
	}
	for i := range g.color {
		g.color[i] = white
		g.parent[i] = -1
	}
	for s := 0; s < n; s++ {
		if g.color[s] != white {
			continue
		}
		g.stack = append(g.stack[:0], denseFrame{node: int32(s), next: g.start[s]})
		g.color[s] = grey
		for len(g.stack) > 0 {
			f := &g.stack[len(g.stack)-1]
			if f.next == g.start[f.node+1] {
				g.color[f.node] = black
				g.stack = g.stack[:len(g.stack)-1]
				continue
			}
			e := f.next
			f.next++
			if g.side != nil && g.side[e]&mask == 0 {
				continue
			}
			switch to := g.to[e]; g.color[to] {
			case white:
				g.color[to] = grey
				g.parent[to] = f.node
				g.stack = append(g.stack, denseFrame{node: to, next: g.start[to]})
			case grey:
				// The cycle runs to -> ... -> f.node -> to: collect the
				// parent chain and reverse it into forward order.
				cyc := []int32{}
				for x := f.node; x != to; x = g.parent[x] {
					cyc = append(cyc, x)
				}
				cyc = append(cyc, to)
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				return cyc
			}
		}
	}
	return nil
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Dense) HasCycle() bool { return g.CycleIDs(AllSides) != nil }

// HasCycleOn reports whether the edges on the given side(s) alone form a
// directed cycle.
func (g *Dense) HasCycleOn(mask uint8) bool { return g.CycleIDs(mask) != nil }

// FindCycle returns one directed cycle as a channel sequence (first element
// repeated at the end), or nil if the graph is acyclic — the same shape
// as Graph.FindCycle. Only graphs from the switch builders name channels.
func (g *Dense) FindCycle() []Channel {
	ids := g.CycleIDs(AllSides)
	if ids == nil {
		return nil
	}
	cyc := make([]Channel, 0, len(ids)+1)
	for _, id := range ids {
		cyc = append(cyc, g.space.channel(id))
	}
	return append(cyc, cyc[0])
}

// Edges returns every edge as a channel pair, in ascending (from, to) id
// order for the switch builders.
func (g *Dense) Edges() [][2]Channel {
	out := make([][2]Channel, 0, len(g.to))
	for c := 0; c < g.numChannels(); c++ {
		for _, to := range g.to[g.start[c]:g.start[c+1]] {
			out = append(out, [2]Channel{g.space.channel(int32(c)), g.space.channel(to)})
		}
	}
	return out
}

// TableRoutes is an optional extension of LFTRoutes for route sources
// backed by whole per-switch tables: SwitchRoute(sw, l) must equal
// SwitchLFT(sw).Get(l), or ib.DropPort when SwitchLFT returns nil. The
// switch builders then resolve each table once per build instead of making
// one interface call per (switch, LID).
type TableRoutes interface {
	LFTRoutes
	SwitchLFT(sw topology.NodeID) *ib.LFT
}

// colBlock is how many destination columns the switch builders read and
// process together. A block's ports for one switch are contiguous, so
// the edge loop walks switch by switch and its dedup-row writes stay
// within that switch's rows instead of sweeping the whole row table once
// per destination.
const colBlock = 64

// columns reads one routing function's egress ports for a block of LIDs
// across every switch into a reused buffer: buf[i*colBlock+d] is switch
// i's port for the block's d-th LID.
type columns struct {
	r    LFTRoutes
	sws  []topology.NodeID
	lfts []*ib.LFT // resolved once when r implements TableRoutes
	buf  []ib.PortNum
}

func newColumns(sp *Space, r LFTRoutes) *columns {
	c := &columns{r: r, sws: sp.switches, buf: make([]ib.PortNum, len(sp.switches)*colBlock)}
	if tr, ok := r.(TableRoutes); ok {
		c.lfts = make([]*ib.LFT, len(sp.switches))
		for i, id := range sp.switches {
			c.lfts[i] = tr.SwitchLFT(id)
		}
	}
	return c
}

func (c *columns) read(block []ib.LID) []ib.PortNum {
	for i, id := range c.sws {
		row := c.buf[i*colBlock : i*colBlock+len(block)]
		switch {
		case c.lfts == nil:
			for d, l := range block {
				row[d] = c.r.SwitchRoute(id, l)
			}
		case c.lfts[i] == nil:
			for d := range row {
				row[d] = ib.DropPort
			}
		default:
			for d, l := range block {
				row[d] = c.lfts[i].Get(l)
			}
		}
	}
	return c.buf
}

// BuildSwitchCDG constructs the switch-to-switch restriction of the CDG
// BuildFromLFTs builds: it omits CA injection channels, which have no
// incoming dependencies and therefore can never lie on a cycle, so cycle
// verdicts are identical, and the edge set is exactly BuildFromLFTs's
// switch-sourced edges (for CA-owned destinations; the audit feeds it only
// those).
//
// The build follows each switch's egress channel forward to its successor
// instead of BuildFromLFTs's scan of every port of every switch per
// destination. Each switch's route for a LID is read once, into a reused
// buffer holding a block of LID columns. Edges are deduplicated in a
// per-channel row of stride slots (a channel's successors all sit on the
// one switch its link leads to), so no edge goes through a map.
func BuildSwitchCDG(t *topology.Topology, r LFTRoutes, dlids []ib.LID) *Dense {
	return buildSwitch(t, r.NodeOf, dlids, r)
}

// BuildSwitchUnion builds the union CDG Rold ∪ Rnew of the paper's
// section VI-C transition check in one pass: every edge carries SideOld,
// SideNew or both, so HasCycleOn(SideOld) and HasCycleOn(SideNew) give the
// constituent verdicts without building either graph separately. LID
// ownership is taken from rOld; both routing functions must agree on it.
func BuildSwitchUnion(t *topology.Topology, rOld, rNew LFTRoutes, dlids []ib.LID) *Dense {
	return buildSwitch(t, rOld.NodeOf, dlids, rOld, rNew)
}

// buildSwitch builds the switch CDG of each routing function in sides,
// tagging edges from sides[k] with bit k. A single-sided build is left
// untagged.
func buildSwitch(t *topology.Topology, nodeOf func(ib.LID) topology.NodeID, dlids []ib.LID, sides ...LFTRoutes) *Dense {
	sp := NewSpace(t)
	nsw, stride := len(sp.switches), sp.stride
	nchan := nsw * stride
	// next[c] is the dense index of the switch channel c's (up) link leads
	// to, or -1; live[c] marks a channel a dependency may end on — one with
	// a peer, whatever its link state, as in BuildFromLFTs.
	next := make([]int32, nchan)
	live := make([]bool, nchan)
	for i, id := range sp.switches {
		ports := t.Node(id).Ports
		for p := 0; p < stride; p++ {
			c := i*stride + p
			next[c] = -1
			if p == 0 || p >= len(ports) || ports[p].Peer == topology.NoNode {
				continue
			}
			live[c] = true
			if ports[p].Up {
				next[c] = int32(sp.switchIndex(ports[p].Peer))
			}
		}
	}
	cols := make([]*columns, len(sides))
	for k, r := range sides {
		cols[k] = newColumns(sp, r)
	}
	// Owned destinations in ascending LID order, so a block's table reads
	// share LFT blocks whatever order the caller passed.
	type dest struct {
		lid ib.LID
		sw  int32 // dense index of a switch destination, else -1
	}
	dests := make([]dest, 0, len(dlids))
	for _, l := range dlids {
		if dst := nodeOf(l); dst != topology.NoNode {
			dests = append(dests, dest{l, int32(sp.switchIndex(dst))})
		}
	}
	sort.Slice(dests, func(a, b int) bool { return dests[a].lid < dests[b].lid })
	// marks[c*stride+q] collects the side bits of the edge from c to port q
	// of the switch next[c]: the per-source-channel dedup row.
	marks := make([]uint8, nchan*stride)
	valid := func(p ib.PortNum) bool { return p != 0 && p != ib.DropPort && int(p) < stride }
	block := make([]ib.LID, 0, colBlock)
	for lo := 0; lo < len(dests); lo += colBlock {
		bd := dests[lo:min(lo+colBlock, len(dests))]
		block = block[:0]
		for _, d := range bd {
			block = append(block, d.lid)
		}
		for k, col := range cols {
			bit := uint8(1) << k
			ports := col.read(block)
			for i := 0; i < nsw; i++ {
				for d, out := range ports[i*colBlock : i*colBlock+len(bd)] {
					di := bd[d].sw
					if int32(i) == di || !valid(out) {
						continue
					}
					c := i*stride + int(out)
					j := next[c]
					if j < 0 || j == di {
						continue
					}
					out2 := ports[int(j)*colBlock+d]
					if !valid(out2) || !live[int(j)*stride+int(out2)] {
						continue
					}
					marks[c*stride+int(out2)] |= bit
				}
			}
		}
	}

	nedges := 0
	for _, m := range marks {
		if m != 0 {
			nedges++
		}
	}
	g := &Dense{space: sp, start: make([]int32, nchan+1),
		to: make([]int32, 0, nedges), side: make([]uint8, 0, nedges)}
	for c := 0; c < nchan; c++ {
		g.start[c] = int32(len(g.to))
		j := next[c]
		if j < 0 {
			continue
		}
		for q, m := range marks[c*stride : (c+1)*stride] {
			if m != 0 {
				g.to = append(g.to, int32(int(j)*stride+q))
				g.side = append(g.side, m)
			}
		}
	}
	g.start[nchan] = int32(len(g.to))
	if len(sides) == 1 {
		g.side = nil
	}
	return g
}
