// Package cdg implements channel dependency graphs (CDGs) for deadlock
// analysis of routed InfiniBand fabrics.
//
// A channel is a directed link (node, egress port). A routing function
// induces a dependency from channel A to channel B whenever some packet may
// hold A while requesting B. By Dally & Seitz / Duato's condition, a
// deterministic routing function is deadlock free on a lossless network iff
// its CDG is acyclic.
//
// The package supports three uses from the paper:
//   - verifying that a routing engine's LFTs are deadlock free,
//   - checking the *transition* state Rold ∪ Rnew during reconfiguration
//     (section VI-C: the union may deadlock even when both are safe),
//   - the incremental add-path/rollback workflow LASH uses to assign paths
//     to virtual-lane layers.
//
// Three representations serve them. Dense (dense.go) is the working CDG:
// a CSR over dense switch-channel ids that the audit and DFSSSP build and
// search. Ordered is LASH's incremental Pearce-Kelly graph. The map-keyed
// Graph is the complete-CDG reference (BuildFromLFTs, Union) for offline
// analyses and tests.
package cdg

import (
	"fmt"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// Channel identifies a directed link by its transmitting node and port.
type Channel struct {
	Node topology.NodeID
	Port ib.PortNum
}

// String implements fmt.Stringer.
func (c Channel) String() string { return fmt.Sprintf("ch(%d:%d)", c.Node, c.Port) }

// Graph is a map-keyed channel dependency graph over arbitrary channels,
// CA injection channels included. The zero value is not usable; construct
// with NewGraph.
type Graph struct {
	ids   map[Channel]int
	chans []Channel
	adj   [][]int
	edges map[[2]int]int // multiplicity, for rollback support
}

// NewGraph returns an empty CDG.
func NewGraph() *Graph {
	return &Graph{ids: map[Channel]int{}, edges: map[[2]int]int{}}
}

// NumChannels returns the number of distinct channels seen.
func (g *Graph) NumChannels() int { return len(g.chans) }

// NumEdges returns the number of distinct dependency edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

func (g *Graph) channelID(c Channel) int {
	if id, ok := g.ids[c]; ok {
		return id
	}
	id := len(g.chans)
	g.ids[c] = id
	g.chans = append(g.chans, c)
	g.adj = append(g.adj, nil)
	return id
}

// AddDep records a dependency from channel a to channel b, returning true
// if the edge is new (multiplicity went 0 -> 1).
func (g *Graph) AddDep(a, b Channel) bool {
	ai, bi := g.channelID(a), g.channelID(b)
	key := [2]int{ai, bi}
	g.edges[key]++
	if g.edges[key] == 1 {
		g.adj[ai] = append(g.adj[ai], bi)
		return true
	}
	return false
}

// RemoveDep decrements the multiplicity of the edge a->b, removing it from
// the adjacency structure when it reaches zero.
func (g *Graph) RemoveDep(a, b Channel) {
	ai, ok := g.ids[a]
	if !ok {
		return
	}
	bi, ok := g.ids[b]
	if !ok {
		return
	}
	key := [2]int{ai, bi}
	if g.edges[key] == 0 {
		return
	}
	g.edges[key]--
	if g.edges[key] > 0 {
		return
	}
	delete(g.edges, key)
	lst := g.adj[ai]
	for i, v := range lst {
		if v == bi {
			lst[i] = lst[len(lst)-1]
			g.adj[ai] = lst[:len(lst)-1]
			break
		}
	}
}

// HasCycle reports whether the CDG contains a directed cycle.
func (g *Graph) HasCycle() bool { return g.FindCycle() != nil }

// FindCycle returns one directed cycle as a channel sequence (first element
// repeated at the end), or nil if the graph is acyclic. Iterative DFS with
// the classic white/grey/black colouring.
func (g *Graph) FindCycle() []Channel {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, len(g.chans))
	parent := make([]int, len(g.chans))
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		node int
		next int
	}
	for start := range g.chans {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.node]) {
				to := g.adj[f.node][f.next]
				f.next++
				switch color[to] {
				case white:
					color[to] = grey
					parent[to] = f.node
					stack = append(stack, frame{node: to})
				case grey:
					// Found a cycle: walk parents from f.node back to `to`.
					cyc := []Channel{g.chans[to]}
					for v := f.node; v != to; v = parent[v] {
						cyc = append(cyc, g.chans[v])
					}
					// reverse to get forward order, then close the loop
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					cyc = append(cyc, cyc[0])
					return cyc
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// Edges returns every distinct dependency edge currently in the graph, in
// unspecified order.
func (g *Graph) Edges() [][2]Channel {
	out := make([][2]Channel, 0, len(g.edges))
	for k := range g.edges {
		out = append(out, [2]Channel{g.chans[k[0]], g.chans[k[1]]})
	}
	return out
}

// Union returns a new graph containing the edges of all the given graphs.
// The transition analysis of the paper's section VI-C checks the union of
// the old and new routing functions' CDGs.
func Union(graphs ...*Graph) *Graph {
	u := NewGraph()
	for _, g := range graphs {
		for _, e := range g.Edges() {
			u.AddDep(e[0], e[1])
		}
	}
	return u
}

// PathDeps returns the dependency edges induced by routing a packet along
// the given node path (n0, n1, ..., nk): one edge per adjacent channel
// pair. The topology supplies the egress port for each hop.
func PathDeps(t *topology.Topology, path []topology.NodeID) ([][2]Channel, error) {
	if len(path) < 2 {
		return nil, nil
	}
	chans := make([]Channel, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		p := t.PortToward(path[i], path[i+1])
		if p == 0 {
			return nil, fmt.Errorf("cdg: %d and %d are not adjacent", path[i], path[i+1])
		}
		chans = append(chans, Channel{Node: path[i], Port: p})
	}
	deps := make([][2]Channel, 0, len(chans)-1)
	for i := 0; i+1 < len(chans); i++ {
		deps = append(deps, [2]Channel{chans[i], chans[i+1]})
	}
	return deps, nil
}

// AddPath adds the dependencies of a node path, returning the edges that
// were newly created so the caller can roll back with RemovePath.
func (g *Graph) AddPath(t *topology.Topology, path []topology.NodeID) ([][2]Channel, error) {
	deps, err := PathDeps(t, path)
	if err != nil {
		return nil, err
	}
	for _, d := range deps {
		g.AddDep(d[0], d[1])
	}
	return deps, nil
}

// RemovePath rolls back edges previously returned by AddPath.
func (g *Graph) RemovePath(deps [][2]Channel) {
	for _, d := range deps {
		g.RemoveDep(d[0], d[1])
	}
}

// LFTRoutes is the minimal view of a routed subnet that BuildFromLFTs
// needs: per-switch forwarding and the location of each LID.
type LFTRoutes interface {
	// SwitchRoute returns the egress port of switch sw for dlid, or
	// ib.DropPort when unrouted.
	SwitchRoute(sw topology.NodeID, dlid ib.LID) ib.PortNum
	// NodeOf returns the node that owns a LID (for termination).
	NodeOf(l ib.LID) topology.NodeID
}

// BuildFromLFTs constructs the complete CDG induced by the routing of the
// given destination LIDs. For each destination and each switch that routes
// it, dependencies run from every ingress channel that can carry traffic
// for that destination into the switch, to the switch's egress channel.
//
// Ingress channels considered are (a) injection channels from CAs attached
// to the switch and (b) channels from neighbouring switches whose own route
// for the destination points at this switch. This exactly captures the
// traffic the routing function can generate.
func BuildFromLFTs(t *topology.Topology, r LFTRoutes, dlids []ib.LID) *Graph {
	g := NewGraph()
	for _, dlid := range dlids {
		dst := r.NodeOf(dlid)
		if dst == topology.NoNode {
			continue
		}
		for _, swID := range t.Switches() {
			if swID == dst {
				continue
			}
			out := r.SwitchRoute(swID, dlid)
			if out == ib.DropPort || out == 0 {
				continue
			}
			sw := t.Node(swID)
			if int(out) >= len(sw.Ports) || sw.Ports[out].Peer == topology.NoNode {
				continue
			}
			egress := Channel{Node: swID, Port: out}
			// Ingress from neighbours that forward dlid into swID.
			for i := 1; i < len(sw.Ports); i++ {
				p := sw.Ports[i]
				if p.Peer == topology.NoNode || !p.Up {
					continue
				}
				nb := t.Node(p.Peer)
				if nb.IsSwitch() {
					if r.SwitchRoute(p.Peer, dlid) == p.PeerPort {
						g.AddDep(Channel{Node: p.Peer, Port: p.PeerPort}, egress)
					}
				} else if p.Peer != dst {
					// CA injection channel.
					g.AddDep(Channel{Node: p.Peer, Port: p.PeerPort}, egress)
				}
			}
		}
	}
	return g
}
