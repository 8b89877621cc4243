package api

import (
	"fmt"
	"strconv"

	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// VMInfo is one VM in a snapshot (and in VM listings).
type VMInfo struct {
	Name    string          `json:"name"`
	Node    topology.NodeID `json:"hypervisor"`
	HypDesc string          `json:"hypervisor_desc,omitempty"`
	VF      int             `json:"vf"`
	LID     uint16          `json:"lid"`
	GUID    string          `json:"guid"`
	GID     string          `json:"gid,omitempty"`
}

// HypInfo is one hypervisor in a snapshot. Zone is the owning shard's zone
// in sharded mode (always 0 — and omitted — in single-actor mode).
type HypInfo struct {
	Node     topology.NodeID `json:"node"`
	Desc     string          `json:"desc"`
	LID      uint16          `json:"lid"`
	VFs      int             `json:"vfs"`
	Attached int             `json:"attached"`
	Zone     int             `json:"zone,omitempty"`
}

// Snapshot is an immutable view of the fabric at one generation, published
// by the command loop after every mutation and read lock-free by every GET
// handler. Its tables are persistent (cow.go): a VM command publishes the
// previous snapshot patched with only the VMs, hypervisors, LIDs and switch
// tables it changed, and shares everything else. The LFT clones are
// copy-on-write too: a table whose identity (object, ib.LFT.Rev) did not
// move between generations is shared rather than re-cloned.
type Snapshot struct {
	Gen    uint64
	Fabric string
	Model  string
	SMNode topology.NodeID

	topo      *topology.Topology                // static after build; safe to share
	vms       cowList[string, VMInfo]           // by name
	hyps      cowList[topology.NodeID, HypInfo] // by node
	lidOf     cowArray[ib.LID]                  // base LID by node ID
	nodeOfLID cowArray[topology.NodeID]         // owner by LID; NoNode when unbound
	lfts      cowArray[*ib.LFT]                 // immutable clones by switch node ID
}

func (v VMInfo) key() string           { return v.Name }
func (h HypInfo) key() topology.NodeID { return h.Node }

// VMs returns the snapshot's VMs in name order (nil when there are none).
func (sn *Snapshot) VMs() []VMInfo { return sn.vms.all() }

// NumVMs returns how many VMs the snapshot holds.
func (sn *Snapshot) NumVMs() int { return sn.vms.len() }

// VM looks one VM up by name in O(log n).
func (sn *Snapshot) VM(name string) (VMInfo, bool) { return sn.vms.get(name) }

// Hyps returns the snapshot's hypervisors in node order.
func (sn *Snapshot) Hyps() []HypInfo { return sn.hyps.all() }

// lft returns the snapshot's clone of a switch's programmed table (nil when
// the switch was never programmed).
func (sn *Snapshot) lft(sw topology.NodeID) *ib.LFT { return sn.lfts.get(int(sw)) }

// lftIdentity is the copy-on-write cache key for one switch's programmed
// table. The revision alone is not enough: the SM *replaces* the programmed
// LFT object on every fully-successful distribution (with a clone of the
// target, which carries the target's own revision counter) and on SM
// handover adoption — a fresh object can coincidentally repeat the last
// recorded revision while holding different routes. Keying on (object,
// revision) re-clones whenever either moves.
type lftIdentity struct {
	src *ib.LFT
	rev uint64
}

// snapPatch names what a VM command touched: the snapshot publisher
// re-reads exactly these VMs, the hypervisors they are on now, and the
// listed hypervisors (where a VM was before the command).
type snapPatch struct {
	vms  []string
	hyps []topology.NodeID
}

// publish advances the generation and stores the next snapshot: prev
// patched with p, or — for fabric-wide commands (p == nil) and after an SM
// handover swapped c.SM — a full rebuild. It runs on the command loop (or
// in NewServer before the loop starts); it reads the cloud directly, which
// no published snapshot ever does.
func (s *Server) publish(p *snapPatch) *Snapshot {
	s.gen++
	prev := s.snap.Load()
	var sn *Snapshot
	if p == nil || prev == nil || s.c.SM != s.snapSM {
		s.c.SM.DrainAddressChanges() // the rebuild reads every address
		s.snapSM = s.c.SM
		sn = s.buildSnapshot(prev)
		s.reg.Counter("api.snapshot.rebuilds").Inc()
	} else {
		sn = s.patchSnapshot(prev, p)
	}
	s.snap.Store(sn)
	s.reg.Gauge("api.snapshot.generation").Set(int64(s.gen))
	return sn
}

// buildSnapshot builds generation s.gen from scratch, borrowing only the
// unchanged LFT clones of prev (which may be nil). It is the fallback for
// fabric-wide commands and the from-scratch twin the patched publish is
// tested against.
func (s *Server) buildSnapshot(prev *Snapshot) *Snapshot {
	topo := s.c.SM.Topo
	sn := &Snapshot{
		Gen:    s.gen,
		Fabric: topo.String(),
		Model:  s.c.Model.String(),
		SMNode: s.c.SM.SMNode,
		topo:   topo,
	}

	sn.lidOf, sn.nodeOfLID = s.addressTables()

	hyps := make([]HypInfo, 0, len(s.c.Hypervisors()))
	for _, hn := range s.c.Hypervisors() {
		hyps = append(hyps, s.hypInfo(hn))
	}
	sn.hyps = cowListOf(hyps)
	names := s.c.VMs()
	vms := make([]VMInfo, 0, len(names))
	for _, name := range names {
		vms = append(vms, s.vmInfo(s.c.VM(name)))
	}
	sn.vms = cowListOf(vms)

	var prevLFTs cowArray[*ib.LFT]
	if prev != nil {
		prevLFTs = prev.lfts
	}
	sn.lfts = s.syncLFTs(prevLFTs)
	return sn
}

// addressTables reads both of the SM's address maps whole: base LID by
// node, and owner by LID (one pass over the SM's maps; the per-node
// alternative, ExtraLIDsOf for every CA, rescans the extra-LID map per
// node).
func (s *Server) addressTables() (cowArray[ib.LID], cowArray[topology.NodeID]) {
	topo := s.c.SM.Topo
	bases := newCOWArray(ib.LIDUnassigned).edit()
	for _, ids := range [][]topology.NodeID{topo.Switches(), topo.CAs()} {
		for _, id := range ids {
			bases.set(int(id), s.c.SM.LIDOf(id))
		}
	}
	owners := newCOWArray(topology.NoNode).edit()
	for l, n := range s.c.SM.AddressView() {
		owners.set(int(l), n)
	}
	return bases.done(), owners.done()
}

// patchSnapshot builds generation s.gen from prev by re-reading only what
// changed: the LIDs the SM recorded as rebound since the last publish, the
// VMs and hypervisors the command touched, and the switch tables whose
// identity moved.
func (s *Server) patchSnapshot(prev *Snapshot, p *snapPatch) *Snapshot {
	sn := *prev
	sn.Gen = s.gen
	hyps := p.hyps
	if lids := s.c.SM.DrainAddressChanges(); len(lids) > 0 {
		owners, bases := sn.nodeOfLID.edit(), sn.lidOf.edit()
		for _, l := range lids {
			n := s.c.SM.NodeOfLID(l)
			owners.set(int(l), n)
			if n != topology.NoNode && s.c.SM.LIDOf(n) == l {
				bases.set(int(n), l)
				hyps = append(hyps, n) // a hypervisor's row carries its base LID
			}
		}
		sn.nodeOfLID, sn.lidOf = owners.done(), bases.done()
	}
	for _, name := range p.vms {
		if vm := s.c.VM(name); vm != nil {
			sn.vms = sn.vms.set(s.vmInfo(vm))
			hyps = append(hyps, vm.Hyp)
		} else {
			sn.vms = sn.vms.del(name)
		}
	}
	for _, hn := range hyps {
		if s.c.Hypervisor(hn) != nil {
			sn.hyps = sn.hyps.set(s.hypInfo(hn))
		}
	}
	sn.lfts = s.syncLFTs(prev.lfts)
	return &sn
}

// syncLFTs returns prev with every switch whose programmed table changed
// identity re-cloned. It checks every switch, so LFT writes made outside
// any command (a harness resweep, an injected corruption) are picked up.
func (s *Server) syncLFTs(prev cowArray[*ib.LFT]) cowArray[*ib.LFT] {
	topo := s.c.SM.Topo
	if n := topo.NumNodes(); len(s.lftRevs) < n {
		s.lftRevs = append(s.lftRevs, make([]lftIdentity, n-len(s.lftRevs))...)
	}
	e := prev.edit()
	clones := 0
	for _, sw := range topo.Switches() {
		cur := s.c.SM.ProgrammedLFT(sw)
		if cur == nil {
			e.set(int(sw), nil)
			continue
		}
		id := lftIdentity{src: cur, rev: cur.Rev()}
		if prev.get(int(sw)) != nil && s.lftRevs[sw] == id {
			continue
		}
		e.set(int(sw), cur.Clone())
		s.lftRevs[sw] = id
		clones++
	}
	s.reg.Counter("api.snapshot.lft_clones").Add(int64(clones))
	return e.done()
}

// vmInfo renders one VM for the snapshot.
func (s *Server) vmInfo(vm *cloud.VM) VMInfo {
	return VMInfo{
		Name:    vm.Name,
		Node:    vm.Hyp,
		HypDesc: s.c.SM.Topo.Node(vm.Hyp).Desc,
		VF:      vm.VF,
		LID:     uint16(vm.Addr.LID),
		GUID:    vm.Addr.GUID.String(),
		GID:     vm.Addr.GID.String(),
	}
}

// hypInfo renders one hypervisor for the snapshot.
func (s *Server) hypInfo(hn topology.NodeID) HypInfo {
	h := s.c.Hypervisor(hn)
	return HypInfo{
		Node:     hn,
		Desc:     s.c.SM.Topo.Node(hn).Desc,
		LID:      uint16(s.c.SM.LIDOf(hn)),
		VFs:      h.HCA.NumVFs(),
		Attached: h.HCA.AttachedCount(),
	}
}

// PathHop is one switch traversal of a walked path.
type PathHop struct {
	Switch topology.NodeID `json:"switch"`
	Desc   string          `json:"desc"`
	Egress ib.PortNum      `json:"egress_port"`
}

// PathResponse answers GET /v1/paths/{src}/{dst}: the switch-by-switch
// route the programmed LFTs give traffic from src to dst's LID.
type PathResponse struct {
	Src        string          `json:"src"`
	Dst        string          `json:"dst"`
	SrcNode    topology.NodeID `json:"src_node"`
	DstNode    topology.NodeID `json:"dst_node"`
	DstLID     uint16          `json:"dst_lid"`
	Generation uint64          `json:"generation"`
	Hops       []PathHop       `json:"hops"`
}

// resolve maps a path endpoint token — a VM name or a numeric node ID — to
// the node traffic enters/leaves the fabric at and the LID addressing it.
func (sn *Snapshot) resolve(token string) (topology.NodeID, ib.LID, error) {
	if vm, ok := sn.VM(token); ok {
		return vm.Node, ib.LID(vm.LID), nil
	}
	id, err := strconv.Atoi(token)
	if err != nil {
		return topology.NoNode, 0, fmt.Errorf("no VM or node %q", token)
	}
	node := topology.NodeID(id)
	if sn.topo.Node(node) == nil {
		return topology.NoNode, 0, fmt.Errorf("no node %d", node)
	}
	lid := sn.lidOf.get(int(node))
	if lid == ib.LIDUnassigned {
		return topology.NoNode, 0, fmt.Errorf("node %d has no LID", node)
	}
	return node, lid, nil
}

// maxPathHops bounds the LFT walk; any sane fabric routes in far fewer,
// so hitting it means the programmed tables loop.
const maxPathHops = 64

// Path walks dst's LID through the snapshot's LFT clones starting at src's
// leaf switch — the same walk routing.Verify does, but against the
// *programmed* (distributed) tables and served concurrently with mutations.
func (sn *Snapshot) Path(src, dst string) (PathResponse, error) {
	var resp PathResponse
	srcNode, _, err := sn.resolve(src)
	if err != nil {
		return resp, err
	}
	dstNode, dstLID, err := sn.resolve(dst)
	if err != nil {
		return resp, err
	}
	resp = PathResponse{
		Src: src, Dst: dst,
		SrcNode: srcNode, DstNode: dstNode,
		DstLID: uint16(dstLID), Generation: sn.Gen,
		Hops: []PathHop{},
	}
	if srcNode == dstNode {
		return resp, nil
	}
	cur := srcNode
	if !sn.topo.Node(cur).IsSwitch() {
		cur = sn.topo.LeafSwitchOf(cur)
		if cur == topology.NoNode {
			return resp, fmt.Errorf("node %d has no connected leaf switch", srcNode)
		}
	}
	for range [maxPathHops]struct{}{} {
		lft := sn.lft(cur)
		if lft == nil {
			return resp, fmt.Errorf("switch %d has no programmed LFT", cur)
		}
		out := lft.Get(dstLID)
		if out == ib.DropPort {
			return resp, fmt.Errorf("LID %d drops at switch %d", dstLID, cur)
		}
		node := sn.topo.Node(cur)
		if int(out) >= len(node.Ports) {
			return resp, fmt.Errorf("switch %d routes LID %d to missing port %d", cur, dstLID, out)
		}
		port := node.Ports[out]
		if port.Peer == topology.NoNode || !port.Up {
			return resp, fmt.Errorf("switch %d routes LID %d out a down port %d", cur, dstLID, out)
		}
		resp.Hops = append(resp.Hops, PathHop{Switch: cur, Desc: node.Desc, Egress: out})
		if port.Peer == dstNode {
			return resp, nil
		}
		peer := sn.topo.Node(port.Peer)
		if !peer.IsSwitch() {
			return resp, fmt.Errorf("LID %d delivered to wrong CA %d (want %d)", dstLID, port.Peer, dstNode)
		}
		cur = port.Peer
	}
	return resp, fmt.Errorf("no path after %d hops: LFTs loop", maxPathHops)
}
