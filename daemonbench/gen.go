package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"ibvsim/internal/api"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// opKind names one step of a workload: an HTTP request against the daemon,
// or a link-state change the benchmark makes to the fabric directly.
type opKind uint8

const (
	opCreate opKind = iota
	opMigrate
	opDestroy
	opPath
	opExplain
	opLinkDown
	opLinkUp
	opReconfigure
	opFullAudit
	opDryRun
	opApply
)

var kindNames = [...]string{"create", "migrate", "destroy", "path", "explain", "link_down", "link_up",
	"reconfigure", "full_audit", "dry_run", "apply"}

func (k opKind) String() string { return kindNames[k] }
func (k opKind) mutating() bool { return k == opCreate || k == opMigrate || k == opDestroy }
func (k opKind) read() bool     { return k == opPath || k == opExplain }

// op is one generated step. The generator fills the request fields; the
// workload loop fills the outcome fields once the reply is in.
type op struct {
	kind opKind
	vm   string          // subject VM, or a read's destination VM
	src  string          // a read's source VM
	hyp  topology.NodeID // create placement or migrate destination
	from topology.NodeID // migrate source, as the model has it
	sw   topology.NodeID // link ops: the switch end of the link
	port ib.PortNum

	// Outcome.
	ok     bool
	latMS  float64
	reconf api.ReconfigureResponse // reconfigure replies
	recon  api.ReconcileResponse   // dry-run and apply replies
}

// request renders the op as the HTTP request the daemon receives. Link ops
// are not requests and return an empty method.
func (o *op) request() (method, path string, body []byte) {
	switch o.kind {
	case opCreate:
		body, _ = json.Marshal(api.CreateVMRequest{Name: o.vm, Hypervisor: &o.hyp})
		return "POST", "/v1/vms", body
	case opMigrate:
		body, _ = json.Marshal(api.MigrateVMRequest{Destination: o.hyp})
		return "POST", "/v1/vms/" + url.PathEscape(o.vm) + "/migrate", body
	case opDestroy:
		return "DELETE", "/v1/vms/" + url.PathEscape(o.vm), nil
	case opPath:
		return "GET", "/v1/paths/" + url.PathEscape(o.src) + "/" + url.PathEscape(o.vm), nil
	case opExplain:
		return "GET", "/v1/explain?" + url.Values{"src": {o.src}, "dst": {o.vm}}.Encode(), nil
	case opReconfigure:
		return "POST", "/v1/reconfigure", nil
	case opFullAudit:
		return "GET", "/v1/audit?run=full", nil
	case opDryRun:
		return "POST", "/v1/reconcile?goal=defrag&dry_run=1", nil
	case opApply:
		return "POST", "/v1/reconcile?goal=defrag", nil
	}
	return "", "", nil
}

// line is the op's entry in the request sequence: exactly what the program
// receives, so two sequences are equal iff the program saw the same inputs.
func (o *op) line() string {
	switch o.kind {
	case opLinkDown:
		return fmt.Sprintf("LINK %d/%d down\n", o.sw, o.port)
	case opLinkUp:
		return fmt.Sprintf("LINK %d/%d up\n", o.sw, o.port)
	}
	m, p, b := o.request()
	return m + " " + p + " " + string(b) + "\n"
}

// fleet is the client-side capacity model: which VMs exist, where the model
// put them, and how many VF slots each hypervisor has promised (occupied or
// reserved by an in-flight create or migration). Slots are reserved when an
// op is issued and released when its reply arrives, so no request the model
// issues can fail for lack of capacity or collide with another in-flight op
// on the same VM, in any interleaving of concurrent clients. Every choice is
// drawn from the fleet's seeded source over slices, never from map order.
type fleet struct {
	rng   *rand.Rand
	hyps  []topology.NodeID
	vfs   int
	used  map[topology.NodeID]int
	hypOf map[string]topology.NodeID
	idle  []string // live VMs not checked out by an in-flight op
	pos   map[string]int
	names int
}

func newFleet(hyps []topology.NodeID, vfs int, seed int64) *fleet {
	return &fleet{
		rng:   rand.New(rand.NewSource(seed)),
		hyps:  hyps,
		vfs:   vfs,
		used:  map[topology.NodeID]int{},
		hypOf: map[string]topology.NodeID{},
		pos:   map[string]int{},
	}
}

// newName returns a fresh VM name.
func (f *fleet) newName() string {
	f.names++
	return "vm-" + strconv.Itoa(f.names)
}

// freeHyp picks a hypervisor uniformly among those with a free slot, other
// than not; NoNode when none has one.
func (f *fleet) freeHyp(not topology.NodeID) topology.NodeID {
	free := func(h topology.NodeID) bool { return h != not && f.used[h] < f.vfs }
	for range 64 {
		if h := f.hyps[f.rng.Intn(len(f.hyps))]; free(h) {
			return h
		}
	}
	start := f.rng.Intn(len(f.hyps))
	for i := range f.hyps {
		if h := f.hyps[(start+i)%len(f.hyps)]; free(h) {
			return h
		}
	}
	return topology.NoNode
}

// reserve promises one slot on h.
func (f *fleet) reserve(h topology.NodeID) { f.used[h]++ }

// release returns one slot on h.
func (f *fleet) release(h topology.NodeID) { f.used[h]-- }

// place records a VM as live and idle on h (its slot already reserved).
func (f *fleet) place(name string, h topology.NodeID) {
	f.hypOf[name] = h
	f.checkin(name)
}

// checkout removes a random idle VM from the pool ("" when none is idle).
func (f *fleet) checkout() string {
	if len(f.idle) == 0 {
		return ""
	}
	name := f.idle[f.rng.Intn(len(f.idle))]
	f.take(name)
	return name
}

// take removes a specific idle VM from the pool.
func (f *fleet) take(name string) {
	i := f.pos[name]
	last := f.idle[len(f.idle)-1]
	f.idle[i] = last
	f.pos[last] = i
	f.idle = f.idle[:len(f.idle)-1]
	delete(f.pos, name)
}

// checkin returns a VM to the idle pool.
func (f *fleet) checkin(name string) {
	f.pos[name] = len(f.idle)
	f.idle = append(f.idle, name)
}

// forget drops a destroyed (checked-out) VM and frees its slot.
func (f *fleet) forget(name string) {
	f.release(f.hypOf[name])
	delete(f.hypOf, name)
}

// placement returns a copy of the model's VM -> hypervisor map.
func (f *fleet) placement() map[string]topology.NodeID {
	out := make(map[string]topology.NodeID, len(f.hypOf))
	for k, v := range f.hypOf {
		out[k] = v
	}
	return out
}

// prefillPlan picks the hypervisors of the seeded prefill population: one
// VM on a quarter of the hypervisors, chosen by a seeded permutation.
func prefillPlan(hyps []topology.NodeID, seed int64) []topology.NodeID {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(hyps))
	n := (len(hyps) + 3) / 4
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = hyps[perm[i]]
	}
	return out
}

func prefillName(i int) string { return fmt.Sprintf("pre-%05d", i) }
