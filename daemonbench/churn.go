package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// churnWorkload is the paper's operation at the paper's largest fabric: a
// seeded create 1 : migrate 2 : destroy 1 : read 4 mix from two clients
// over a prefilled population, with uniform migration destinations.
var churnWorkload = &workload{
	name:    "churn-11664",
	nodes:   11664,
	setups:  3,
	clients: 2,
	prefill: true,
	run:     runChurn,
	replay:  replayChurn,
}

// opsSeed derives the op stream's seed from the workload seed, so the op
// stream and the prefill population draw from different sources.
func opsSeed(seed int64) int64 { return seed ^ 0x5eed5eed }

// churnGen hands out the churn mix from one seeded source shared by the
// clients. With one client the sequence depends on the seed alone.
type churnGen struct {
	mu    sync.Mutex
	f     *fleet
	out   *runOut
	limit int
}

// newChurnFleet returns the model of a freshly prefilled fabric.
func newChurnFleet(hyps []topology.NodeID, seed int64) *fleet {
	fl := newFleet(hyps, vfsPerHyp, opsSeed(seed))
	for i, h := range prefillPlan(hyps, seed) {
		fl.reserve(h)
		fl.place(prefillName(i), h)
	}
	return fl
}

// next draws the next op, reserving what it needs in the model; nil when
// the limit is reached.
func (g *churnGen) next() *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.limit > 0 && len(g.out.ops) >= g.limit {
		return nil
	}
	f := g.f
	var o *op
	switch r := f.rng.Intn(8); {
	case r < 1:
	case r < 3:
		if vm := f.checkout(); vm != "" {
			from := f.hypOf[vm]
			if to := f.freeHyp(from); to != topology.NoNode {
				f.reserve(to)
				o = &op{kind: opMigrate, vm: vm, hyp: to, from: from}
			} else {
				f.checkin(vm)
			}
		}
	case r < 4:
		if vm := f.checkout(); vm != "" {
			o = &op{kind: opDestroy, vm: vm}
		}
	default:
		kind := opPath
		if f.rng.Intn(2) == 1 {
			kind = opExplain
		}
		if src := f.checkout(); src != "" {
			if dst := f.checkout(); dst != "" {
				o = &op{kind: kind, src: src, vm: dst, from: f.hypOf[src], hyp: f.hypOf[dst]}
			} else {
				f.checkin(src)
			}
		}
	}
	if o == nil { // a create, or the fallback when the draw found nothing to act on
		h := f.freeHyp(topology.NoNode)
		if h == topology.NoNode {
			return nil
		}
		f.reserve(h)
		o = &op{kind: opCreate, vm: f.newName(), hyp: h}
	}
	g.out.ops = append(g.out.ops, o)
	return o
}

// done applies an op's outcome to the model and releases what it held.
func (g *churnGen) done(o *op) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.f
	switch o.kind {
	case opCreate:
		if o.ok {
			f.place(o.vm, o.hyp)
		} else {
			f.release(o.hyp)
		}
	case opMigrate:
		if o.ok {
			f.release(o.from)
			f.hypOf[o.vm] = o.hyp
		} else {
			f.release(o.hyp)
		}
		f.checkin(o.vm)
	case opDestroy:
		if o.ok {
			f.forget(o.vm)
		} else {
			f.checkin(o.vm)
		}
	case opPath, opExplain:
		f.checkin(o.src)
		f.checkin(o.vm)
	}
}

func runChurn(f *fabric, cfg runCfg) *runOut {
	out := &runOut{extra: map[string][]float64{}}
	g := &churnGen{f: newChurnFleet(f.hyps, cfg.seed), out: out, limit: cfg.limit}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for range cfg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg.limit > 0 || time.Now().Before(cfg.deadline) {
				o := g.next()
				if o == nil {
					return
				}
				r := f.cl.doOp(o)
				msg := checkReply(o, r)
				o.ok = msg == ""
				end := time.Now()
				g.done(o)
				mu.Lock()
				out.record(o, msg, end.Before(cfg.deadline) || cfg.limit > 0)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.window = windowOf(cfg, start)
	out.final = g.f.placement()
	out.retries = f.cl.retries.Load()
	finalChecks(f, out)
	return out
}

// windowOf is the issuing window: up to the deadline, or the whole pass
// when it was bounded by an op limit.
func windowOf(cfg runCfg, start time.Time) time.Duration {
	if cfg.limit > 0 {
		return time.Since(start)
	}
	return cfg.deadline.Sub(start)
}

// record books one completed op into the pass totals.
func (out *runOut) record(o *op, msg string, inWindow bool) {
	out.attempted++
	if msg != "" {
		out.failed++
		out.problem("%s", msg)
	}
	switch {
	case o.kind.mutating():
		out.mutLat = append(out.mutLat, o.latMS)
		if o.ok && inWindow {
			out.mutOK++
		}
	case o.kind.read():
		out.readLat = append(out.readLat, o.latMS)
	}
	out.extra[o.kind.String()] = append(out.extra[o.kind.String()], o.latMS)
}

// checkReply checks a VM-lifecycle or read reply against the model; it
// returns "" when the reply is right.
func checkReply(o *op, r reply) string {
	m, p, _ := o.request()
	bad := func(format string, args ...any) string {
		return fmt.Sprintf("%s %s: ", m, p) + fmt.Sprintf(format, args...)
	}
	want := http.StatusOK
	if o.kind == opCreate {
		want = http.StatusCreated
	}
	if r.status != want {
		return bad("status %d, want %d: %s", r.status, want, r.body)
	}
	switch o.kind {
	case opCreate:
		var v api.VMResponse
		if err := json.Unmarshal(r.body, &v); err != nil {
			return bad("decode: %v", err)
		}
		if v.Node != o.hyp {
			return bad("placed on %d, want %d", v.Node, o.hyp)
		}
	case opMigrate:
		var v api.MigrateResponse
		if err := json.Unmarshal(r.body, &v); err != nil {
			return bad("decode: %v", err)
		}
		switch {
		case v.From != o.from || v.To != o.hyp:
			return bad("moved %d -> %d, want %d -> %d", v.From, v.To, o.from, o.hyp)
		case v.Cost.LFTSMPs != v.Cost.SpanSMPs:
			return bad("lft_smps %d != span_smps %d", v.Cost.LFTSMPs, v.Cost.SpanSMPs)
		case v.Cost.LFTSMPs > 2*v.Cost.SwitchesUpdated:
			return bad("lft_smps %d > 2 x switches_updated %d", v.Cost.LFTSMPs, v.Cost.SwitchesUpdated)
		}
	case opPath:
		var v api.PathResponse
		if err := json.Unmarshal(r.body, &v); err != nil {
			return bad("decode: %v", err)
		}
		if v.SrcNode != o.from || v.DstNode != o.hyp {
			return bad("walk %d -> %d, want %d -> %d", v.SrcNode, v.DstNode, o.from, o.hyp)
		}
	case opExplain:
		var v api.ExplainResponse
		if err := json.Unmarshal(r.body, &v); err != nil {
			return bad("decode: %v", err)
		}
		switch {
		case v.Error != "":
			return bad("walk failed: %s", v.Error)
		case v.SrcNode != o.from || v.DstNode != o.hyp:
			return bad("walk %d -> %d, want %d -> %d", v.SrcNode, v.DstNode, o.from, o.hyp)
		case v.Unknown != 0:
			return bad("%d of %d hops unattributed", v.Unknown, len(v.Hops))
		}
	}
	return ""
}

// finalChecks ends every pass: the daemon's audit counters must show no
// violation, and its VM listing must equal the model.
func finalChecks(f *fabric, out *runOut) {
	r := f.cl.do("GET", "/v1/audit", nil)
	var a struct {
		ViolationsTotal int64 `json:"violations_total"`
	}
	if err := json.Unmarshal(r.body, &a); r.status != http.StatusOK || err != nil {
		out.problem("GET /v1/audit: status %d, decode error %v", r.status, err)
	} else if a.ViolationsTotal != 0 {
		out.problem("GET /v1/audit: violations_total = %d, want 0", a.ViolationsTotal)
	}
	r = f.cl.do("GET", "/v1/vms", nil)
	var l struct {
		VMs []api.VMInfo `json:"vms"`
	}
	if err := json.Unmarshal(r.body, &l); r.status != http.StatusOK || err != nil {
		out.problem("GET /v1/vms: status %d, decode error %v", r.status, err)
		return
	}
	got := make(map[string]topology.NodeID, len(l.VMs))
	for _, vm := range l.VMs {
		got[vm.Name] = vm.Node
	}
	if msg := diffPlacement(got, out.final); msg != "" {
		out.problem("GET /v1/vms differs from the model: %s", msg)
	}
}

// diffPlacement describes the first difference between two placements
// ("" when equal).
func diffPlacement(got, want map[string]topology.NodeID) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d VMs, want %d", len(got), len(want))
	}
	for name, h := range want {
		if g, ok := got[name]; !ok || g != h {
			return fmt.Sprintf("VM %s on %d (present %v), want %d", name, g, ok, h)
		}
	}
	return ""
}

// replayChurn is churn's pass B: every successful mutation of pass A's
// sequence, in issue order, as the cloud call the actor loop makes followed
// by the op-scoped reachability audit it runs. Reads never reach the cloud.
func replayChurn(c *cloud.Cloud, out *runOut, s *samples) []string {
	aud := audit.New(c.SM.Telemetry(), nil, audit.Config{})
	var problems []string
	for _, o := range out.ops {
		if !o.ok || !o.kind.mutating() {
			continue
		}
		cloudMS, reachMS, err := replayVMOp(c, aud, o, s)
		if err != nil {
			problems = append(problems, fmt.Sprintf("replay %s: %v", o.line(), err))
			break
		}
		s.add("api.mutation_self_ms", o.latMS-cloudMS-reachMS)
	}
	got := map[string]topology.NodeID{}
	for _, name := range c.VMs() {
		got[name] = c.VM(name).Hyp
	}
	if msg := diffPlacement(got, out.final); msg != "" {
		problems = append(problems, "replayed placement differs from the sequence's: "+msg)
	}
	return problems
}

// replayVMOp runs one create, migrate or destroy on c the way the actor
// loop executes it, then the op-scoped audit over the LID columns it
// touched. It returns the cloud and audit times in milliseconds.
func replayVMOp(c *cloud.Cloud, aud *audit.Auditor, o *op, s *samples) (cloudMS, reachMS float64, err error) {
	var lids []ib.LID
	var vms []audit.VMBinding
	switch o.kind {
	case opCreate:
		t := time.Now()
		vm, err := c.CreateVMOn(o.vm, o.hyp)
		cloudMS = ms(time.Since(t))
		if err != nil {
			return 0, 0, err
		}
		s.add("cloud.create_ms", cloudMS)
		lids = []ib.LID{vm.Addr.LID}
		vms = []audit.VMBinding{{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp}}
	case opMigrate:
		vm := c.VM(o.vm)
		if vm == nil {
			return 0, 0, fmt.Errorf("no VM %s", o.vm)
		}
		srcHyp, srcVF := vm.Hyp, vm.VF
		a0 := heapAllocBytes()
		t := time.Now()
		rep, err := c.MigrateVM(o.vm, o.hyp)
		cloudMS = ms(time.Since(t))
		if err != nil {
			return 0, 0, err
		}
		s.add("cloud.migrate_ms", cloudMS)
		s.add("cloud.migrate_alloc_mb", mb(heapAllocBytes()-a0))
		s.add("core.switches_per_migrate", float64(rep.Plan.SwitchesUpdated))
		s.add("core.lft_smps_per_migrate", float64(rep.Plan.SMPs))
		if rep.Plan.SwitchesUpdated > 0 {
			s.add("core.smps_per_switch", float64(rep.Plan.SMPs)/float64(rep.Plan.SwitchesUpdated))
		}
		s.add("core.host_smps_per_migrate", float64(rep.HostSMPs))
		vm = c.VM(o.vm)
		lids = []ib.LID{vm.Addr.LID}
		if c.Model == sriov.VSwitchPrepopulated {
			lids = append(lids, c.Hypervisor(srcHyp).HCA.VFs[srcVF].LID)
		}
		vms = []audit.VMBinding{{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp}}
	case opDestroy:
		vm := c.VM(o.vm)
		if vm == nil {
			return 0, 0, fmt.Errorf("no VM %s", o.vm)
		}
		freed := vm.Addr.LID
		t := time.Now()
		err := c.DestroyVM(o.vm)
		cloudMS = ms(time.Since(t))
		if err != nil {
			return 0, 0, err
		}
		s.add("cloud.destroy_ms", cloudMS)
		if c.Model == sriov.VSwitchPrepopulated && freed != ib.LIDUnassigned {
			lids = []ib.LID{freed}
		}
	}
	if len(lids) == 0 {
		return cloudMS, 0, nil
	}
	reachMS = reachAudit(c, aud, lids, vms, s)
	return cloudMS, reachMS, nil
}

// reachAudit is the op-scoped audit as the daemon builds it: the touched
// LID columns plus the SM's own LID, resolved through the SM's accessors,
// checked at ScopeReach. It returns the audit's time in milliseconds.
func reachAudit(c *cloud.Cloud, aud *audit.Auditor, lids []ib.LID, vms []audit.VMBinding, s *samples) float64 {
	if smLID := c.SM.LIDOf(c.SM.SMNode); smLID != ib.LIDUnassigned {
		lids = append(lids, smLID)
	}
	v := &audit.View{
		Topo:       c.SM.Topo,
		LFTOf:      c.SM.ProgrammedLFT,
		NodeOfLID:  c.SM.ResolveLIDs(lids),
		ActiveLIDs: lids,
		VMs:        vms,
	}
	t := time.Now()
	rep := aud.Run(v, audit.ScopeReach)
	d := ms(time.Since(t))
	s.add("audit.reach_ms", d)
	s.add("audit.reach_lids", float64(len(lids)))
	s.add("audit.violations", float64(rep.Total))
	return d
}
