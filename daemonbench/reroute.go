package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// rerouteWorkload flaps one seeded trunk link per round under the SM's
// incremental routing, as the link-flap-storm-incremental campaign does:
// down, sweep, reconfigure, up, sweep, reconfigure, full audit.
var rerouteWorkload = &workload{
	name:        "reroute-648",
	nodes:       648,
	clients:     1,
	setups:      9,
	incremental: true,
	warm:        warmReconfigure,
	run:         runReroute,
	replay:      replayReroute,
}

// warmReconfigure is the set-up's warm-up: one reconfigure, which builds
// the incremental router's dependency index.
func warmReconfigure(f *fabric) error {
	r := f.cl.do("POST", "/v1/reconfigure", nil)
	if r.status != http.StatusOK {
		return fmt.Errorf("POST /v1/reconfigure: status %d: %s", r.status, r.body)
	}
	return nil
}

// trunk is one switch-to-switch link, named by its lower-numbered end.
type trunk struct {
	sw   topology.NodeID
	port ib.PortNum
}

// trunkLinks lists every switch-to-switch link once, in node and port
// order.
func trunkLinks(t *topology.Topology) []trunk {
	var out []trunk
	sws := t.Switches()
	sort.Slice(sws, func(i, j int) bool { return sws[i] < sws[j] })
	for _, sw := range sws {
		n := t.Node(sw)
		for i := 1; i < len(n.Ports); i++ {
			p := n.Ports[i]
			if p.Peer != topology.NoNode && p.Peer > sw && t.Node(p.Peer).IsSwitch() {
				out = append(out, trunk{sw, ib.PortNum(i)})
			}
		}
	}
	return out
}

// setLink changes a link's state and lets the SM notice: a light sweep
// (port-state diff) and a resweep. Between one client's requests the actor
// loop is idle, so the SM is touched by one goroutine at a time.
func setLink(c *cloud.Cloud, l trunk, up bool) error {
	if err := c.SM.Topo.SetLinkState(l.sw, l.port, up); err != nil {
		return err
	}
	if _, err := c.SM.LightSweep(); err != nil {
		return err
	}
	_, err := c.SM.Resweep()
	return err
}

func runReroute(f *fabric, cfg runCfg) *runOut {
	out := &runOut{extra: map[string][]float64{}}
	links := trunkLinks(f.c.SM.Topo)
	rng := rand.New(rand.NewSource(opsSeed(cfg.seed)))
	start := time.Now()
rounds:
	for round := 0; cfg.limit > 0 && round < cfg.limit || cfg.limit == 0 && time.Now().Before(cfg.deadline); round++ {
		l := links[rng.Intn(len(links))]
		for _, up := range []bool{false, true} {
			flip := &op{kind: opLinkDown, sw: l.sw, port: l.port}
			if up {
				flip.kind = opLinkUp
			}
			rc := &op{kind: opReconfigure}
			out.ops = append(out.ops, flip, rc)
			t := time.Now()
			if err := setLink(f.c, l, up); err != nil {
				out.attempted++
				out.failed++
				out.problem("%s: %v", flip.line(), err)
				break rounds
			}
			flip.latMS = ms(time.Since(t))
			r := f.cl.doOp(rc)
			lat := ms(time.Since(t))
			msg := checkReconfigure(rc, r)
			rc.ok = msg == ""
			out.attempted++
			if msg != "" {
				out.failed++
				out.problem("%s", msg)
			}
			out.mutLat = append(out.mutLat, lat)
			if rc.ok && (cfg.limit > 0 || time.Now().Before(cfg.deadline)) {
				out.mutOK++
			}
			out.extra["reroute"] = append(out.extra["reroute"], lat)
			out.extra["reconfigure"] = append(out.extra["reconfigure"], rc.latMS)
		}
		fa := &op{kind: opFullAudit}
		out.ops = append(out.ops, fa)
		msg := checkFullAudit(fa, f.cl.doOp(fa))
		fa.ok = msg == ""
		out.attempted++
		if msg != "" {
			out.failed++
			out.problem("%s", msg)
		}
		out.readLat = append(out.readLat, fa.latMS)
		out.extra["full_audit"] = append(out.extra["full_audit"], fa.latMS)
	}
	out.window = windowOf(cfg, start)
	out.final = map[string]topology.NodeID{}
	out.retries = f.cl.retries.Load()
	finalChecks(f, out)
	return out
}

func checkReconfigure(o *op, r reply) string {
	if r.status != http.StatusOK {
		return fmt.Sprintf("POST /v1/reconfigure: status %d: %s", r.status, r.body)
	}
	if err := json.Unmarshal(r.body, &o.reconf); err != nil {
		return fmt.Sprintf("POST /v1/reconfigure: decode: %v", err)
	}
	if !o.reconf.Incremental {
		return "POST /v1/reconfigure: incremental = false after warm-up"
	}
	return ""
}

func checkFullAudit(o *op, r reply) string {
	var a struct {
		ViolationsTotal int64         `json:"violations_total"`
		Last            *audit.Report `json:"last"`
	}
	if r.status != http.StatusOK {
		return fmt.Sprintf("GET /v1/audit?run=full: status %d", r.status)
	}
	if err := json.Unmarshal(r.body, &a); err != nil || a.Last == nil {
		return fmt.Sprintf("GET /v1/audit?run=full: decode: %v", err)
	}
	if a.ViolationsTotal != 0 || a.Last.Total != 0 || a.Last.Scope != "full" {
		return fmt.Sprintf("GET /v1/audit?run=full: violations_total %d, last %s pass %d violations",
			a.ViolationsTotal, a.Last.Scope, a.Last.Total)
	}
	return ""
}

// wireMonitor installs the transient-CDG monitor on a server-less cloud,
// built from the same public calls api.Server.WireTransitionMonitor makes,
// with a span and an allocation delta around each check. It returns a
// pointer to the duration of the most recent check.
func wireMonitor(c *cloud.Cloud, aud *audit.Auditor, s *samples) *float64 {
	last := new(float64)
	c.SM.OnDistribute = func(old, target map[topology.NodeID]*ib.LFT) {
		a0 := heapAllocBytes()
		t := time.Now()
		dlids := make([]ib.LID, 0, 64)
		for _, tg := range c.SM.Targets() {
			dlids = append(dlids, tg.LID)
		}
		rep := aud.CheckTransition(c.SM.Topo, old, target, c.SM.NodeOfLID, dlids)
		*last = ms(time.Since(t))
		s.add("audit.transition_ms", *last)
		s.add("audit.transition_alloc_mb", mb(heapAllocBytes()-a0))
		s.add("audit.violations", float64(rep.Total))
	}
	return last
}

// fullView is the fabric-wide audit view the daemon's snapshot gives the
// auditor, built from the SM's accessors: every owned LID, every VM.
func fullView(c *cloud.Cloud) *audit.View {
	nodeOf := c.SM.AddressView()
	lids := make([]ib.LID, 0, len(nodeOf))
	for l := range nodeOf {
		lids = append(lids, l)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	var vms []audit.VMBinding
	for _, name := range c.VMs() {
		vm := c.VM(name)
		vms = append(vms, audit.VMBinding{Name: vm.Name, LID: vm.Addr.LID, Hyp: vm.Hyp})
	}
	return &audit.View{Topo: c.SM.Topo, LFTOf: c.SM.ProgrammedLFT, NodeOfLID: nodeOf, ActiveLIDs: lids, VMs: vms}
}

// runAudit runs one fabric-wide pass and records its time and size under
// the given metric prefix (audit.fast or audit.full).
func runAudit(c *cloud.Cloud, aud *audit.Auditor, scope audit.Scope, prefix string, s *samples) float64 {
	v := fullView(c)
	t := time.Now()
	rep := aud.Run(v, scope)
	d := ms(time.Since(t))
	s.add(prefix+"_ms", d)
	s.add(prefix+"_lids", float64(rep.LIDsChecked))
	s.add("audit.violations", float64(rep.Total))
	return d
}

// replayReroute is reroute's pass B: the same link flips, then per
// reconfigure the SM calls ReconfigureCtx makes (ComputeRoutes, then
// DistributeDiffCtx with the monitor inside it) and the daemon's fast
// audit; per full-audit request a ScopeFull pass.
func replayReroute(c *cloud.Cloud, out *runOut, s *samples) []string {
	aud := audit.New(c.SM.Telemetry(), nil, audit.Config{})
	monitor := wireMonitor(c, aud, s)
	ctx := context.Background()
	if _, err := c.SM.ComputeRoutes(); err != nil { // the warm-up reconfigure
		return []string{fmt.Sprintf("warm-up ComputeRoutes: %v", err)}
	}
	if _, err := c.SM.DistributeDiffCtx(ctx); err != nil {
		return []string{fmt.Sprintf("warm-up DistributeDiffCtx: %v", err)}
	}
	s.reset("audit.transition_ms", "audit.transition_alloc_mb")
	var problems []string
	for _, o := range out.ops {
		switch o.kind {
		case opLinkDown, opLinkUp:
			t := time.Now()
			if err := setLink(c, trunk{o.sw, o.port}, o.kind == opLinkUp); err != nil {
				return append(problems, fmt.Sprintf("replay %s: %v", o.line(), err))
			}
			s.add("sm.sweep_ms", ms(time.Since(t)))
		case opReconfigure:
			a0 := heapAllocBytes()
			t := time.Now()
			rs, err := c.SM.ComputeRoutes()
			computeMS := ms(time.Since(t))
			if err != nil {
				return append(problems, fmt.Sprintf("replay ComputeRoutes: %v", err))
			}
			s.add("routing.compute_ms", computeMS)
			s.add("routing.compute_alloc_mb", mb(heapAllocBytes()-a0))
			s.add("routing.dests_recomputed", float64(rs.Incremental.DestsRecomputed))
			s.add("routing.dests_total", float64(rs.Incremental.DestsTotal))
			*monitor = 0
			t = time.Now()
			ds, err := c.SM.DistributeDiffCtx(ctx)
			distMS := ms(time.Since(t))
			if err != nil {
				return append(problems, fmt.Sprintf("replay DistributeDiffCtx: %v", err))
			}
			s.add("sm.distribute_self_ms", distMS-*monitor)
			s.add("sm.switches_updated", float64(ds.SwitchesUpdated))
			s.add("smp.smps_per_reroute", float64(ds.SMPs))
			s.add("smp.blocks", float64(ds.Blocks))
			s.add("smp.smps", float64(ds.SMPs))
			s.add("smp.smps_retried", float64(ds.SMPsRetried))
			fastMS := runAudit(c, aud, audit.ScopeFast, "audit.fast", s)
			s.add("api.reconfigure_self_ms", o.latMS-computeMS-distMS-fastMS)
			if ds.SMPs != o.reconf.SMPs || ds.SwitchesUpdated != o.reconf.SwitchesUpdated ||
				rs.Incremental.Applied != o.reconf.Incremental {
				problems = append(problems, fmt.Sprintf(
					"replayed reconfigure: smps %d, switches %d, incremental %v; the daemon replied %d, %d, %v",
					ds.SMPs, ds.SwitchesUpdated, rs.Incremental.Applied,
					o.reconf.SMPs, o.reconf.SwitchesUpdated, o.reconf.Incremental))
			}
		case opFullAudit:
			runAudit(c, aud, audit.ScopeFull, "audit.full", s)
		}
	}
	return problems
}
