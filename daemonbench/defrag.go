package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/audit"
	"ibvsim/internal/cloud"
	"ibvsim/internal/ib"
	"ibvsim/internal/reconcile"
	"ibvsim/internal/topology"
)

// defragVMs is how many VMs one defrag round scatters.
const defragVMs = 64

// defragWorkload is the batch path: each round scatters defragVMs VMs on
// seeded hypervisors, dry-runs goal=defrag, applies it, dry-runs again
// (which must report converged) and destroys the VMs.
var defragWorkload = &workload{
	name:    "defrag-648",
	nodes:   648,
	setups:  9,
	clients: 1,
	run:     runDefrag,
	replay:  replayDefrag,
}

func runDefrag(f *fabric, cfg runCfg) *runOut {
	out := &runOut{extra: map[string][]float64{}}
	fl := newFleet(f.hyps, vfsPerHyp, opsSeed(cfg.seed))
	start := time.Now()
	// step issues one op, checks it and books it; false stops the pass.
	step := func(o *op, check func(*op, reply) string) bool {
		out.ops = append(out.ops, o)
		msg := check(o, f.cl.doOp(o))
		o.ok = msg == ""
		out.attempted++
		if msg != "" {
			out.failed++
			out.problem("%s", msg)
		}
		return o.ok
	}
	for round := 0; cfg.limit > 0 && round < cfg.limit || cfg.limit == 0 && time.Now().Before(cfg.deadline); round++ {
		names := make([]string, 0, defragVMs)
		for range defragVMs {
			h := fl.freeHyp(topology.NoNode)
			fl.reserve(h)
			o := &op{kind: opCreate, vm: fl.newName(), hyp: h}
			if !step(o, checkReply) {
				return finishDefrag(f, out, cfg, start, fl)
			}
			fl.place(o.vm, o.hyp)
			names = append(names, o.vm)
			out.extra["create"] = append(out.extra["create"], o.latMS)
		}
		dry := &op{kind: opDryRun}
		if !step(dry, checkReconcile) {
			return finishDefrag(f, out, cfg, start, fl)
		}
		out.readLat = append(out.readLat, dry.latMS)
		apply := &op{kind: opApply}
		ok := step(apply, checkReconcile)
		out.mutLat = append(out.mutLat, apply.latMS)
		if !ok {
			return finishDefrag(f, out, cfg, start, fl)
		}
		if cfg.limit > 0 || time.Now().Before(cfg.deadline) {
			out.mutOK++
		}
		if msg := matchCosts(dry.recon, apply.recon); msg != "" {
			apply.ok = false
			out.failed++
			out.problem("defrag round %d: dry run vs apply: %s", round, msg)
		}
		for _, mv := range apply.recon.Moves {
			fl.release(mv.From)
			fl.reserve(mv.To)
			fl.hypOf[mv.VM] = mv.To
		}
		again := &op{kind: opDryRun}
		if !step(again, checkReconcile) {
			return finishDefrag(f, out, cfg, start, fl)
		}
		if !again.recon.Converged {
			again.ok = false
			out.failed++
			out.problem("defrag round %d: re-dry-run not converged (%d moves)", round, len(again.recon.Moves))
		}
		for _, name := range names {
			fl.take(name)
			o := &op{kind: opDestroy, vm: name}
			if !step(o, checkReply) {
				return finishDefrag(f, out, cfg, start, fl)
			}
			fl.forget(name)
			out.extra["destroy"] = append(out.extra["destroy"], o.latMS)
		}
		out.extra["dry_run"] = append(out.extra["dry_run"], dry.latMS)
		out.extra["apply"] = append(out.extra["apply"], apply.latMS)
		out.extra["re_dry_run"] = append(out.extra["re_dry_run"], again.latMS)
	}
	return finishDefrag(f, out, cfg, start, fl)
}

func finishDefrag(f *fabric, out *runOut, cfg runCfg, start time.Time, fl *fleet) *runOut {
	out.window = windowOf(cfg, start)
	out.final = fl.placement()
	out.retries = f.cl.retries.Load()
	finalChecks(f, out)
	return out
}

func checkReconcile(o *op, r reply) string {
	m, p, _ := o.request()
	if r.status != http.StatusOK {
		return fmt.Sprintf("%s %s: status %d: %s", m, p, r.status, r.body)
	}
	if err := json.Unmarshal(r.body, &o.recon); err != nil {
		return fmt.Sprintf("%s %s: decode: %v", m, p, err)
	}
	if o.recon.Aborted || o.recon.AuditViolations != 0 {
		return fmt.Sprintf("%s %s: aborted %v, %d audit violations: %s",
			m, p, o.recon.Aborted, o.recon.AuditViolations, o.recon.Error)
	}
	return ""
}

// matchCosts compares a dry run's predicted per-wave costs with an apply's
// applied ones, field for field ("" when equal).
func matchCosts(dry, apply api.ReconcileResponse) string {
	if len(dry.Moves) != len(apply.Moves) || dry.Waves != apply.Waves {
		return fmt.Sprintf("planned %d moves in %d waves, applied %d in %d",
			len(dry.Moves), dry.Waves, len(apply.Moves), apply.Waves)
	}
	if len(dry.Predicted) != len(apply.Applied) {
		return fmt.Sprintf("%d predicted waves, %d applied", len(dry.Predicted), len(apply.Applied))
	}
	for i, p := range dry.Predicted {
		a := apply.Applied[i]
		a.TraceSpan = p.TraceSpan
		if p != a {
			return fmt.Sprintf("wave %d: predicted %+v, applied %+v", i, p, a)
		}
	}
	return ""
}

// replayDefrag is defrag's pass B: creates and destroys as replayVMOp
// runs them; each dry run as one Planner.Plan; each apply as Plan, then
// per wave Cloud.MigrateWaveProv and the fast audit, then the convergence
// re-plan — the calls the actor loop's reconcile makes.
func replayDefrag(c *cloud.Cloud, out *runOut, s *samples) []string {
	aud := audit.New(c.SM.Telemetry(), nil, audit.Config{})
	p := &reconcile.Planner{C: c}
	spec := reconcile.Spec{Goal: reconcile.GoalDefrag}
	plan := func() (*reconcile.Plan, float64, error) {
		t := time.Now()
		pl, err := p.Plan(spec)
		return pl, ms(time.Since(t)), err
	}
	var problems []string
	var lastDry *op
	for _, o := range out.ops {
		if !o.ok {
			continue
		}
		switch o.kind {
		case opCreate, opDestroy:
			cloudMS, reachMS, err := replayVMOp(c, aud, o, s)
			if err != nil {
				return append(problems, fmt.Sprintf("replay %s: %v", o.line(), err))
			}
			s.add("api.mutation_self_ms", o.latMS-cloudMS-reachMS)
		case opDryRun:
			pl, d, err := plan()
			if err != nil {
				return append(problems, fmt.Sprintf("replay dry run: %v", err))
			}
			s.add("reconcile.plan_ms", d)
			if len(pl.Moves) != len(o.recon.Moves) || len(pl.Waves) != o.recon.Waves || pl.Converged != o.recon.Converged {
				problems = append(problems, fmt.Sprintf("replayed plan: %d moves, %d waves; the daemon replied %d, %d",
					len(pl.Moves), len(pl.Waves), len(o.recon.Moves), o.recon.Waves))
			}
			lastDry = o
		case opApply:
			pl, spent, err := plan()
			if err != nil {
				return append(problems, fmt.Sprintf("replay apply: %v", err))
			}
			if lastDry != nil {
				match := 0.0
				if matchCosts(lastDry.recon, o.recon) == "" {
					match = 1
				}
				s.add("reconcile.cost_match", match)
			}
			s.add("reconcile.moves", float64(len(pl.Moves)))
			s.add("reconcile.waves", float64(len(pl.Waves)))
			if len(pl.Waves) != len(o.recon.Applied) {
				problems = append(problems, fmt.Sprintf("replayed apply: %d waves; the daemon applied %d",
					len(pl.Waves), len(o.recon.Applied)))
				continue
			}
			for wi, wave := range pl.Waves {
				prov := &ib.Provenance{
					Mutation: ib.NextMutationID(),
					Engine:   "reconcile",
					Reason:   fmt.Sprintf("reconcile %s wave %d/%d (%d moves)", pl.Goal, wi+1, len(pl.Waves), len(wave)),
					Shard:    ib.ShardCoordinator,
				}
				t := time.Now()
				wr, err := c.MigrateWaveProv(wave, prov)
				d := ms(time.Since(t))
				if err != nil {
					return append(problems, fmt.Sprintf("replay wave %d: %v", wi, err))
				}
				s.add("cloud.wave_ms", d)
				s.add("core.lft_smps_per_wave", float64(wr.Plan.SMPs))
				spent += d + runAudit(c, aud, audit.ScopeFast, "audit.fast", s)
				a := o.recon.Applied[wi]
				if wr.Plan.SMPs != a.LFTSMPs || wr.Plan.SwitchesUpdated != a.SwitchesUpdated || wr.HostSMPs != a.HostSMPs {
					problems = append(problems, fmt.Sprintf(
						"replayed wave %d: smps %d, switches %d, host smps %d; the daemon applied %d, %d, %d",
						wi, wr.Plan.SMPs, wr.Plan.SwitchesUpdated, wr.HostSMPs, a.LFTSMPs, a.SwitchesUpdated, a.HostSMPs))
				}
			}
			_, d, err := plan() // the convergence check after the last wave
			if err != nil {
				return append(problems, fmt.Sprintf("replay convergence plan: %v", err))
			}
			s.add("api.reconcile_self_ms", o.latMS-spent-d)
		}
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
