package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/topology"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	value      func(s *samples) float64
}

func p50Of(name string) func(*samples) float64 {
	return func(s *samples) float64 { return s.p50(name) }
}

func totalOf(name string) func(*samples) float64 {
	return func(s *samples) float64 { return s.total(name) }
}

func countOf(name string) func(*samples) float64 {
	return func(s *samples) float64 { return float64(s.count(name)) }
}

// ratioOf is the ratio of two series' totals (0 when the base is 0).
func ratioOf(num, den string) func(*samples) float64 {
	return func(s *samples) float64 {
		if d := s.total(den); d != 0 {
			return s.total(num) / d
		}
		return 0
	}
}

// meanOf is the mean of a series of 0/1 outcomes (0 when empty).
func meanOf(name string) func(*samples) float64 {
	return func(s *samples) float64 {
		if n := s.count(name); n > 0 {
			return s.total(name) / float64(n)
		}
		return 0
	}
}

// perLayer lists every per-layer metric in the order BENCHMARK.json and
// METRICS.md give them. Times are p50 per call unless named otherwise; a
// layer a workload does not exercise reports 0.
var perLayer = []layerMetric{
	{"api.mutation_self_ms", "ms", p50Of("api.mutation_self_ms")},
	{"api.read_ms", "ms", p50Of("api.read_ms")},
	{"api.reconfigure_self_ms", "ms", p50Of("api.reconfigure_self_ms")},
	{"api.reconcile_self_ms", "ms", p50Of("api.reconcile_self_ms")},
	{"api.retries_429", "count", totalOf("api.retries_429")},
	{"cloud.create_ms", "ms", p50Of("cloud.create_ms")},
	{"cloud.migrate_ms", "ms", p50Of("cloud.migrate_ms")},
	{"cloud.destroy_ms", "ms", p50Of("cloud.destroy_ms")},
	{"cloud.wave_ms", "ms", p50Of("cloud.wave_ms")},
	{"cloud.migrate_alloc_mb", "MB", p50Of("cloud.migrate_alloc_mb")},
	{"core.switches_per_migrate", "count", p50Of("core.switches_per_migrate")},
	{"core.lft_smps_per_migrate", "count", p50Of("core.lft_smps_per_migrate")},
	{"core.smps_per_switch", "ratio", p50Of("core.smps_per_switch")},
	{"core.host_smps_per_migrate", "count", p50Of("core.host_smps_per_migrate")},
	{"core.lft_smps_per_wave", "count", p50Of("core.lft_smps_per_wave")},
	{"sm.sweep_ms", "ms", p50Of("sm.sweep_ms")},
	{"sm.distribute_self_ms", "ms", p50Of("sm.distribute_self_ms")},
	{"sm.switches_updated", "count", p50Of("sm.switches_updated")},
	{"smp.smps_per_reroute", "count", p50Of("smp.smps_per_reroute")},
	{"smp.blocks_per_smp", "ratio", ratioOf("smp.blocks", "smp.smps")},
	{"smp.smps_retried", "count", totalOf("smp.smps_retried")},
	{"routing.compute_ms", "ms", p50Of("routing.compute_ms")},
	{"routing.dests_recomputed_frac", "ratio", ratioOf("routing.dests_recomputed", "routing.dests_total")},
	{"routing.compute_alloc_mb", "MB", p50Of("routing.compute_alloc_mb")},
	{"audit.transition_ms", "ms", p50Of("audit.transition_ms")},
	{"audit.transition_hook_ms", "ms", p50Of("audit.transition_hook_ms")},
	{"audit.transition_calls", "count", countOf("audit.transition_hook_ms")},
	{"audit.transition_alloc_mb", "MB", p50Of("audit.transition_alloc_mb")},
	{"audit.reach_ms", "ms", p50Of("audit.reach_ms")},
	{"audit.reach_lids", "count", p50Of("audit.reach_lids")},
	{"audit.fast_ms", "ms", p50Of("audit.fast_ms")},
	{"audit.fast_lids", "count", p50Of("audit.fast_lids")},
	{"audit.full_ms", "ms", p50Of("audit.full_ms")},
	{"audit.violations", "count", totalOf("audit.violations")},
	{"reconcile.plan_ms", "ms", p50Of("reconcile.plan_ms")},
	{"reconcile.moves", "count", p50Of("reconcile.moves")},
	{"reconcile.waves", "count", p50Of("reconcile.waves")},
	{"reconcile.cost_match_frac", "ratio", meanOf("reconcile.cost_match")},
	{"topology.build_ms", "ms", p50Of("topology.build_ms")},
	{"cloud.boot_ms", "ms", p50Of("cloud.boot_ms")},
	{"cloud.prefill_ms", "ms", p50Of("cloud.prefill_ms")},
	{"api.boot_ms", "ms", p50Of("api.boot_ms")},
	{"routing.warmup_ms", "ms", p50Of("routing.warmup_ms")},
	{"trace.overhead_pct", "%", p50Of("trace.overhead_pct")},
}

// wrapHook puts a span around the OnDistribute hook api.NewServer
// installed (the transient-CDG monitor), calling the original unchanged.
func wrapHook(f *fabric, s *samples) {
	orig := f.c.SM.OnDistribute
	f.c.SM.OnDistribute = func(old, target map[topology.NodeID]*ib.LFT) {
		t := time.Now()
		orig(old, target)
		s.add("audit.transition_hook_ms", ms(time.Since(t)))
	}
}

// traced is the --trace 1 run. An untraced pass gives the reference for
// the tracing overhead; pass A repeats the workload with spans around
// every request and the monitor hook; pass B replays pass A's sequence on
// a server-less cloud, timing each layer's public calls. The untraced pass
// and pass A split the measured time between them, so both run equally
// long and the traced run costs about as much as an untraced one.
func traced(w *workload, seed int64, d time.Duration, env *environment) (*result, error) {
	d /= 2
	s := newSamples()
	setup := func(st stages) {
		s.add("topology.build_ms", ms(st.topo))
		s.add("cloud.boot_ms", ms(st.cloud))
		s.add("cloud.prefill_ms", ms(st.prefill))
	}
	serve := func(st stages) {
		s.add("api.boot_ms", ms(st.server))
		if w.warm != nil {
			s.add("routing.warmup_ms", ms(st.warmup))
		}
	}

	f, err := bootFabric(w, seed, nil)
	if err != nil {
		return nil, err
	}
	setup(f.st)
	serve(f.st)
	env.Switches = len(f.c.SM.Topo.Switches())
	printEnv(env)
	ref := runPass(w, f, seed, d)
	f.close()
	report(w, "untraced", ref)

	f, err = bootFabric(w, seed, func(f *fabric) { wrapHook(f, s) })
	if err != nil {
		return nil, err
	}
	s.reset("audit.transition_hook_ms") // drop the warm-up's calls
	setup(f.st)
	serve(f.st)
	a := runPass(w, f, seed, d)
	f.close()
	report(w, "A", a)
	s.add("api.retries_429", float64(a.retries))
	for _, o := range a.ops {
		if o.ok && o.kind.read() {
			s.add("api.read_ms", o.latMS)
		}
	}
	if base := quantile(ref.mutLat, 0.5); base > 0 {
		s.add("trace.overhead_pct", 100*(quantile(a.mutLat, 0.5)/base-1))
	}

	c, st, err := bootCloud(w.nodes, w.incremental, w.prefillFunc(seed))
	if err != nil {
		return nil, err
	}
	setup(st)
	t := time.Now()
	mismatches := w.replay(c, a, s)
	fmt.Fprintf(os.Stderr, "pass B: replayed %d ops in %.1f s, %d mismatches\n",
		len(a.ops), time.Since(t).Seconds(), len(mismatches))
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}

	m := map[string]metric{}
	for _, lm := range perLayer {
		m[lm.name] = metric{lm.value(s), lm.unit}
	}
	ov, _ := json.Marshal(map[string]any{"tracing_overhead": map[string]any{
		"workload":                 w.name,
		"untraced_mutation_p50_ms": quantile(ref.mutLat, 0.5),
		"traced_mutation_p50_ms":   quantile(a.mutLat, 0.5),
		"overhead_pct":             m["trace.overhead_pct"].Value,
	}})
	fmt.Println(string(ov))
	correct := len(ref.problems) == 0 && len(a.problems) == 0 && len(mismatches) == 0 &&
		s.total("audit.violations") == 0
	return &result{
		Correct:   correct,
		Attempted: ref.attempted + a.attempted,
		Failed:    ref.failed + a.failed,
		Metrics:   m,
	}, nil
}
