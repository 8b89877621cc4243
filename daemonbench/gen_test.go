package main

import (
	"testing"
)

// small returns a copy of w on the 324-node paper fat tree.
func small(w *workload) *workload {
	c := *w
	c.nodes = 324
	return &c
}

// limits bounds each workload's test pass: ops for churn, rounds otherwise.
var limits = map[string]int{"churn-11664": 300, "reroute-648": 3, "defrag-648": 2}

func runOnce(t *testing.T, w *workload, seed int64) *runOut {
	t.Helper()
	f, err := bootFabric(w, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	out := w.run(f, runCfg{seed: seed, clients: 1, limit: limits[w.name]})
	for _, p := range out.problems {
		t.Errorf("%s seed %d: %s", w.name, seed, p)
	}
	if out.attempted == 0 || out.failed != 0 {
		t.Errorf("%s seed %d: %d attempted, %d failed", w.name, seed, out.attempted, out.failed)
	}
	return out
}

// TestSequenceDeterministic proves the generator's contract: one client
// with the same seed sends a byte-identical request sequence, and another
// seed sends a different one.
func TestSequenceDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			a := runOnce(t, w, 7).sequence()
			b := runOnce(t, w, 7).sequence()
			if a != b {
				t.Fatalf("same seed, different sequences:\n%s\n---\n%s", a, b)
			}
			if c := runOnce(t, w, 8).sequence(); c == a {
				t.Fatalf("seeds 7 and 8 sent the same %d-byte sequence", len(a))
			}
		})
	}
}

// TestReplayMatchesDaemon runs pass B over a pass A sequence and expects
// no mismatch against the daemon's replies.
func TestReplayMatchesDaemon(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			out := runOnce(t, w, 3)
			c, _, err := bootCloud(w.nodes, w.incremental, w.prefillFunc(3))
			if err != nil {
				t.Fatal(err)
			}
			s := newSamples()
			for _, m := range w.replay(c, out, s) {
				t.Error(m)
			}
			if v := s.total("audit.violations"); v != 0 {
				t.Errorf("replay audits found %v violations", v)
			}
		})
	}
}

// TestChurnTwoClients runs churn's two clients concurrently against one
// daemon; the capacity model must keep every reply correct in any
// interleaving. Run with -race to check the shared generator.
func TestChurnTwoClients(t *testing.T) {
	w := small(churnWorkload)
	f, err := bootFabric(w, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	out := w.run(f, runCfg{seed: 5, clients: 2, limit: 400})
	for _, p := range out.problems {
		t.Error(p)
	}
	if out.attempted != 400 || out.failed != 0 {
		t.Errorf("%d attempted, %d failed; want 400 and 0", out.attempted, out.failed)
	}
}
