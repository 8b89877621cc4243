// Command daemonbench is the repository's end-to-end benchmark. It boots a
// paper fat tree, hands it to the real api.Server and drives the server's
// HTTP handler in process with at most two closed-loop clients, the way
// `ibsimload -nodes` does, on one of three seeded workloads:
//
//	churn-11664   create 1 : migrate 2 : destroy 1 : read 4 on 11664 nodes
//	reroute-648   trunk link down/up + incremental reconfigure + full audit
//	defrag-648    64 scattered VMs, defrag dry run, apply, re-dry-run
//
// Every reply is checked against the client-side model; any failed check
// makes the run exit 1. The last line of standard output is one JSON object
// with the fields correct, attempted, failed and metrics. With --trace 0
// the metrics are the end-to-end ones (client-observed latencies, set-up
// time, peak RSS); with --trace 1 the run repeats the workload with a span
// around every request (pass A), replays the same sequence on a server-less
// cloud calling each layer's public functions in the order the daemon's
// actor loop does (pass B), and reports per-layer metrics. METRICS.md lists
// every metric and the end-to-end number each layer metric should move.
//
// Usage (from the repository root):
//
//	bash daemonbench/run.sh --workload reroute-648 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/topology"
)

// workload is one named benchmark workload.
type workload struct {
	name    string
	nodes   int
	clients int // closed-loop clients, each waiting for its reply
	// setups is how many times an untraced run sets the fabric up;
	// setup_s is their median and the workload runs on the last one.
	setups      int
	incremental bool // the SM's IncrementalRouting
	prefill     bool // one VM on a seeded quarter of the hypervisors
	// warm runs through the handler after api.NewServer, inside set-up.
	warm func(f *fabric) error
	// run drives the workload through f's handler until cfg.deadline (or
	// cfg.limit ops or rounds) and checks every reply.
	run func(f *fabric, cfg runCfg) *runOut
	// replay is pass B: it re-executes out's sequence on a benchmark-owned
	// cloud with no server, recording per-layer samples into s, and returns
	// every mismatch against the replies pass A saw.
	replay func(c *cloud.Cloud, out *runOut, s *samples) []string
}

func (w *workload) prefillFunc(seed int64) func(*cloud.Cloud) error {
	if !w.prefill {
		return nil
	}
	return func(c *cloud.Cloud) error {
		for i, h := range prefillPlan(c.Hypervisors(), seed) {
			if _, err := c.CreateVMOn(prefillName(i), h); err != nil {
				return err
			}
		}
		return nil
	}
}

var workloads = []*workload{churnWorkload, rerouteWorkload, defragWorkload}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runCfg parameterises one pass of a workload.
type runCfg struct {
	seed     int64
	clients  int
	deadline time.Time
	// limit, when positive, stops the pass after this many ops (churn) or
	// rounds (reroute, defrag) instead of at the deadline.
	limit int
}

// runOut is what one pass observed.
type runOut struct {
	attempted, failed int
	problems          []string
	// mutLat and readLat are the workload's two end-to-end latency
	// classes (see METRICS.md); mutOK counts successful mutations that
	// completed before the deadline.
	mutLat, readLat []float64
	mutOK           int
	window          time.Duration
	// extra holds further client-observed latencies by name, for the
	// human-readable report (e.g. churn's migrate-only latencies).
	extra map[string][]float64
	// ops is the generated sequence in issue order with its outcomes.
	ops []*op
	// final is the model's VM placement at the end of the pass.
	final   map[string]topology.NodeID
	retries int64
	// stealPct is the share of all CPU time the hypervisor gave to other
	// tenants during the pass, in %. It moves every latency (METRICS.md).
	stealPct float64
}

func (o *runOut) problem(format string, args ...any) {
	const keep = 20
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == keep {
		o.problems = append(o.problems, "... further problems omitted")
	}
}

// sequence is the request sequence the pass sent, one line per op.
func (o *runOut) sequence() string {
	var b strings.Builder
	for _, op := range o.ops {
		b.WriteString(op.line())
	}
	return b.String()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: churn-11664, reroute-648 or defrag-648")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "daemonbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", names())
		return 2
	}
	env := environment{
		Workload: w.name, Seed: *seed, Nodes: w.nodes, Seconds: *seconds, Trace: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GODEBUG: os.Getenv("GODEBUG"),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(w, *seed, d, &env)
	} else {
		res, err = untraced(w, *seed, d, &env)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func printEnv(env *environment) {
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(b))
}

// setUp boots the fabric w.setups times, keeping the last one, and
// returns it with every set-up's stage times.
func setUp(w *workload, seed int64) (*fabric, []stages, error) {
	var all []stages
	var f *fabric
	for i := range w.setups {
		if f != nil {
			f.close()
		}
		var err error
		if f, err = bootFabric(w, seed, nil); err != nil {
			return nil, nil, err
		}
		all = append(all, f.st)
		fmt.Fprintf(os.Stderr, "set-up %d/%d: %.3f s\n", i+1, w.setups, f.st.total().Seconds())
	}
	return f, all, nil
}

func medianSetup(all []stages) float64 {
	ds := make([]time.Duration, len(all))
	for i, s := range all {
		ds[i] = s.total()
	}
	return medianDur(ds).Seconds()
}

// untraced is the --trace 0 run: set up, run the workload once, report the
// end-to-end metrics.
func untraced(w *workload, seed int64, d time.Duration, env *environment) (*result, error) {
	f, all, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	env.Switches = len(f.c.SM.Topo.Switches())
	printEnv(env)
	out := runPass(w, f, seed, d)
	f.close()
	report(w, "run", out)
	return endToEnd(out, medianSetup(all)), nil
}

// runPass runs w on f for d and records how much CPU time the host gave
// to other tenants meanwhile.
func runPass(w *workload, f *fabric, seed int64, d time.Duration) *runOut {
	steal0, total0 := cpuTicks()
	out := w.run(f, runCfg{seed: seed, clients: w.clients, deadline: time.Now().Add(d)})
	out.stealPct = stealPctSince(steal0, total0)
	return out
}

func endToEnd(out *runOut, setupS float64) *result {
	perS := 0.0
	if out.window > 0 {
		perS = float64(out.mutOK) / out.window.Seconds()
	}
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"mutations_per_s": {perS, "1/s"},
		"mutation_p50_ms": {quantile(out.mutLat, 0.5), "ms"},
		"mutation_p90_ms": {quantile(out.mutLat, 0.9), "ms"},
		"read_p50_ms":     {quantile(out.readLat, 0.5), "ms"},
	}
	return &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   m,
	}
}

// report prints the pass's human-readable summary and every problem to
// standard error, and the latency of every request kind, labelled with the
// pass, to standard output.
func report(w *workload, pass string, out *runOut) {
	fmt.Fprintf(os.Stderr, "%s %s: %d attempted, %d failed, %d mutations in %.1f s, %d reads, %d 429 retries\n",
		w.name, pass, out.attempted, out.failed, len(out.mutLat), out.window.Seconds(), len(out.readLat), out.retries)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	detail := map[string]any{}
	for k, xs := range out.extra {
		detail[k] = map[string]any{"p50_ms": quantile(xs, 0.5), "p90_ms": quantile(xs, 0.9), "n": len(xs)}
	}
	b, _ := json.Marshal(map[string]any{"pass": pass, "latencies": detail, "host_steal_pct": out.stealPct})
	fmt.Println(string(b))
}
