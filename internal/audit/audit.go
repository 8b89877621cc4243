// Package audit is the fabric health auditor: a continuously runnable
// checker that verifies the subnet manager's view of the fabric against
// three invariant families.
//
//   - Reachability: every active LID (a VF with a VM, a PF, a switch) is
//     reachable from every other endpoint via hop-by-hop LFT walks, with no
//     forwarding loops, black holes or misdeliveries.
//   - LID hygiene: forwarding entries, the LID address map and the VM
//     bindings agree — no forwarding entry points at a LID nobody owns, and
//     no VM's LID resolves to a node other than its hypervisor.
//   - Transient deadlock freedom: while an LFT distribution is in flight
//     the fabric holds an arbitrary mixture of the old and new routing
//     functions, so the union CDG Rold ∪ Rnew must be acyclic (the paper's
//     section VI-C hazard, run as a live monitor via CheckTransition
//     instead of only the offline transition experiment).
//
// The auditor is passive and lock-free with respect to the fabric: it runs
// against immutable copy-on-write views (the control-plane daemon's
// snapshots), so it can run concurrently with mutations at any cadence.
// Results feed the telemetry registry (audit.runs, audit.violations.<kind>)
// and an audit span per pass; when a pass finds violations, the flight
// recorder captures the recent mutation/event window to a post-mortem dump.
package audit

import (
	"fmt"
	"sync"
	"time"

	"ibvsim/internal/ib"
	"ibvsim/internal/telemetry"
	"ibvsim/internal/topology"
)

// Kind classifies one invariant violation.
type Kind string

// The violation vocabulary. Blackhole/loop/misroute come from LFT walks,
// stale_entry/lid_conflict from the hygiene pass, deadlock from the CDG of
// the installed routing, transient_cdg from the union CDG of an in-flight
// distribution (section VI-C).
const (
	KindBlackhole    Kind = "blackhole"
	KindLoop         Kind = "loop"
	KindMisroute     Kind = "misroute"
	KindStaleEntry   Kind = "stale_entry"
	KindLIDConflict  Kind = "lid_conflict"
	KindDeadlock     Kind = "deadlock"
	KindTransientCDG Kind = "transient_cdg"
)

// Violation is one detected invariant breach.
type Violation struct {
	Kind   Kind   `json:"kind"`
	LID    uint16 `json:"lid,omitempty"`
	Node   string `json:"node,omitempty"` // description of the node at fault
	Detail string `json:"detail"`
	// Provenance is the write stamp of the offending LFT block when the
	// violation pins a concrete forwarding entry: the mutation, span and
	// phase that installed the bad route. Flight-recorder dumps carry it, so
	// a post-mortem names the culprit operation instead of just the symptom.
	Provenance *ib.Provenance `json:"provenance,omitempty"`
}

// Scope selects how much one audit pass checks.
type Scope uint8

const (
	// ScopeFast runs reachability and hygiene — cheap enough to run inline
	// after every control-plane mutation.
	ScopeFast Scope = iota
	// ScopeFull adds the deadlock check (CDG of the installed routing),
	// which walks every (destination, switch) pair. Run on a cadence.
	ScopeFull
	// ScopeReach runs reachability and the VM-binding checks but skips the
	// stale-entry sweep (which walks every switch × every LID and needs a
	// complete LID map). It is the op-scoped pass sharded control planes
	// run after each mutation, with ActiveLIDs = just the LID columns the
	// op touched; fabric-wide hygiene runs at quiesce points instead.
	ScopeReach
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case ScopeFull:
		return "full"
	case ScopeReach:
		return "reach"
	}
	return "fast"
}

// Report is the outcome of one audit pass.
type Report struct {
	Gen             uint64         `json:"generation"`
	Scope           string         `json:"scope"`
	LIDsChecked     int            `json:"lids_checked"`
	SwitchesChecked int            `json:"switches_checked"`
	Total           int            `json:"total"`
	ByKind          map[string]int `json:"by_kind,omitempty"`
	// Violations carries at most Config.MaxViolations entries; Total is
	// always the true count and Truncated marks a capped list.
	Violations []Violation `json:"violations,omitempty"`
	Truncated  bool        `json:"truncated,omitempty"`
	WallUS     int64       `json:"wall_us"`
}

// Config parameterises an Auditor.
type Config struct {
	// MaxViolations caps the violation detail kept per report (the counts
	// stay exact). 0 means DefaultMaxViolations.
	MaxViolations int
}

// DefaultMaxViolations bounds per-report violation detail.
const DefaultMaxViolations = 256

// Auditor runs audit passes and keeps the most recent report. All methods
// are safe for concurrent use: passes run against immutable views, counters
// are atomic, and the last report sits behind a mutex.
type Auditor struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer
	rec *Recorder
	cfg Config

	runs  *telemetry.Counter
	total *telemetry.Counter

	mu   sync.Mutex
	last *Report
}

// New returns an auditor reporting into the hub's registry and tracer.
// rec may be nil (no flight recording); hub may be nil (no telemetry).
func New(hub *telemetry.Hub, rec *Recorder, cfg Config) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	a := &Auditor{
		reg: hub.Registry(),
		tr:  hub.Tracer(),
		rec: rec,
		cfg: cfg,
	}
	a.runs = a.reg.Counter("audit.runs")
	a.total = a.reg.Counter("audit.violations_total")
	return a
}

// Recorder returns the flight recorder the auditor dumps to (may be nil).
func (a *Auditor) Recorder() *Recorder { return a.rec }

// Last returns the most recent report, or nil if no pass has run.
func (a *Auditor) Last() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// Runs returns the number of passes run so far.
func (a *Auditor) Runs() int64 { return a.runs.Value() }

// ViolationsTotal returns the cumulative violation count across all passes
// (including transition checks).
func (a *Auditor) ViolationsTotal() int64 { return a.total.Value() }

// Run audits one immutable fabric view and returns the report. Violations
// bump audit.violations.<kind> counters and trigger a flight-recorder dump.
func (a *Auditor) Run(v *View, scope Scope) *Report {
	start := time.Now()
	var c collector
	c.max = a.cfg.MaxViolations

	checkReachability(v, &c)
	checkBindings(v, &c)
	if scope != ScopeReach {
		checkStaleEntries(v, &c)
	}
	if scope == ScopeFull {
		checkInstalledCDG(v, &c)
	}

	rep := &Report{
		Gen:             v.Gen,
		Scope:           scope.String(),
		LIDsChecked:     len(v.ActiveLIDs),
		SwitchesChecked: len(v.Topo.Switches()),
		Total:           c.total,
		ByKind:          c.byKind,
		Violations:      c.kept,
		Truncated:       c.total > len(c.kept),
		WallUS:          time.Since(start).Microseconds(),
	}
	// A pass opens no child spans, so its span is emitted finished: one is
	// retained per mutation, and an emitted span is stored compactly.
	a.tr.Emit(telemetry.SpanAudit, scope.String(), time.Since(start), 0,
		"generation", int64(rep.Gen), "lids", rep.LIDsChecked, "violations", rep.Total)
	a.finish(rep)
	return rep
}

// finish publishes a report: counters, the last-report slot, and — on
// violations — a flight-recorder dump.
func (a *Auditor) finish(rep *Report) {
	a.runs.Inc()
	a.total.Add(int64(rep.Total))
	for kind, n := range rep.ByKind {
		a.reg.Counter("audit.violations." + kind).Add(int64(n))
	}
	a.reg.Gauge("audit.last_violations").Set(int64(rep.Total))
	a.reg.Gauge("audit.last_generation").Set(int64(rep.Gen))
	a.reg.WallHistogram("audit.run_wall_us", nil).Observe(rep.WallUS)
	a.mu.Lock()
	a.last = rep
	a.mu.Unlock()
	if rep.Total > 0 && a.rec != nil {
		a.rec.Dump(rep) //nolint:errcheck // dump-to-disk failure must not fail the audit
	}
}

// collector accumulates violations with exact counts and capped detail.
type collector struct {
	max    int
	total  int
	byKind map[string]int
	kept   []Violation
}

func (c *collector) add(v Violation) {
	c.total++
	if c.byKind == nil {
		c.byKind = map[string]int{}
	}
	c.byKind[string(v.Kind)]++
	if len(c.kept) < c.max {
		c.kept = append(c.kept, v)
	}
}

func (c *collector) addf(kind Kind, lid ib.LID, node string, format string, args ...any) {
	c.add(Violation{Kind: kind, LID: uint16(lid), Node: node, Detail: fmt.Sprintf(format, args...)})
}

// VMBinding is one VM's addressing claim, checked against the LID map.
type VMBinding struct {
	Name string          `json:"name"`
	LID  ib.LID          `json:"lid"`
	Hyp  topology.NodeID `json:"hypervisor"`
}
