package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ms converts a duration to milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0 < q <= 1) of xs by nearest rank, or 0
// for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median of durations, for setup stages.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return time.Duration(xs[n/2])
	}
	return time.Duration((xs[n/2-1] + xs[n/2]) / 2)
}

// samples collects named per-call observations (milliseconds, counts or
// megabytes) from the traced passes. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: map[string][]float64{}} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

// reset drops the named series.
func (s *samples) reset(names ...string) {
	s.mu.Lock()
	for _, n := range names {
		delete(s.m, n)
	}
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

func (s *samples) p50(name string) float64   { return quantile(s.get(name), 0.5) }
func (s *samples) total(name string) float64 { return sum(s.get(name)) }
func (s *samples) count(name string) int     { return len(s.get(name)) }

// heapAllocBytes reads the process's cumulative heap allocation counter. The
// traced replay pass runs alone in the process, so a delta around one call
// is that call's allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the aggregate steal and total CPU ticks from the first
// line of /proc/stat (zeros when it cannot be read).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// that follow are already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPctSince is the share of all CPU ticks since (steal0, total0) that
// were stolen, in %.
func stealPctSince(steal0, total0 uint64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return 100 * float64(steal-steal0) / float64(total-total0)
}
