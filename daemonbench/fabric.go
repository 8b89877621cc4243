package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ibvsim/internal/api"
	"ibvsim/internal/cloud"
	"ibvsim/internal/routing"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// vfsPerHyp is the ibsimload -nodes preset: the widest VF count the
// 11664-node fabric carries without exhausting the unicast LID space.
const vfsPerHyp = 2

// stages are the wall times of one set-up.
type stages struct {
	topo, cloud, prefill, server, warmup time.Duration
}

func (s stages) total() time.Duration {
	return s.topo + s.cloud + s.prefill + s.server + s.warmup
}

// bootCloud builds the ibsimload -nodes preset: the paper fat tree, minhop
// routing, the spread scheduler, prepopulated LIDs and 2 VFs per
// hypervisor, with the SM on the first CA. prefill (may be nil) places VMs
// through the cloud before anything else owns it.
func bootCloud(nodes int, incremental bool, prefill func(*cloud.Cloud) error) (*cloud.Cloud, stages, error) {
	var st stages
	t0 := time.Now()
	topo, err := topology.BuildPaperFatTree(nodes)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	eng, err := routing.New("minhop")
	if err != nil {
		return nil, st, err
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            sriov.VSwitchPrepopulated,
		VFsPerHypervisor: vfsPerHyp,
		Engine:           eng,
		Scheduler:        cloud.Spread{},
	})
	if err != nil {
		return nil, st, err
	}
	c.SM.IncrementalRouting = incremental
	t2 := time.Now()
	if prefill != nil {
		if err := prefill(c); err != nil {
			return nil, st, fmt.Errorf("prefill: %w", err)
		}
	}
	st.topo, st.cloud, st.prefill = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return c, st, nil
}

// fabric is a booted daemon: a cloud owned by an api.Server whose handler
// the benchmark's clients call in process, the way ibsimload -nodes does.
type fabric struct {
	c    *cloud.Cloud // owned by srv; touched only between one client's requests
	srv  *api.Server
	cl   *client
	hyps []topology.NodeID
	st   stages
}

// bootFabric boots the cloud, hands it to api.NewServer (the default single
// actor) and runs the workload's warm-up through the handler.
// onServer (may be nil) runs after api.NewServer returns and before the
// first request.
func bootFabric(w *workload, seed int64, onServer func(*fabric)) (*fabric, error) {
	c, st, err := bootCloud(w.nodes, w.incremental, w.prefillFunc(seed))
	if err != nil {
		return nil, err
	}
	hyps := c.Hypervisors()
	t := time.Now()
	srv := api.NewServer(c, api.Config{})
	st.server = time.Since(t)
	f := &fabric{c: c, srv: srv, cl: &client{h: srv.Handler()}, hyps: hyps, st: st}
	if onServer != nil {
		onServer(f)
	}
	if w.warm != nil {
		t = time.Now()
		if err := w.warm(f); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		f.st.warmup = time.Since(t)
	}
	return f, nil
}

// close drains and stops the server, then returns the fabric's memory to
// the runtime so the next set-up starts from the same heap.
func (f *fabric) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx) //nolint:errcheck // the fabric is discarded either way
	f.c, f.srv, f.cl = nil, nil, nil
	releaseMemory()
}

func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// client drives the handler in process. A 429 is backpressure, not a
// failure: the client backs off briefly, retries, and counts the retry; the
// latency it reports includes the retries.
type client struct {
	h       http.Handler
	retries atomic.Int64
}

type reply struct {
	status int
	body   []byte
	lat    time.Duration
}

func (c *client) do(method, path string, body []byte) reply {
	start := time.Now()
	for {
		var rd io.Reader = http.NoBody
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, "http://daemonbench"+path, rd)
		w := httptest.NewRecorder()
		c.h.ServeHTTP(w, req)
		if w.Code == http.StatusTooManyRequests {
			c.retries.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		return reply{status: w.Code, body: w.Body.Bytes(), lat: time.Since(start)}
	}
}

// doOp sends o's request and records its latency on o.
func (c *client) doOp(o *op) reply {
	m, p, b := o.request()
	r := c.do(m, p, b)
	o.latMS = ms(r.lat)
	return r
}

// environment is the run's metadata line.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Nodes      int    `json:"nodes"`
	Switches   int    `json:"switches"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GODEBUG    string `json:"godebug"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// commit is the VCS revision the binary was built from ("unknown" when the
// source tree carried no VCS metadata).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
