package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ibvsim/internal/cloud"
	"ibvsim/internal/sriov"
	"ibvsim/internal/topology"
)

// newTestServer boots a ring fabric cloud and wraps it in a Server +
// httptest.Server. Every CA but the first (the SM) becomes a hypervisor.
func newTestServer(t *testing.T, switches, casPer, vfs int, model sriov.Model, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	topo, err := topology.BuildRing(switches, casPer)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model:            model,
		VFsPerHypervisor: vfs,
		RouteWorkers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts
}

// doJSONE issues a request with a JSON body and decodes a JSON response.
// Error-returning so it is callable from non-test goroutines.
func doJSONE(client *http.Client, method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode, nil
}

// doJSON is doJSONE with request failures fatal (test goroutine only).
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	st, err := doJSONE(client, method, url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLifecycleAndErrors(t *testing.T) {
	srv, ts := newTestServer(t, 6, 2, 2, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()

	// Create (scheduler placement), then a pinned create.
	var created VMResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "alpha"}, &created); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if created.LID == 0 || created.Cost.LFTSMPs == 0 || created.Cost.SpanSMPs != created.Cost.LFTSMPs {
		t.Fatalf("create cost report not populated: %+v", created.Cost)
	}
	pin := hyps[len(hyps)-1].Node
	var pinned VMResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "beta", Hypervisor: &pin}, &pinned); st != http.StatusCreated {
		t.Fatalf("pinned create: status %d", st)
	}
	if pinned.Node != pin {
		t.Fatalf("pinned create landed on %d, want %d", pinned.Node, pin)
	}

	// Reads observe the writes (snapshot published before reply).
	var list struct {
		Generation uint64   `json:"generation"`
		VMs        []VMInfo `json:"vms"`
	}
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/vms", nil, &list); st != http.StatusOK || len(list.VMs) != 2 {
		t.Fatalf("list: status %d, %d VMs", st, len(list.VMs))
	}
	var got VMInfo
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/vms/alpha", nil, &got); st != http.StatusOK || got.Name != "alpha" {
		t.Fatalf("get: status %d, %+v", st, got)
	}

	// Path between the two VMs walks programmed LFTs.
	var path PathResponse
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/paths/alpha/beta", nil, &path); st != http.StatusOK {
		t.Fatalf("path: status %d", st)
	}
	if len(path.Hops) == 0 && path.SrcNode != path.DstNode {
		t.Fatalf("path between distinct nodes has no hops: %+v", path)
	}

	// Migrate and check the cost report fields.
	var mig MigrateResponse
	dst := hyps[len(hyps)-2].Node
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/alpha/migrate", MigrateVMRequest{Destination: dst}, &mig); st != http.StatusOK {
		t.Fatalf("migrate: status %d", st)
	}
	if mig.To != dst || mig.Cost.TraceSpan == 0 || mig.Cost.LFTSMPs == 0 {
		t.Fatalf("migrate response incomplete: %+v", mig)
	}
	if mig.Cost.SpanSMPs != mig.Cost.LFTSMPs {
		t.Fatalf("span smps %d != reported LFT smps %d", mig.Cost.SpanSMPs, mig.Cost.LFTSMPs)
	}

	// Error mapping.
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "alpha"}, nil); st != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/ghost/migrate", MigrateVMRequest{Destination: dst}, nil); st != http.StatusNotFound {
		t.Fatalf("migrate unknown VM: status %d, want 404", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/alpha/migrate", MigrateVMRequest{Destination: dst}, nil); st != http.StatusConflict {
		t.Fatalf("migrate to current node: status %d, want 409", st)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/alpha/migrate", MigrateVMRequest{Destination: srv.Snapshot().SMNode}, nil); st != http.StatusBadRequest {
		t.Fatalf("migrate to non-hypervisor: status %d, want 400", st)
	}
	if st := doJSON(t, cl, "DELETE", ts.URL+"/v1/vms/ghost", nil, nil); st != http.StatusNotFound {
		t.Fatalf("destroy unknown VM: status %d, want 404", st)
	}
	if st := doJSON(t, cl, "DELETE", ts.URL+"/v1/vms/alpha", nil, nil); st != http.StatusOK {
		t.Fatalf("destroy: status %d", st)
	}
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/vms/alpha", nil, nil); st != http.StatusNotFound {
		t.Fatalf("get destroyed VM: status %d, want 404", st)
	}

	// Telemetry surface responds.
	if st := doJSON(t, cl, "GET", ts.URL+"/healthz", nil, nil); st != http.StatusOK {
		t.Fatalf("healthz: status %d", st)
	}
	resp, err := cl.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "api_requests_vms_create") {
		t.Fatalf("/metrics missing api counters:\n%s", b)
	}
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/trace", nil, &struct{}{}); st != http.StatusOK {
		t.Fatalf("trace: status %d", st)
	}
}

// traceSpan mirrors the /v1/trace span schema the test audits against.
type traceSpan struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Kind   string         `json:"kind"`
	Attrs  map[string]any `json:"attrs"`
}

// smpDescendants counts smp spans in the subtree rooted at id.
func smpDescendants(spans []traceSpan, id int) int {
	children := map[int][]traceSpan{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	count := 0
	queue := []int{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, sp := range children[cur] {
			if sp.Kind == "smp" {
				count++
			}
			queue = append(queue, sp.ID)
		}
	}
	return count
}

// TestConcurrentMutatorsAndReaders is the acceptance race test: 8 mutator
// goroutines (create -> migrate -> destroy, each owning a disjoint pair of
// hypervisors so capacity conflicts cannot occur) run against 4 reader
// goroutines hammering every GET endpoint. Afterwards every migration
// response's n' x m' cost report is audited against the span tree exported
// by /v1/trace. Run with -race.
func TestConcurrentMutatorsAndReaders(t *testing.T) {
	const (
		mutators   = 8
		readers    = 4
		iterations = 12
	)
	// 6 switches x 3 CAs = 18 CAs: 1 SM + 17 hypervisors >= 2 per mutator.
	srv, ts := newTestServer(t, 6, 3, 2, sriov.VSwitchDynamic, Config{QueueDepth: 4})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()
	if len(hyps) < 2*mutators {
		t.Fatalf("need %d hypervisors, have %d", 2*mutators, len(hyps))
	}

	// post retries on backpressure (429) until the command is admitted.
	post := func(method, url string, body any) (int, []byte, error) {
		var payload []byte
		if body != nil {
			payload, _ = json.Marshal(body)
		}
		for {
			var rd io.Reader
			if payload != nil {
				rd = bytes.NewReader(payload)
			}
			req, err := http.NewRequest(method, url, rd)
			if err != nil {
				return 0, nil, err
			}
			resp, err := cl.Do(req)
			if err != nil {
				return 0, nil, err
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, nil, err
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			return resp.StatusCode, b, nil
		}
	}

	var (
		mu         sync.Mutex
		migrations []MigrateResponse
	)
	var wgMut, wgRead sync.WaitGroup
	errs := make(chan error, mutators+readers)
	stop := make(chan struct{})

	for m := 0; m < mutators; m++ {
		wgMut.Add(1)
		go func(m int) {
			defer wgMut.Done()
			home, away := hyps[2*m].Node, hyps[2*m+1].Node
			for i := 0; i < iterations; i++ {
				name := fmt.Sprintf("vm-%d-%d", m, i)
				st, b, err := post("POST", ts.URL+"/v1/vms", CreateVMRequest{Name: name, Hypervisor: &home})
				if err != nil || st != http.StatusCreated {
					errs <- fmt.Errorf("mutator %d: create %s: status %d err %v body %s", m, name, st, err, b)
					return
				}
				st, b, err = post("POST", ts.URL+"/v1/vms/"+name+"/migrate", MigrateVMRequest{Destination: away})
				if err != nil || st != http.StatusOK {
					errs <- fmt.Errorf("mutator %d: migrate %s: status %d err %v body %s", m, name, st, err, b)
					return
				}
				var mig MigrateResponse
				if err := json.Unmarshal(b, &mig); err != nil {
					errs <- fmt.Errorf("mutator %d: decode migrate: %v", m, err)
					return
				}
				mu.Lock()
				migrations = append(migrations, mig)
				mu.Unlock()
				st, b, err = post("DELETE", ts.URL+"/v1/vms/"+name, nil)
				if err != nil || st != http.StatusOK {
					errs <- fmt.Errorf("mutator %d: destroy %s: status %d err %v body %s", m, name, st, err, b)
					return
				}
			}
		}(m)
	}

	for r := 0; r < readers; r++ {
		wgRead.Add(1)
		go func(r int) {
			defer wgRead.Done()
			urls := []string{
				ts.URL + "/v1/vms",
				ts.URL + "/v1/topology",
				ts.URL + "/healthz",
				ts.URL + "/metrics",
				fmt.Sprintf("%s/v1/paths/%d/%d", ts.URL, hyps[0].Node, hyps[len(hyps)-1].Node),
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cl.Get(urls[i%len(urls)])
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: %s -> %d", r, urls[i%len(urls)], resp.StatusCode)
					return
				}
			}
		}(r)
	}

	mutDone := make(chan struct{})
	go func() {
		wgMut.Wait()
		close(mutDone)
	}()
	select {
	case err := <-errs:
		close(stop)
		t.Fatal(err)
	case <-mutDone:
	}
	close(stop)
	wgRead.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if want := mutators * iterations; len(migrations) != want {
		t.Fatalf("collected %d migration responses, want %d", len(migrations), want)
	}

	// Audit every response against the exported span tree.
	var dump struct {
		Spans []traceSpan `json:"spans"`
	}
	if st := doJSON(t, cl, "GET", ts.URL+"/v1/trace", nil, &dump); st != http.StatusOK {
		t.Fatalf("trace: status %d", st)
	}
	byID := map[int]traceSpan{}
	for _, sp := range dump.Spans {
		byID[sp.ID] = sp
	}
	for _, mig := range migrations {
		root, ok := byID[mig.Cost.TraceSpan]
		if !ok || root.Kind != "migration" {
			t.Fatalf("migration %s: trace span %d missing or wrong kind (%+v)", mig.Name, mig.Cost.TraceSpan, root)
		}
		if got := int(root.Attrs["smps"].(float64)); got != mig.Cost.LFTSMPs {
			t.Errorf("migration %s: span attr smps=%d, response lft_smps=%d", mig.Name, got, mig.Cost.LFTSMPs)
		}
		if got := int(root.Attrs["switches"].(float64)); got != mig.Cost.SwitchesUpdated {
			t.Errorf("migration %s: span attr switches=%d, response switches_updated=%d", mig.Name, got, mig.Cost.SwitchesUpdated)
		}
		if got := smpDescendants(dump.Spans, root.ID); got != mig.Cost.LFTSMPs || got != mig.Cost.SpanSMPs {
			t.Errorf("migration %s: %d smp spans under root %d, response lft_smps=%d span_smps=%d",
				mig.Name, got, root.ID, mig.Cost.LFTSMPs, mig.Cost.SpanSMPs)
		}
	}
}

// TestBackpressure holds the command loop mid-command via the exec gate,
// fills the depth-1 admission queue, and asserts the next mutation is
// rejected with 429 + Retry-After while queued work still completes.
func TestBackpressure(t *testing.T) {
	topo, err := topology.BuildRing(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: sriov.VSwitchDynamic, VFsPerHypervisor: 2, RouteWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv := NewServer(c, Config{QueueDepth: 1, RetryAfter: 3 * time.Second})
	srv.execGate = gate // before any command is admitted
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	cl := ts.Client()

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	issue := func(name string) {
		st, err := doJSONE(cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: name}, nil)
		results <- result{st, err}
	}
	go issue("held")
	<-gate // loop has popped "held" and is parked: queue is empty again
	go issue("queued")
	waitFor(t, func() bool { return len(srv.cmds) == 1 }, "queued command to land")

	// Queue full, loop parked: this one must bounce.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/vms", strings.NewReader(`{"name":"bounced"}`))
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	gate <- struct{}{} // release "held"
	<-gate             // loop announces "queued"
	gate <- struct{}{} // release "queued"
	for i := 0; i < 2; i++ {
		if r := <-results; r.err != nil || r.status != http.StatusCreated {
			t.Fatalf("admitted command finished with status %d, err %v", r.status, r.err)
		}
	}
	if v := srv.reg.Counter("api.admission_rejects").Value(); v != 1 {
		t.Fatalf("api.admission_rejects = %d, want 1", v)
	}
}

// TestSnapshotCOW pins the copy-on-write contract: a migration re-clones
// only the LFTs it touched, published snapshots are immutable, and the
// generation advances.
func TestSnapshotCOW(t *testing.T) {
	srv, ts := newTestServer(t, 8, 2, 2, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()

	home, away := hyps[0].Node, hyps[len(hyps)-1].Node
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "cow", Hypervisor: &home}, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	before := srv.Snapshot()

	var mig MigrateResponse
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/cow/migrate", MigrateVMRequest{Destination: away}, &mig); st != http.StatusOK {
		t.Fatalf("migrate: status %d", st)
	}
	after := srv.Snapshot()

	if after.Gen <= before.Gen {
		t.Fatalf("generation did not advance: %d -> %d", before.Gen, after.Gen)
	}
	recloned, shared := 0, 0
	for _, sw := range srv.c.SM.Topo.Switches() {
		if before.lft(sw) == after.lft(sw) {
			shared++
		} else {
			recloned++
		}
	}
	if recloned == 0 {
		t.Fatal("migration re-cloned no LFTs")
	}
	if recloned > mig.Cost.SwitchesUpdated {
		t.Fatalf("re-cloned %d LFTs, but migration touched only %d switches", recloned, mig.Cost.SwitchesUpdated)
	}
	if shared == 0 {
		t.Fatal("no LFT clones were shared across generations (COW not working)")
	}
	// The pre-migration snapshot still resolves the old placement.
	if vm, _ := before.VM("cow"); vm.Node != home {
		t.Fatalf("published snapshot mutated: VM on %d, want %d", vm.Node, home)
	}
}

// TestShutdownCancelsInFlight queues a full reconfiguration, then shuts
// down with an already-expired context: the operation context is cancelled,
// the queued reconfiguration drains as cancelled (503), and Shutdown
// returns the context error. A post-shutdown mutation gets 503.
func TestShutdownCancelsInFlight(t *testing.T) {
	topo, err := topology.BuildRing(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	cas := topo.CAs()
	c, _, err := cloud.New(topo, cas[0], cas[1:], cloud.Config{
		Model: sriov.VSwitchDynamic, VFsPerHypervisor: 2, RouteWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv := NewServer(c, Config{})
	srv.execGate = gate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	type recon struct {
		status int
		body   ReconfigureResponse
		err    error
	}
	got := make(chan recon, 1)
	go func() {
		var body ReconfigureResponse
		st, err := doJSONE(cl, "POST", ts.URL+"/v1/reconfigure", nil, &body)
		got <- recon{st, body, err}
	}()
	<-gate // loop parked with the reconfigure in hand

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(expired) }()
	waitFor(t, func() bool {
		select {
		case <-srv.opCtx.Done():
			return true
		default:
			return false
		}
	}, "operation context to be cancelled")

	gate <- struct{}{} // release: reconfigure runs under the cancelled context
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusServiceUnavailable || !r.body.Cancelled {
		t.Fatalf("reconfigure under cancelled context: status %d, body %+v", r.status, r.body)
	}
	if r.body.SwitchesCancelled == 0 {
		t.Fatalf("no switches reported cancelled: %+v", r.body)
	}
	if err := <-shutdownErr; err != context.Canceled {
		t.Fatalf("Shutdown returned %v, want context.Canceled", err)
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "late"}, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown create: status %d, want 503", st)
	}
	// Idempotent second shutdown.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestEventsSSE tails /v1/events and expects the VM-lifecycle events a
// create emits to arrive over the stream.
func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, 4, 2, 2, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "sse-vm"}, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}

	sc := bufio.NewScanner(resp.Body)
	sawVMEvent := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `created VM "sse-vm"`) {
			sawVMEvent = true
			break
		}
	}
	if !sawVMEvent {
		t.Fatalf("stream ended without the VM-created event (scan err: %v, ctx err: %v)", sc.Err(), ctx.Err())
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
