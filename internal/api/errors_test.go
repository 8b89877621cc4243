package api

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ibvsim/internal/cloud"
	"ibvsim/internal/sriov"
)

// TestErrorStatusTable walks every refusal the VM endpoints can return,
// through both control planes: the status comes from the typed error and
// the body text is the cloud's message, unchanged.
func TestErrorStatusTable(t *testing.T) {
	type row struct {
		what         string
		method, path string
		body         any
		status       int
		msg          string
	}
	run := func(t *testing.T, srv *Server, ts *httptest.Server) {
		cl := ts.Client()
		hyps := srv.Snapshot().Hyps()
		home, full := hyps[0].Node, hyps[1].Node
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: "a", Hypervisor: &home}, nil); st != http.StatusCreated {
			t.Fatalf("create a: status %d", st)
		}
		for i := 0; i < hyps[1].VFs; i++ {
			name := fmt.Sprintf("fill%d", i)
			if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: name, Hypervisor: &full}, nil); st != http.StatusCreated {
				t.Fatalf("create %s: status %d", name, st)
			}
		}
		smNode := srv.Snapshot().SMNode
		rows := []row{
			{"exists", "POST", "/v1/vms", CreateVMRequest{Name: "a", Hypervisor: &home},
				http.StatusConflict, `cloud: VM "a" already exists`},
			{"no free VF", "POST", "/v1/vms", CreateVMRequest{Name: "b", Hypervisor: &full},
				http.StatusConflict, fmt.Sprintf("cloud: hypervisor %d has no free VF", full)},
			{"same node", "POST", "/v1/vms/a/migrate", MigrateVMRequest{Destination: home},
				http.StatusConflict, fmt.Sprintf("cloud: VM \"a\" is already on node %d", home)},
			{"no VM (destroy)", "DELETE", "/v1/vms/ghost", nil,
				http.StatusNotFound, `cloud: no VM "ghost"`},
			{"no VM (migrate)", "POST", "/v1/vms/ghost/migrate", MigrateVMRequest{Destination: home},
				http.StatusNotFound, `cloud: no VM "ghost"`},
			{"not a hypervisor", "POST", "/v1/vms", CreateVMRequest{Name: "b", Hypervisor: &smNode},
				http.StatusBadRequest, fmt.Sprintf("cloud: node %d is not a hypervisor", smNode)},
		}
		for _, r := range rows {
			var got map[string]string
			if st := doJSON(t, cl, r.method, ts.URL+r.path, r.body, &got); st != r.status || got["error"] != r.msg || len(got) != 1 {
				t.Errorf("%s: status %d body %v, want %d {error: %q}", r.what, st, got, r.status, r.msg)
			}
		}
	}
	t.Run("single-actor", func(t *testing.T) {
		srv, ts := newTestServer(t, 6, 2, 1, sriov.VSwitchDynamic, Config{})
		run(t, srv, ts)
	})
	t.Run("sharded", func(t *testing.T) {
		srv, ts := newShardedServer(t, Config{Shards: 2})
		run(t, srv, ts)
	})

	// The classifier itself, including the paths no single request above
	// reaches: a busy VM (sharded mode, mid cross-shard migration) and an
	// unknown failure. A message that merely reads like a refusal is a 500:
	// statuses come from the error's type, not its wording.
	for _, c := range []struct {
		err    error
		status int
		msg    string
	}{
		{fmt.Errorf("cloud: VM %q %w (another operation is in flight)", "x", cloud.ErrBusy),
			http.StatusConflict, `cloud: VM "x" is busy (another operation is in flight)`},
		{fmt.Errorf("cloud: no hypervisor has a %w", cloud.ErrNoFreeVF),
			http.StatusConflict, "cloud: no hypervisor has a free VF"},
		{fmt.Errorf("wave 2: %w", fmt.Errorf("cloud: %w %q", cloud.ErrNoVM, "y")),
			http.StatusNotFound, `wave 2: cloud: no VM "y"`},
		{errors.New("boom"), http.StatusInternalServerError, "boom"},
		{errors.New(`cloud: VM "z" already exists`), http.StatusInternalServerError, `cloud: VM "z" already exists`},
	} {
		if got := classifyErr(c.err); got != c.status || c.err.Error() != c.msg {
			t.Errorf("%q: status %d, want %d (message %q)", c.err, got, c.status, c.msg)
		}
	}
}
