package api

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ibvsim/internal/sriov"
	"ibvsim/internal/telemetry"
)

// TestExplainTraceSpansByLookup checks /v1/explain?format=trace resolves
// the hops' spans by direct lookup: the response is byte-identical to the
// one the full-trace scan produced, and its allocations do not grow with
// the retained trace.
func TestExplainTraceSpansByLookup(t *testing.T) {
	srv, ts := newTestServer(t, 6, 2, 2, sriov.VSwitchDynamic, Config{})
	cl := ts.Client()
	hyps := srv.Snapshot().Hyps()
	for _, name := range []string{"a", "b"} {
		if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms", CreateVMRequest{Name: name}, nil); st != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, st)
		}
	}
	if st := doJSON(t, cl, "POST", ts.URL+"/v1/vms/a/migrate", MigrateVMRequest{Destination: hyps[len(hyps)-1].Node}, nil); st != http.StatusOK {
		t.Fatalf("migrate: status %d", st)
	}

	resp, err := cl.Get(ts.URL + "/v1/explain?src=b&dst=a&format=trace")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	// The scan the lookup replaced: every retained span, filtered.
	base, err := srv.Snapshot().Explain("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	scanned := base
	want := map[int]bool{}
	for _, h := range scanned.Hops {
		if h.Provenance != nil && h.Provenance.Span > 0 {
			want[h.Provenance.Span] = true
		}
	}
	for _, sv := range srv.tr.SpansSince(0) {
		if want[sv.ID] {
			scanned.Spans = append(scanned.Spans, ExplainSpan{
				ID: sv.ID, Kind: string(sv.Kind), Name: sv.Name,
				Attrs: sv.Attrs, ModelledNS: sv.Modelled.Nanoseconds(),
			})
		}
	}
	if len(scanned.Spans) == 0 {
		t.Fatal("no hop names a span; the test proves nothing")
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, scanned)
	if string(got) != rec.Body.String() {
		t.Fatalf("explain response differs from the scan's:\n%s\nvs\n%s", got, rec.Body.String())
	}

	allocs := func() float64 {
		return testing.AllocsPerRun(20, func() {
			r := base
			srv.attachSpans(&r)
		})
	}
	small := allocs()
	for i := 0; i < 100_000; i++ {
		srv.tr.Emit(telemetry.SpanSMP, "filler", 0, 0, "switch", "filler")
	}
	if large := allocs(); large > small {
		t.Fatalf("attachSpans allocations grew with the trace: %.0f -> %.0f", small, large)
	}
}
