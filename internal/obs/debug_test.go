package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestDebugMuxMetrics(t *testing.T) {
	mux := NewDebugMux(func() any { return map[string]int{"calls": 3} }, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, body := get(t, srv, "/debug/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var doc struct {
		Goroutines int
		HeapBytes  uint64
		Metrics    map[string]int
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if doc.Goroutines <= 0 || doc.HeapBytes == 0 {
		t.Fatalf("runtime gauges missing: %+v", doc)
	}
	if doc.Metrics["calls"] != 3 {
		t.Fatalf("Metrics = %+v", doc.Metrics)
	}
}

func TestDebugMuxTraces(t *testing.T) {
	rec := NewRecorder(8, -1)
	for i := 1; i <= 3; i++ {
		tr := &Trace{ID: uint64(i), Method: fmt.Sprintf("m%d", i), Peer: 5, Begin: time.Now()}
		tr.AddSpan("handle", tr.Begin, time.Duration(i)*time.Millisecond)
		rec.Observe(tr, time.Duration(i)*time.Millisecond, nil)
	}
	mux := NewDebugMux(nil, rec)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, body := get(t, srv, "/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var all []TraceRecord
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(all) != 3 || all[0].ID != 3 {
		t.Fatalf("traces = %+v", all)
	}

	_, body = get(t, srv, "/debug/traces?id=2")
	var one []TraceRecord
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Method != "m2" || len(one[0].Spans) != 1 {
		t.Fatalf("filtered traces = %+v", one)
	}

	_, body = get(t, srv, "/debug/traces?limit=1")
	var lim []TraceRecord
	if err := json.Unmarshal(body, &lim); err != nil {
		t.Fatal(err)
	}
	if len(lim) != 1 || lim[0].ID != 3 {
		t.Fatalf("limited traces = %+v", lim)
	}

	if resp, _ := get(t, srv, "/debug/traces?id=notanumber"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status = %d", resp.StatusCode)
	}
}

func TestDebugMuxDisabledEndpoints(t *testing.T) {
	mux := NewDebugMux(nil, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if resp, _ := get(t, srv, "/debug/metrics"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/debug/traces"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traces status = %d", resp.StatusCode)
	}
}

func TestDebugMuxPprof(t *testing.T) {
	mux := NewDebugMux(nil, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, body := get(t, srv, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof index: status %d, %d bytes", resp.StatusCode, len(body))
	}
}
