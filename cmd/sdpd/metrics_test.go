package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sariadne/internal/profile"
	"sariadne/internal/sdpproto"
	"sariadne/internal/telemetry"
)

func TestMetricsEndpointExposition(t *testing.T) {
	ts, _ := newGatewayServer(t)

	// Generate some traffic so phase timers and request counters move.
	resp, _ := do(t, "POST", ts.URL+"/services", mustDoc(t, profile.WorkstationService()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /services = %d", resp.StatusCode)
	}
	resp, _ = do(t, "POST", ts.URL+"/query", mustDoc(t, profile.PDAService()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}

	resp, body := do(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !telemetry.ValidExpositionLine(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	// The acceptance surface: front-end counters, the ontology phase
	// timers (Figure 2), registry histograms, and discovery gauges all on
	// one page.
	for _, name := range []string{
		"sdpd_requests_total",
		"sdpd_request_seconds_count",
		"ontology_parse_seconds_sum",
		"ontology_classify_seconds_count",
		"profile_parse_seconds_count",
		"registry_insert_seconds_bucket",
		"registry_query_seconds_count",
		"registry_entries",
		"match_encoded_ops_total",
		"discovery_bloom_false_positive_rate",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	ts, _ := newGatewayServer(t)
	resp, body := do(t, "GET", ts.URL+"/debug/vars", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("debug vars not JSON: %v", err)
	}
	if _, ok := vars["sdpd_requests_total"]; !ok {
		t.Fatal("sdpd_requests_total missing from /debug/vars")
	}
	if _, ok := vars["registry_insert_seconds"]; !ok {
		t.Fatal("registry_insert_seconds missing from /debug/vars")
	}
}

// TestPprofGatedByFlag: the profiling endpoints exist only when asked for.
func TestPprofGatedByFlag(t *testing.T) {
	srv := newTestServer(t)
	off := httptest.NewServer(newHTTPGateway(srv, false))
	t.Cleanup(off.Close)
	resp, _ := do(t, "GET", off.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag = %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(newHTTPGateway(srv, true))
	t.Cleanup(on.Close)
	resp, body := do(t, "GET", on.URL+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag = %d: %s", resp.StatusCode, body)
	}
}

// TestResponseCodes pins the machine-readable error codes the HTTP status
// mapping relies on.
func TestResponseCodes(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name     string
		datagram []byte
		want     string
	}{
		{"malformed json", []byte("{nope"), sdpproto.CodeBadRequest},
		{"unknown op", mustJSON(t, sdpproto.Request{Op: "fly"}), sdpproto.CodeBadRequest},
		{"bad register doc", mustJSON(t, sdpproto.Request{Op: "register", Doc: "junk"}), sdpproto.CodeBadRequest},
		{"bad query doc", mustJSON(t, sdpproto.Request{Op: "query", Doc: "junk"}), sdpproto.CodeBadRequest},
		{"missing service", mustJSON(t, sdpproto.Request{Op: "deregister", Name: "Nope"}), sdpproto.CodeNotFound},
		{"missing table", mustJSON(t, sdpproto.Request{Op: "get-table", Name: "http://nope"}), sdpproto.CodeNotFound},
	}
	for _, c := range cases {
		resp := s.handle(c.datagram)
		if resp.OK || resp.Code != c.want {
			t.Errorf("%s: ok=%v code=%q, want code %q", c.name, resp.OK, resp.Code, c.want)
		}
	}
	if resp := s.handle(mustJSON(t, sdpproto.Request{Op: "stats"})); !resp.OK || resp.Code != "" {
		t.Errorf("stats: ok=%v code=%q, want success without code", resp.OK, resp.Code)
	}
}
