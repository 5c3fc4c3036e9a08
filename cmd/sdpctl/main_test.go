package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/sdpproto"
	"sariadne/internal/telemetry"
	"sariadne/internal/transport"
)

func TestRenderQueryComplete(t *testing.T) {
	var b strings.Builder
	renderQuery(&b, &sdpproto.Response{OK: true, Hits: []discovery.Hit{
		{Service: "MediaWorkstation", Capability: "PlayMovie", Provider: "ws-1", Distance: 3},
	}})
	out := b.String()
	if !strings.Contains(out, "MediaWorkstation") || !strings.Contains(out, "PlayMovie") {
		t.Fatalf("output lost the hit:\n%s", out)
	}
	if strings.Contains(out, "partial") {
		t.Fatalf("complete result rendered a partial marker:\n%s", out)
	}
}

func TestRenderQueryPartialWithHits(t *testing.T) {
	var b strings.Builder
	renderQuery(&b, &sdpproto.Response{
		OK:          true,
		Hits:        []discovery.Hit{{Service: "MediaWorkstation", Capability: "PlayMovie", Provider: "ws-1", Distance: 3}},
		Partial:     true,
		Unreachable: []transport.Addr{"n4", "n9"},
	})
	out := b.String()
	if !strings.Contains(out, "partial result: n4, n9 unreachable") {
		t.Fatalf("partial marker missing:\n%s", out)
	}
	if !strings.Contains(out, "MediaWorkstation") {
		t.Fatalf("partial result dropped usable hits:\n%s", out)
	}
}

func TestRenderQueryPartialEmpty(t *testing.T) {
	var b strings.Builder
	renderQuery(&b, &sdpproto.Response{OK: true, Partial: true, Unreachable: []transport.Addr{"n2"}})
	out := b.String()
	if !strings.Contains(out, "no matching service") || !strings.Contains(out, "n2 unreachable") {
		t.Fatalf("empty partial result must say both 'nothing found' and 'coverage was incomplete':\n%s", out)
	}
}

func TestRenderQueryEmptyComplete(t *testing.T) {
	var b strings.Builder
	renderQuery(&b, &sdpproto.Response{OK: true})
	if got := b.String(); got != "no matching service\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestRenderPeers(t *testing.T) {
	var b strings.Builder
	renderPeers(&b, &sdpproto.Response{OK: true, Peers: []sdpproto.PeerEntry{
		{PeerInfo: discovery.PeerInfo{Addr: "127.0.0.1:8475", LastAnnounce: time.Now().Add(-time.Second), HasSummary: true, Entries: 2, Failures: 1}},
		{PeerInfo: discovery.PeerInfo{Addr: "127.0.0.1:8476"}},
	}})
	out := b.String()
	if !strings.Contains(out, "127.0.0.1:8475") || !strings.Contains(out, "127.0.0.1:8476") {
		t.Fatalf("output lost a peer:\n%s", out)
	}
	if !strings.Contains(out, "no summary") || !strings.Contains(out, "never") {
		t.Fatalf("summary-less seed not marked:\n%s", out)
	}
}

func TestRenderPeersEmpty(t *testing.T) {
	var b strings.Builder
	renderPeers(&b, &sdpproto.Response{OK: true})
	if !strings.Contains(b.String(), "no backbone peers") {
		t.Fatalf("output = %q", b.String())
	}
}

// TestRenderTraceHopTree: forwarded hops indent under their forwarder,
// spans render in Seq order, and give-up reasons survive to the output.
func TestRenderTraceHopTree(t *testing.T) {
	var b strings.Builder
	renderTrace(&b, &sdpproto.Response{OK: true, TraceID: 0xabc100000001, Spans: []telemetry.Span{
		// Deliberately shuffled: renderTrace must sort by Seq.
		{Node: "n2", Event: "received", Peer: "n1", Seq: 4},
		{Node: "n1", Event: "received", Seq: 1},
		{Node: "n1", Event: "local-match", Hits: 1, Seq: 2, Dur: 80 * time.Microsecond},
		{Node: "n1", Event: "forward", Peer: "n2", Seq: 3},
		{Node: "n2", Event: "reply", Hits: 1, Seq: 5},
		{Node: "n1", Event: "unreachable", Peer: "n3", Reason: "retries-exhausted", Seq: 6},
		{Node: "n1", Event: "reply", Hits: 2, Seq: 7},
	}})
	out := b.String()
	if !strings.Contains(out, "trace 0xabc100000001: 7 spans across 2 directories") {
		t.Fatalf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "\n  n2 received peer=n1\n") {
		t.Fatalf("forwarded hop not indented under forwarder:\n%s", out)
	}
	if !strings.Contains(out, "n1 unreachable peer=n3 reason=retries-exhausted") {
		t.Fatalf("give-up reason lost:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 || !strings.HasPrefix(lines[1], "n1 received") || !strings.HasSuffix(lines[7], "n1 reply hits=2") {
		t.Fatalf("spans not in Seq order:\n%s", out)
	}
	if !strings.Contains(out, "dur=80µs") {
		t.Fatalf("duration lost:\n%s", out)
	}
}

// TestRenderTraceInterleavedSeq: Seq counters are per-process, so a
// remote daemon's spans can carry smaller Seq values than the origin's
// forward span. The hop depth must still come from the forward edge, not
// from encounter order.
func TestRenderTraceInterleavedSeq(t *testing.T) {
	var b strings.Builder
	renderTrace(&b, &sdpproto.Response{OK: true, TraceID: 0x5100000001, Spans: []telemetry.Span{
		{Node: "origin", Event: "received", Seq: 10},
		{Node: "remote", Event: "received", Peer: "origin", Seq: 2}, // remote's own counter is younger
		{Node: "origin", Event: "forward", Peer: "remote", Seq: 11},
		{Node: "remote", Event: "reply", Hits: 1, Seq: 3},
		{Node: "origin", Event: "reply", Hits: 1, Seq: 12},
	}})
	out := b.String()
	for _, want := range []string{"\n  remote received peer=origin\n", "\n  remote reply hits=1\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("remote spans lost their indentation:\n%s", out)
		}
	}
}

func TestRenderTraceEmpty(t *testing.T) {
	var b strings.Builder
	renderTrace(&b, &sdpproto.Response{OK: true})
	if !strings.Contains(b.String(), "no trace returned") {
		t.Fatalf("output = %q", b.String())
	}
}

func TestParseMetrics(t *testing.T) {
	in := `# HELP sdpd_requests_total requests handled
# TYPE sdpd_requests_total counter
sdpd_requests_total 42
sdpd_request_seconds_bucket{le="0.001"} 7
sdpd_healthy 1
garbage line with three fields
`
	m, err := parseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m["sdpd_requests_total"] != 42 || m["sdpd_healthy"] != 1 {
		t.Fatalf("parsed = %v", m)
	}
	if _, ok := m[`sdpd_request_seconds_bucket{le="0.001"}`]; ok {
		t.Fatal("labeled series leaked into the plain map")
	}
}

// TestRunHealth drives the health command against a fake daemon gateway:
// healthy and unhealthy verdicts, plus the probe detail in the output.
func TestRunHealth(t *testing.T) {
	body := `{"healthy":true,"ready":false,"probes":[{"name":"store","ok":true},{"name":"peers","ok":false,"err":"no backbone peers known"}]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)

	var b strings.Builder
	healthy, err := runHealth(&b, ts.Listener.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !healthy || !strings.Contains(out, "healthy=ok ready=FAIL") {
		t.Fatalf("verdicts wrong (healthy=%v):\n%s", healthy, out)
	}
	if !strings.Contains(out, "no backbone peers known") {
		t.Fatalf("probe detail lost:\n%s", out)
	}

	body = `{"healthy":false,"ready":false,"probes":[{"name":"backbone","ok":false,"err":"transport: udp: closed"}]}`
	b.Reset()
	healthy, err = runHealth(&b, ts.Listener.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if healthy || !strings.Contains(b.String(), "transport: udp: closed") {
		t.Fatalf("unhealthy daemon misreported:\n%s", b.String())
	}
}

// TestRunTop scrapes two fake daemons — one serving metrics, one dead —
// and checks both land in the table without aborting it.
func TestRunTop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("sdpd_requests_total 9\ndiscovery_forwards_sent_total 4\nsdpd_healthy 1\n"))
	}))
	t.Cleanup(ts.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.Listener.Addr().String()
	dead.Close()

	var b strings.Builder
	runTop(&b, []string{ts.Listener.Addr().String(), deadAddr}, time.Second)
	out := b.String()
	if !strings.Contains(out, "DAEMON") || !strings.Contains(out, "REQS") {
		t.Fatalf("header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows:\n%s", out)
	}
	if !strings.Contains(lines[1], "9") || !strings.Contains(lines[1], "4") {
		t.Fatalf("live daemon's counters missing:\n%s", out)
	}
	if !strings.Contains(lines[2], "down") {
		t.Fatalf("dead daemon not marked down:\n%s", out)
	}
}

// TestRunServices drives the paginated listing against a fake gateway
// that forces two pages, then the -name history view, then a 404.
func TestRunServices(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/services" && r.URL.Query().Get("cursor") == "":
			w.Write([]byte(`{"services":[{"name":"CameraService","version":1},{"name":"MediaWorkstation","version":3}],"next_cursor":"MediaWorkstation","total":3}`))
		case r.URL.Path == "/services":
			w.Write([]byte(`{"services":[{"name":"PrinterService","version":1}],"next_cursor":"","total":3}`))
		case r.URL.Path == "/services/MediaWorkstation":
			w.Write([]byte(`{"name":"MediaWorkstation","live":true,"versions":[{"version":1},{"version":2},{"version":3}]}`))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()

	var b strings.Builder
	if err := runServices(&b, addr, "", 2, time.Second); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"CameraService", "MediaWorkstation", "PrinterService", "v3", "3 live service(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	if err := runServices(&b, addr, "MediaWorkstation", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if !strings.Contains(out, "live, 3 version(s)") || !strings.Contains(out, "v3  (current)") {
		t.Fatalf("history view wrong:\n%s", out)
	}

	if err := runServices(&b, addr, "NoSuchService", 0, time.Second); err == nil {
		t.Fatal("missing service should error")
	}
}

// TestRunTenantsEnvelope pins the wire shape runTenants parses: the
// gateway wraps the admission table in the protocol envelope under its
// "tenants" key, and the bearer token must ride the Authorization
// header.
func TestRunTenantsEnvelope(t *testing.T) {
	var gotAuth string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/tenants" {
			t.Errorf("path = %s", r.URL.Path)
		}
		gotAuth = r.Header.Get("Authorization")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true,"tenants":{"enforcing":true,"auth":"hmac",` +
			`"limits":{"rate_per_sec":5,"burst":10,"max_live_services":200},` +
			`"tenants":[{"tenant":"alice","live_services":1,"publishes_total":3,` +
			`"publishes_this_minute":2,"rate_limited_total":4,"denied_total":1,"rate_tokens":1.5}]}}`))
	}))
	defer ts.Close()

	var buf strings.Builder
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := runTenants(&buf, addr, "tok123", time.Second); err != nil {
		t.Fatal(err)
	}
	if gotAuth != "Bearer tok123" {
		t.Fatalf("Authorization = %q", gotAuth)
	}
	out := buf.String()
	for _, want := range []string{
		"enforcing via hmac",
		"rate 5/s burst 10",
		"max 200 live services",
		"alice",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	row := findLine(t, out, "alice")
	for _, col := range []string{"1", "3", "2", "4"} {
		if !strings.Contains(row, col) {
			t.Fatalf("alice row missing %q: %s", col, row)
		}
	}
}

// findLine returns the line of out containing needle.
func findLine(t *testing.T, out, needle string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, needle) {
			return line
		}
	}
	t.Fatalf("no line contains %q:\n%s", needle, out)
	return ""
}
