// Command sdpctl is the client for a sdpd directory node: it publishes
// Amigo-S service advertisements, resolves semantic queries, uploads
// ontologies, and inspects directory state over UDP.
//
// Usage:
//
//	sdpctl -server localhost:7474 register service.xml
//	sdpctl -server localhost:7474 query request.xml
//	sdpctl -server localhost:7474 ontology media.xml
//	sdpctl -server localhost:7474 deregister MediaWorkstation
//	sdpctl -server localhost:7474 stats
//	sdpctl -server localhost:7474 peers
//	sdpctl -server localhost:7474 trace request.xml
//	sdpctl health localhost:8080
//	sdpctl services localhost:8080
//	sdpctl services -name MediaWorkstation localhost:8080
//	sdpctl top localhost:8080 localhost:8081 localhost:8082
//	sdpctl top -watch 2s localhost:8080 localhost:8081
//	sdpctl watch -metric discovery_query_seconds localhost:8080
//	sdpctl watch -since 30m -metric store_append_seconds localhost:8080
//	sdpctl alerts localhost:8080
//
// Against a daemon with tenant admission enabled, mint a token and
// publish into your namespace:
//
//	sdpctl login -secret $SDP_SECRET -tenant alice -ttl 24h
//	sdpctl -token $TOKEN publish service.xml
//	sdpctl tenants -token $ADMIN_TOKEN localhost:8080
//
// login mints a self-describing HMAC token client-side (no daemon round
// trip); publish qualifies the advertisement name with the token's tenant
// prefix before registering, so `service.xml` can keep a bare name. The
// -token flag (or SDP_TOKEN) rides along on every other command too.
//
// trace resolves a query with hop-level tracing on and renders the
// cross-daemon span tree; health, top and tenants talk to daemons' HTTP
// gateways instead of the UDP control port.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpproto"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
	"sariadne/internal/transport"
)

func main() {
	server := flag.String("server", "localhost:7474", "sdpd address")
	timeout := flag.Duration("timeout", 3*time.Second, "reply timeout")
	token := flag.String("token", os.Getenv("SDP_TOKEN"), "bearer token for daemons with admission enabled (default $SDP_TOKEN)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "sdpctl: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	logger := slog.With("component", "ctl")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	// health, top and tenants speak HTTP to daemon gateways, not UDP to
	// -server; login is entirely client-side.
	switch args[0] {
	case "login":
		loginFlags := flag.NewFlagSet("login", flag.ExitOnError)
		secret := loginFlags.String("secret", os.Getenv("SDP_SECRET"), "shared HMAC secret, >= 16 bytes (default $SDP_SECRET)")
		tenantName := loginFlags.String("tenant", "", "tenant namespace the token publishes as")
		role := loginFlags.String("role", "publisher", "role claimed by the token: reader, publisher or admin")
		ttl := loginFlags.Duration("ttl", 24*time.Hour, "token lifetime (0 = never expires)")
		loginFlags.Parse(args[1:]) //nolint:errcheck // ExitOnError
		if loginFlags.NArg() != 0 || *tenantName == "" {
			usage()
		}
		tok, err := runLogin(*secret, *tenantName, *role, *ttl)
		if err != nil {
			fatal("login failed", "err", err)
		}
		fmt.Println(tok)
		return
	case "tenants":
		tenFlags := flag.NewFlagSet("tenants", flag.ExitOnError)
		tenToken := tenFlags.String("token", *token, "admin bearer token (default the global -token / $SDP_TOKEN)")
		tenFlags.Parse(args[1:]) //nolint:errcheck // ExitOnError
		if tenFlags.NArg() != 1 {
			usage()
		}
		if err := runTenants(os.Stdout, tenFlags.Arg(0), *tenToken, *timeout); err != nil {
			fatal("tenants listing failed", "addr", tenFlags.Arg(0), "err", err)
		}
		return
	case "health":
		if len(args) != 2 {
			usage()
		}
		ok, err := runHealth(os.Stdout, args[1], *timeout)
		if err != nil {
			fatal("health check failed", "addr", args[1], "err", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case "top":
		topFlags := flag.NewFlagSet("top", flag.ExitOnError)
		watch := topFlags.Duration("watch", 0, "re-render the table at this interval (0 = once)")
		count := topFlags.Int("count", 0, "with -watch, stop after this many renders (0 = forever)")
		topFlags.Parse(args[1:]) //nolint:errcheck // ExitOnError
		if topFlags.NArg() < 1 {
			usage()
		}
		runTopWatch(os.Stdout, topFlags.Args(), *timeout, *watch, *count)
		return
	case "watch":
		watchFlags := flag.NewFlagSet("watch", flag.ExitOnError)
		metric := watchFlags.String("metric", "discovery_query_seconds", "histogram metric to window")
		interval := watchFlags.Duration("interval", time.Second, "scrape cadence")
		count := watchFlags.Int("count", 0, "stop after this many scrapes (0 = forever)")
		since := watchFlags.Duration("since", 0, "first print this span of persisted history from GET /timeseries (journal-backed daemons serve it across restarts)")
		watchFlags.Parse(args[1:]) //nolint:errcheck // ExitOnError
		if watchFlags.NArg() != 1 {
			usage()
		}
		if *since > 0 {
			if err := runWatchHistory(os.Stdout, watchFlags.Arg(0), *metric, *timeout, *since); err != nil {
				fatal("history fetch failed", "addr", watchFlags.Arg(0), "err", err)
			}
		}
		runWatch(os.Stdout, watchFlags.Arg(0), *metric, *timeout, *interval, *count)
		return
	case "alerts":
		if len(args) != 2 {
			usage()
		}
		quiet, err := runAlerts(os.Stdout, args[1], *timeout)
		if err != nil {
			fatal("alerts fetch failed", "addr", args[1], "err", err)
		}
		if !quiet {
			os.Exit(1)
		}
		return
	case "services":
		svcFlags := flag.NewFlagSet("services", flag.ExitOnError)
		limit := svcFlags.Int("limit", 100, "page size for the paginated listing")
		name := svcFlags.String("name", "", "show one advertisement's full version history instead")
		svcFlags.Parse(args[1:]) //nolint:errcheck // ExitOnError
		if svcFlags.NArg() != 1 {
			usage()
		}
		if err := runServices(os.Stdout, svcFlags.Arg(0), *name, *limit, *timeout); err != nil {
			fatal("services listing failed", "addr", svcFlags.Arg(0), "err", err)
		}
		return
	}

	var req sdpproto.Request
	switch args[0] {
	case "register", "publish", "query", "ontology", "trace":
		if len(args) != 2 {
			usage()
		}
		doc, err := os.ReadFile(args[1])
		if err != nil {
			fatal("read document", "err", err)
		}
		switch args[0] {
		case "ontology":
			req = sdpproto.Request{Op: "add-ontology", Doc: string(doc)}
		case "trace":
			req = sdpproto.Request{Op: "query", Doc: string(doc), Trace: true}
		case "publish":
			// publish = register with the advertisement name qualified by
			// the token's tenant namespace, read from the self-describing
			// token — the document keeps its bare name on disk.
			qualified, err := qualifyDoc(doc, *token)
			if err != nil {
				fatal("publish", "err", err)
			}
			req = sdpproto.Request{Op: "register", Doc: qualified}
		default:
			req = sdpproto.Request{Op: args[0], Doc: string(doc)}
		}
	case "deregister":
		if len(args) != 2 {
			usage()
		}
		req = sdpproto.Request{Op: "deregister", Name: args[1]}
	case "table":
		if len(args) != 2 {
			usage()
		}
		req = sdpproto.Request{Op: "get-table", Name: args[1]}
	case "stats":
		req = sdpproto.Request{Op: "stats"}
	case "peers":
		req = sdpproto.Request{Op: "peers"}
	default:
		usage()
	}
	req.Token = *token

	resp, err := sdpproto.Send(*server, *timeout, req)
	if err != nil {
		fatal("request failed", "server", *server, "err", err)
	}
	if !resp.OK {
		fatal("server error", "code", resp.Code, "err", resp.Error)
	}
	switch args[0] {
	case "query":
		renderQuery(os.Stdout, resp)
	case "trace":
		renderQuery(os.Stdout, resp)
		renderTrace(os.Stdout, resp)
	case "stats":
		fmt.Printf("capabilities: %d\n", resp.Stats.Capabilities)
		for _, u := range resp.Stats.Ontologies {
			fmt.Printf("ontology: %s\n", u)
		}
	case "table":
		fmt.Println(string(resp.Table))
	case "peers":
		renderPeers(os.Stdout, resp)
	default:
		fmt.Println("ok")
	}
}

// renderPeers prints the daemon's live backbone view: who it federates
// with, how fresh their announcements are, whether their content
// summaries are held, and how many forwards to them were abandoned.
func renderPeers(w io.Writer, resp *sdpproto.Response) {
	if len(resp.Peers) == 0 {
		fmt.Fprintln(w, "no backbone peers")
		return
	}
	fmt.Fprintf(w, "%-24s %-16s %-10s %-8s %s\n", "PEER", "LAST-ANNOUNCE", "ENTRIES", "GIVEUPS", "TRAFFIC")
	for _, p := range resp.Peers {
		last := "never"
		if !p.LastAnnounce.IsZero() {
			last = time.Since(p.LastAnnounce).Round(time.Millisecond).String() + " ago"
		}
		entries := "no summary"
		if p.HasSummary {
			entries = fmt.Sprintf("%d", p.Entries)
		}
		traffic := "-"
		if p.Transport != nil {
			traffic = fmt.Sprintf("%dB out / %dB in", p.Transport.BytesSent, p.Transport.BytesReceived)
		}
		fmt.Fprintf(w, "%-24s %-16s %-10s %-8d %s\n", p.Addr, last, entries, p.Failures, traffic)
	}
}

// renderQuery prints a query reply, surfacing the server's completeness
// marker: a partial result is still shown (graceful degradation), but
// the user is told which backbone directories never answered so they can
// retry once the network heals.
func renderQuery(w io.Writer, resp *sdpproto.Response) {
	if len(resp.Hits) == 0 {
		if resp.Partial {
			fmt.Fprintf(w, "no matching service (partial result: %s unreachable — retry may find more)\n",
				joinAddrs(resp.Unreachable))
			return
		}
		fmt.Fprintln(w, "no matching service")
		return
	}
	fmt.Fprintf(w, "%-24s %-24s %-20s %s\n", "SERVICE", "CAPABILITY", "PROVIDER", "DISTANCE")
	for _, h := range resp.Hits {
		fmt.Fprintf(w, "%-24s %-24s %-20s %d\n", h.Service, h.Capability, h.Provider, h.Distance)
	}
	if resp.Partial {
		fmt.Fprintf(w, "partial result: %s unreachable — more services may exist\n",
			joinAddrs(resp.Unreachable))
	}
}

// joinAddrs lists the backbone directories a partial result missed.
func joinAddrs(addrs []transport.Addr) string {
	names := make([]string, len(addrs))
	for i, a := range addrs {
		names[i] = string(a)
	}
	return strings.Join(names, ", ")
}

// renderTrace prints the hop tree of a traced query: spans in recorded
// order, indented by forwarding depth so the cross-daemon fan-out reads
// like a call tree. The origin daemon sits at depth zero; every forward
// or hedge span pushes its target one level deeper.
func renderTrace(w io.Writer, resp *sdpproto.Response) {
	if resp.TraceID == 0 || len(resp.Spans) == 0 {
		fmt.Fprintln(w, "no trace returned (daemon predates tracing?)")
		return
	}
	spans := make([]telemetry.Span, len(resp.Spans))
	copy(spans, resp.Spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })

	// Depths come from forward/hedge edges alone, iterated to a fixpoint:
	// Seq counters are per-process, so a remote daemon's spans can sort
	// before the origin's forward span and a single ordered pass would
	// misfile them at the root. The root is the node no one forwarded to.
	forwarded := map[string]bool{}
	for _, s := range spans {
		if s.Event == "forward" || s.Event == "hedge" {
			forwarded[s.Peer] = true
		}
	}
	root := spans[0].Node
	for _, s := range spans {
		if !forwarded[s.Node] {
			root = s.Node
			break
		}
	}
	depth := map[string]int{root: 0}
	for changed := true; changed; {
		changed = false
		for _, s := range spans {
			if s.Event != "forward" && s.Event != "hedge" {
				continue
			}
			d, ok := depth[s.Node]
			if !ok {
				continue
			}
			if _, ok := depth[s.Peer]; !ok {
				depth[s.Peer] = d + 1
				changed = true
			}
		}
	}
	nodes := map[string]bool{}
	for _, s := range spans {
		nodes[s.Node] = true
	}
	fmt.Fprintf(w, "trace 0x%x: %d spans across %d directories\n", resp.TraceID, len(spans), len(nodes))
	for _, s := range spans {
		line := strings.Repeat("  ", depth[s.Node]) + s.Node + " " + s.Event
		if s.Peer != "" {
			line += " peer=" + s.Peer
		}
		if s.Event == "local-match" || s.Event == "reply" {
			line += fmt.Sprintf(" hits=%d", s.Hits)
		}
		if s.Reason != "" {
			line += " reason=" + s.Reason
		}
		if s.Dur > 0 {
			line += " dur=" + s.Dur.Round(time.Microsecond).String()
		}
		fmt.Fprintln(w, line)
	}
}

// runServices lists a daemon's live advertisements through the HTTP
// gateway's paginated GET /services, following next_cursor until the
// listing is complete; with -name it fetches one advertisement's version
// ledger instead (withdrawn versions included).
func runServices(w io.Writer, addr, name string, limit int, timeout time.Duration) error {
	client := httpClient(timeout)
	if name != "" {
		resp, err := client.Get("http://" + addr + "/services/" + name)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /services/%s: %s: %s", name, resp.Status, strings.TrimSpace(string(body)))
		}
		var hist struct {
			Name     string `json:"name"`
			Live     bool   `json:"live"`
			Versions []struct {
				Version uint64 `json:"version"`
			} `json:"versions"`
		}
		if err := json.Unmarshal(body, &hist); err != nil {
			return fmt.Errorf("malformed reply: %w", err)
		}
		state := "live"
		if !hist.Live {
			state = "withdrawn"
		}
		fmt.Fprintf(w, "%s: %s, %d version(s)\n", hist.Name, state, len(hist.Versions))
		for _, v := range hist.Versions {
			marker := ""
			if hist.Live && v.Version == hist.Versions[len(hist.Versions)-1].Version {
				marker = "  (current)"
			}
			fmt.Fprintf(w, "  v%d%s\n", v.Version, marker)
		}
		return nil
	}

	type entry struct {
		Name    string `json:"name"`
		Version uint64 `json:"version"`
	}
	var entries []entry
	total := 0
	cursor := ""
	for {
		u := fmt.Sprintf("http://%s/services?limit=%d", addr, limit)
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		resp, err := client.Get(u)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /services: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		var page struct {
			Services   []entry `json:"services"`
			NextCursor string  `json:"next_cursor"`
			Total      int     `json:"total"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return fmt.Errorf("malformed reply: %w", err)
		}
		entries = append(entries, page.Services...)
		total = page.Total
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(entries) == 0 {
		fmt.Fprintln(w, "no live services")
		return nil
	}
	fmt.Fprintf(w, "%-32s %s\n", "SERVICE", "VERSION")
	for _, e := range entries {
		fmt.Fprintf(w, "%-32s v%d\n", e.Name, e.Version)
	}
	fmt.Fprintf(w, "%d live service(s)\n", total)
	return nil
}

// httpClient builds a client with the shared request timeout.
func httpClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout}
}

// runHealth fetches one daemon's /healthz and renders the probe table.
// It reports whether the daemon is healthy so main can exit non-zero for
// scripts; 503 is a verdict, not a transport error.
func runHealth(w io.Writer, addr string, timeout time.Duration) (bool, error) {
	resp, err := httpClient(timeout).Get("http://" + addr + "/healthz")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return false, err
	}
	var st struct {
		Healthy bool      `json:"healthy"`
		Ready   bool      `json:"ready"`
		Checked time.Time `json:"checked"`
		Probes  []struct {
			Name string `json:"name"`
			OK   bool   `json:"ok"`
			Err  string `json:"err"`
		} `json:"probes"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return false, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	renderHealth(w, addr, st.Healthy, st.Ready, func(yield func(name string, ok bool, detail string)) {
		for _, p := range st.Probes {
			yield(p.Name, p.OK, p.Err)
		}
	})
	return st.Healthy, nil
}

// renderHealth prints one daemon's health verdicts and per-probe rows.
func renderHealth(w io.Writer, addr string, healthy, ready bool, probes func(func(name string, ok bool, detail string))) {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	fmt.Fprintf(w, "%s: healthy=%s ready=%s\n", addr, verdict(healthy), verdict(ready))
	probes(func(name string, ok bool, detail string) {
		fmt.Fprintf(w, "  %-10s %-5s %s\n", name, verdict(ok), detail)
	})
}

// topColumns are the /metrics series rendered by top, in column order.
// The short header keeps a three-daemon federation on one screen.
var topColumns = []struct{ header, metric string }{
	{"REQS", "sdpd_requests_total"},
	{"ERRS", "sdpd_request_errors_total"},
	{"SERVED", "discovery_queries_served_total"},
	{"FWD", "discovery_forwards_sent_total"},
	{"PRUNED", "discovery_forwards_pruned_total"},
	{"GIVEUP", "discovery_forward_giveups_total"},
	{"PARTIAL", "discovery_partial_replies_total"},
	{"TRACES", "telemetry_recorder_traces_total"},
	{"B-OUT", "transport_bytes_sent_total"},
	{"B-IN", "transport_bytes_received_total"},
	{"HEALTHY", "sdpd_healthy"},
}

// runTop scrapes every daemon's /metrics once and renders the shared
// counters side by side — a federation-wide glance at load, pruning
// effectiveness and degradation. Unreachable daemons get a "down" row
// instead of failing the whole table.
func runTop(w io.Writer, addrs []string, timeout time.Duration) {
	client := httpClient(timeout)
	fmt.Fprintf(w, "%-22s", "DAEMON")
	for _, c := range topColumns {
		fmt.Fprintf(w, " %8s", c.header)
	}
	fmt.Fprintln(w)
	for _, addr := range addrs {
		fmt.Fprintf(w, "%-22s", addr)
		metrics, err := scrapeWithRetry(func() (map[string]float64, error) {
			return scrapeMetrics(client, addr)
		})
		if err != nil {
			fmt.Fprintf(w, " down: %v\n", err)
			continue
		}
		for _, c := range topColumns {
			v, ok := metrics[c.metric]
			if !ok {
				fmt.Fprintf(w, " %8s", "-")
				continue
			}
			fmt.Fprintf(w, " %8s", strconv.FormatFloat(v, 'f', -1, 64))
		}
		fmt.Fprintln(w)
	}
}

// scrapeMetrics fetches one daemon's Prometheus exposition and parses
// the plain (label-free) series into a name->value map.
func scrapeMetrics(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition, keeping label-free
// series ("name value") and skipping comments and histogram buckets.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// runLogin mints a self-describing HMAC token entirely client-side; a
// daemon started with the same -auth-secret verifies it without any
// login round trip or shared session state.
func runLogin(secret, tenantName, roleName string, ttl time.Duration) (string, error) {
	if secret == "" {
		return "", fmt.Errorf("login needs -secret (or SDP_SECRET)")
	}
	role, err := tenant.ParseRole(roleName)
	if err != nil {
		return "", err
	}
	return tenant.MintToken([]byte(secret), tenantName, role, ttl, nil)
}

// qualifyDoc rewrites an advertisement's service name under the token's
// tenant namespace (name "ws" with alice's token publishes "alice/ws"),
// so documents can keep bare names on disk. The tenant comes from the
// token's self-describing claims; static tokens are opaque to clients,
// so their holders use plain register with a pre-qualified name.
func qualifyDoc(doc []byte, token string) (string, error) {
	if token == "" {
		return "", fmt.Errorf("publish needs -token (or SDP_TOKEN); mint one with sdpctl login")
	}
	tn, _, ok := tenant.TokenTenant(token)
	if !ok {
		return "", fmt.Errorf("token is not self-describing; use register with a tenant-qualified name instead")
	}
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return "", fmt.Errorf("parse advertisement: %w", err)
	}
	svc.Name = tenant.Qualify(tn, svc.Name)
	out, err := profile.Marshal(svc)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// runTenants fetches the admission table from a daemon's HTTP gateway
// (GET /tenants, admin-only) and renders one row per tenant.
func runTenants(w io.Writer, addr, token string, timeout time.Duration) error {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/tenants", nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := httpClient(timeout).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /tenants: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	// The gateway wraps every reply in the protocol envelope; the
	// admission table sits under its "tenants" key.
	var envelope sdpproto.Response
	if err := json.Unmarshal(body, &envelope); err != nil {
		return fmt.Errorf("malformed reply: %w", err)
	}
	table := envelope.Tenants
	if table == nil {
		return fmt.Errorf("reply carries no admission table")
	}
	mode := "open (no admission)"
	if table.Enforcing {
		mode = "enforcing via " + table.Auth
	}
	fmt.Fprintf(w, "%s: %s\n", addr, mode)
	limits := []string{}
	if table.Limits.RatePerSec > 0 {
		limits = append(limits, fmt.Sprintf("rate %g/s burst %d", table.Limits.RatePerSec, table.Limits.Burst))
	}
	if table.Limits.MaxLiveServices > 0 {
		limits = append(limits, fmt.Sprintf("max %d live services", table.Limits.MaxLiveServices))
	}
	if table.Limits.MaxPublishesPerMinute > 0 {
		limits = append(limits, fmt.Sprintf("max %d publishes/min", table.Limits.MaxPublishesPerMinute))
	}
	if len(limits) > 0 {
		fmt.Fprintf(w, "limits: %s\n", strings.Join(limits, ", "))
	}
	if len(table.Tenants) == 0 {
		fmt.Fprintln(w, "no tenants seen")
		return nil
	}
	fmt.Fprintf(w, "%-20s %8s %10s %8s %10s %8s\n", "TENANT", "LIVE", "PUBLISHES", "IN-MIN", "THROTTLED", "DENIED")
	for _, t := range table.Tenants {
		fmt.Fprintf(w, "%-20s %8d %10d %8d %10d %8d\n",
			t.Tenant, t.LiveServices, t.PublishesTotal, t.PublishesThisMinute, t.RateLimitedTotal, t.DeniedTotal)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sdpctl [-server host:port] <command>
commands:
  register <service.xml>    publish an Amigo-S advertisement
  publish <service.xml>     like register, but first qualify the service name
                            with the -token's tenant namespace (alice/ws)
  login -secret S -tenant T [-role publisher] [-ttl 24h]
                            mint an HMAC bearer token for daemons with
                            -auth-secret admission (printed to stdout)
  tenants [-token T] <http-addr>
                            show a daemon's admission table (admin token)
  deregister <name>         withdraw a service
  query <request.xml>       resolve the required capabilities
  trace <request.xml>       resolve with tracing on and render the hop tree
  ontology <ontology.xml>   upload an ontology (classified+encoded server-side)
  table <ontology-uri>      fetch the encoded code table for an ontology
  stats                     show directory state
  peers                     show the daemon's directory backbone view
  health <http-addr>        fetch a daemon's /healthz probe report (exit 1 if unhealthy)
  services [-limit N] [-name svc] <http-addr>
                            list live advertisements (paginated GET /services), or
                            one advertisement's version history with -name
  top [-watch 2s] [-count N] <http-addr>...
                            scrape several daemons' /metrics into one table,
                            optionally re-rendered at an interval
  watch [-metric discovery_query_seconds] [-interval 1s] [-count N] [-since 30m] <http-addr>
                            stream windowed p50/p95/p99/p999 of one histogram
                            metric (each row covers ops since the last scrape);
                            -since first prints persisted history, surviving
                            daemon restarts when the daemon journals telemetry
  alerts <http-addr>        show the drift watchdog's active and fired alerts
                            (exit 1 while any alert is active)`)
	os.Exit(2)
}
