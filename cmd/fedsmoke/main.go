// Command fedsmoke is the CI smoke check behind `make federation-smoke`:
// it builds sdpd, boots three daemons federated over loopback UDP,
// registers a service advertisement on one, resolves a semantic query
// from another, and fails unless the hit comes back across the backbone.
// It also scrapes GET /metrics on a federated daemon and requires the
// transport byte counters to be nonzero, proving real datagrams moved.
//
// The observability surfaces ride the same boot: a traced query from C
// must return spans naming the cross-daemon hop to B, the origin daemon
// must serve that trace back on GET /traces/{id}, trace IDs minted by
// different processes must not collide, and GET /healthz must go green
// on all three daemons.
//
// A second three-daemon federation then boots with tenant admission
// enabled (-auth-secret): unauthorized publishes must be rejected with
// typed codes on every daemon and must never surface in any peer's
// Bloom summary, an authorized tenant-qualified publish must resolve
// across the backbone, a tenant driven past its burst must get
// rate_limited, and tenant_rate_limited_total must show on /metrics.
//
// Usage:
//
//	go run ./cmd/fedsmoke
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"sariadne/internal/profile"
	"sariadne/internal/sdpproto"
	"sariadne/internal/tenant"
)

const smokeDeadline = 60 * time.Second

var ontologies = []string{
	"internal/profile/testdata/media-ontology.xml",
	"internal/profile/testdata/servers-ontology.xml",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fedsmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("fedsmoke: ok")
}

// daemon is one booted sdpd process.
type daemon struct {
	name       string
	clientAddr string
	fedAddr    string
	httpAddr   string
	cmd        *exec.Cmd
}

func run() error {
	tmp, err := os.MkdirTemp("", "fedsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "sdpd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sdpd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build sdpd: %w", err)
	}

	deadline := time.Now().Add(smokeDeadline)

	// Three daemons on loopback: A is the seed, B and C peer with it (C
	// also with B, so summaries and queries travel every edge we assert).
	a, err := boot(bin, "a", true, nil)
	if err != nil {
		return err
	}
	defer a.stop()
	b, err := boot(bin, "b", true, nil, a.fedAddr)
	if err != nil {
		return err
	}
	defer b.stop()
	c, err := boot(bin, "c", true, nil, a.fedAddr, b.fedAddr)
	if err != nil {
		return err
	}
	defer c.stop()
	for _, d := range []*daemon{a, b, c} {
		if err := d.awaitUp(deadline); err != nil {
			return err
		}
	}

	// Register the media center on B, then wait until C's view of the
	// backbone shows B's directory carrying entries.
	doc, err := os.ReadFile("internal/profile/testdata/media-center.xml")
	if err != nil {
		return err
	}
	resp, err := b.do(sdpproto.Request{Op: "register", Doc: string(doc)})
	if err != nil {
		return fmt.Errorf("register on %s: %w", b.name, err)
	}
	if !resp.OK {
		return fmt.Errorf("register on %s: %s", b.name, resp.Error)
	}
	if err := c.awaitSummary(deadline, 1); err != nil {
		return err
	}

	// Resolve the tablet's requirement from C: the only VideoServer that
	// can serve it lives in B's directory, across the backbone.
	req, err := os.ReadFile("internal/profile/testdata/tablet-request.xml")
	if err != nil {
		return err
	}
	resp, err = c.do(sdpproto.Request{Op: "query", Doc: string(req)})
	if err != nil {
		return fmt.Errorf("query on %s: %w", c.name, err)
	}
	if !resp.OK {
		return fmt.Errorf("query on %s: %s", c.name, resp.Error)
	}
	if resp.Partial {
		return fmt.Errorf("query on %s came back partial with all daemons alive", c.name)
	}
	found := false
	for _, h := range resp.Hits {
		if h.Service == "HomeMediaCenter" {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("query on %s: HomeMediaCenter not among %d hit(s)", c.name, len(resp.Hits))
	}

	if err := checkTracedQuery(b, c, string(req)); err != nil {
		return err
	}
	for _, d := range []*daemon{a, b, c} {
		if err := d.awaitHealthy(deadline); err != nil {
			return err
		}
	}
	if err := checkTransportCounters("http://" + a.httpAddr + "/metrics"); err != nil {
		return err
	}

	// Tear the open federation down before booting the admission one so
	// six daemons never run at once.
	a.stop()
	b.stop()
	c.stop()
	return checkAdmission(bin)
}

// admissionSecret is the shared HMAC secret every admission daemon and
// the smoke's client-side token minting agree on.
const admissionSecret = "fedsmoke-shared-admission-secret"

// checkAdmission boots a second three-daemon federation with tenant
// admission enforced end-to-end and proves the gatekeeper holds at the
// backbone scale: unauthorized publishes bounce with typed codes on
// every daemon and never reach any peer's Bloom summary, an authorized
// tenant-qualified publish resolves across the backbone, the tenant's
// token bucket runs dry into rate_limited, and the tenant_* series are
// live on /metrics.
func checkAdmission(bin string) error {
	deadline := time.Now().Add(smokeDeadline)
	flags := []string{
		"-auth-secret", admissionSecret,
		"-anon-reads",
		// A near-zero refill makes the test deterministic: only the burst
		// is ever spendable, however slowly the smoke machine runs.
		"-tenant-rate", "1e-9",
		"-tenant-burst", "8",
	}
	a, err := boot(bin, "auth-a", true, flags)
	if err != nil {
		return err
	}
	defer a.stop()
	b, err := boot(bin, "auth-b", true, flags, a.fedAddr)
	if err != nil {
		return err
	}
	defer b.stop()
	c, err := boot(bin, "auth-c", true, flags, a.fedAddr, b.fedAddr)
	if err != nil {
		return err
	}
	defer c.stop()
	all := []*daemon{a, b, c}
	for _, d := range all {
		// -anon-reads keeps the token-less stats poll serving.
		if err := d.awaitUp(deadline); err != nil {
			return err
		}
	}

	doc, err := os.ReadFile("internal/profile/testdata/media-center.xml")
	if err != nil {
		return err
	}
	qualified, err := qualifyService(doc, "alice")
	if err != nil {
		return err
	}
	malloryTok, err := tenant.MintToken([]byte(admissionSecret), "mallory", tenant.RolePublisher, time.Hour, nil)
	if err != nil {
		return err
	}
	aliceTok, err := tenant.MintToken([]byte(admissionSecret), "alice", tenant.RolePublisher, time.Hour, nil)
	if err != nil {
		return err
	}

	// Unauthorized publishes must bounce on EVERY daemon: a forged token
	// (unauthenticated), a token-less caller — the anonymous read-only
	// tenant under -anon-reads — and a valid tenant writing outside its
	// namespace (both forbidden). None may regenerate a summary.
	for _, d := range all {
		if err := expectDenied(d, sdpproto.Request{Op: "register", Doc: string(doc), Token: "sdp1.forged.token"}, "unauthenticated"); err != nil {
			return err
		}
		if err := expectDenied(d, sdpproto.Request{Op: "register", Doc: string(doc)}, "forbidden"); err != nil {
			return err
		}
		if err := expectDenied(d, sdpproto.Request{Op: "register", Doc: string(qualified), Token: malloryTok}, "forbidden"); err != nil {
			return err
		}
	}

	// The authorized tenant-qualified publish lands on B and resolves
	// from C across the backbone.
	resp, err := b.do(sdpproto.Request{Op: "register", Doc: string(qualified), Token: aliceTok})
	if err != nil {
		return fmt.Errorf("authorized register on %s: %w", b.name, err)
	}
	if !resp.OK {
		return fmt.Errorf("authorized register on %s denied: %s (%s)", b.name, resp.Error, resp.Code)
	}
	if err := c.awaitSummary(deadline, 1); err != nil {
		return err
	}
	req, err := os.ReadFile("internal/profile/testdata/tablet-request.xml")
	if err != nil {
		return err
	}
	resp, err = c.do(sdpproto.Request{Op: "query", Doc: string(req)})
	if err != nil {
		return fmt.Errorf("anonymous query on %s: %w", c.name, err)
	}
	if !resp.OK {
		return fmt.Errorf("anonymous query on %s: %s (%s)", c.name, resp.Error, resp.Code)
	}
	found := false
	for _, h := range resp.Hits {
		if h.Service == "alice/HomeMediaCenter" {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("query on %s: alice/HomeMediaCenter not among %d hit(s)", c.name, len(resp.Hits))
	}

	// No denied publish may have leaked into a directory: B is the only
	// daemon holding an advertisement, so every summary any daemon holds
	// for A or C must still be empty.
	for _, d := range all {
		resp, err := d.do(sdpproto.Request{Op: "peers"})
		if err != nil {
			return fmt.Errorf("peers on %s: %w", d.name, err)
		}
		if !resp.OK {
			return fmt.Errorf("peers on %s: %s", d.name, resp.Error)
		}
		for _, p := range resp.Peers {
			if string(p.Addr) != b.fedAddr && p.HasSummary && p.Entries != 0 {
				return fmt.Errorf("daemon %s sees %d summary entries from %s; denied publishes leaked into a Bloom summary",
					d.name, p.Entries, p.Addr)
			}
		}
	}

	// Drive alice's token bucket dry on B: with a 1e-9 refill only the
	// burst of 8 is spendable, one of which the register above consumed.
	limited := false
	for i := 0; i < 12; i++ {
		resp, err := b.do(sdpproto.Request{Op: "register", Doc: string(qualified), Token: aliceTok})
		if err != nil {
			return fmt.Errorf("burst register %d on %s: %w", i, b.name, err)
		}
		if !resp.OK {
			if resp.Code != "rate_limited" {
				return fmt.Errorf("burst register %d on %s: code %q, want rate_limited", i, b.name, resp.Code)
			}
			limited = true
			break
		}
	}
	if !limited {
		return fmt.Errorf("alice was never rate limited on %s after exhausting the burst", b.name)
	}
	return checkTenantCounters("http://" + b.httpAddr + "/metrics")
}

// expectDenied sends a mutating request that must bounce with the given
// typed admission code.
func expectDenied(d *daemon, req sdpproto.Request, wantCode string) error {
	resp, err := d.do(req)
	if err != nil {
		return fmt.Errorf("denied-publish probe on %s: %w", d.name, err)
	}
	if resp.OK {
		return fmt.Errorf("daemon %s admitted a publish that should be %s", d.name, wantCode)
	}
	if resp.Code != wantCode {
		return fmt.Errorf("daemon %s denied with code %q, want %q", d.name, resp.Code, wantCode)
	}
	return nil
}

// qualifyService rewrites an advertisement under a tenant namespace the
// same way sdpctl publish does.
func qualifyService(doc []byte, tn string) ([]byte, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	svc.Name = tenant.Qualify(tn, svc.Name)
	return profile.Marshal(svc)
}

// checkTenantCounters scrapes /metrics on the daemon that enforced the
// admission decisions and requires the tenant series to be live: the
// throttle counter nonzero and alice's labeled live-services gauge at 1.
func checkTenantCounters(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(body)
	rateLimited := regexp.MustCompile(`(?m)^tenant_rate_limited_total ([0-9.eE+]+)$`).FindStringSubmatch(text)
	if rateLimited == nil {
		return fmt.Errorf("tenant_rate_limited_total missing from /metrics")
	}
	if v, err := strconv.ParseFloat(rateLimited[1], 64); err != nil || v <= 0 {
		return fmt.Errorf("tenant_rate_limited_total is %q; expected nonzero after the burst test", rateLimited[1])
	}
	if !regexp.MustCompile(`(?m)^tenant_live_services\{tenant="alice"\} 1$`).MatchString(text) {
		return fmt.Errorf(`tenant_live_services{tenant="alice"} 1 missing from /metrics`)
	}
	return nil
}

// checkTracedQuery resolves the same request from C with tracing on: the
// inline spans must name the cross-backbone hop into B's directory, the
// origin daemon must serve the trace back on GET /traces/{id}, and a
// trace minted by B's process must not share C's entropy word (the
// collision-proofing the random high word buys).
func checkTracedQuery(b, c *daemon, req string) error {
	resp, err := c.do(sdpproto.Request{Op: "query", Doc: req, Trace: true})
	if err != nil {
		return fmt.Errorf("traced query on %s: %w", c.name, err)
	}
	if !resp.OK {
		return fmt.Errorf("traced query on %s: %s", c.name, resp.Error)
	}
	if resp.TraceID == 0 || len(resp.Spans) == 0 {
		return fmt.Errorf("traced query on %s returned no trace (id=%d, %d spans)", c.name, resp.TraceID, len(resp.Spans))
	}
	nodes := map[string]bool{}
	for _, s := range resp.Spans {
		nodes[s.Node] = true
	}
	if !nodes[c.fedAddr] || !nodes[b.fedAddr] {
		return fmt.Errorf("trace spans cover %v; want both the origin %s and the answering directory %s",
			nodes, c.fedAddr, b.fedAddr)
	}

	var rec struct {
		ID    uint64 `json:"id"`
		Spans []struct {
			Node string `json:"node"`
		} `json:"spans"`
	}
	url := fmt.Sprintf("http://%s/traces/%d", c.httpAddr, resp.TraceID)
	hresp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, hresp.StatusCode)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&rec); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if rec.ID != resp.TraceID || len(rec.Spans) != len(resp.Spans) {
		return fmt.Errorf("retained trace mismatch: id=%d spans=%d, query returned id=%d spans=%d",
			rec.ID, len(rec.Spans), resp.TraceID, len(resp.Spans))
	}

	bresp, err := b.do(sdpproto.Request{Op: "query", Doc: req, Trace: true})
	if err != nil {
		return fmt.Errorf("traced query on %s: %w", b.name, err)
	}
	if !bresp.OK || bresp.TraceID == 0 {
		return fmt.Errorf("traced query on %s returned no trace ID", b.name)
	}
	if bresp.TraceID>>32 == resp.TraceID>>32 {
		return fmt.Errorf("daemons %s and %s share trace entropy word %#x; cross-process IDs would collide",
			b.name, c.name, resp.TraceID>>32)
	}
	return nil
}

// boot starts one daemon; withHTTP additionally exposes the gateway for
// the metrics assertion, and extra appends daemon flags (the admission
// federation passes -auth-secret and rate-limit knobs through it).
func boot(bin, name string, withHTTP bool, extra []string, peers ...string) (*daemon, error) {
	d := &daemon{name: name}
	var err error
	if d.clientAddr, err = freePort(); err != nil {
		return nil, err
	}
	if d.fedAddr, err = freePort(); err != nil {
		return nil, err
	}
	args := []string{"-listen", d.clientAddr, "-federate", d.fedAddr}
	if withHTTP {
		if d.httpAddr, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-http", d.httpAddr)
	}
	for _, o := range ontologies {
		args = append(args, "-ontology", o)
	}
	args = append(args, extra...)
	for _, p := range peers {
		args = append(args, "-peer", p)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, os.Stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sdpd %s: %w", name, err)
	}
	return d, nil
}

func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// awaitUp polls the client port until the daemon answers a stats op.
func (d *daemon) awaitUp(deadline time.Time) error {
	for {
		if resp, err := d.do(sdpproto.Request{Op: "stats"}); err == nil && resp.OK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s never answered on %s", d.name, d.clientAddr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// awaitHealthy polls GET /healthz until the daemon reports 200: every
// component probe (store, gateway, backbone transport) green.
func (d *daemon) awaitHealthy(deadline time.Time) error {
	url := "http://" + d.httpAddr + "/healthz"
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon %s never served %s: %v", d.name, url, err)
			}
			return fmt.Errorf("daemon %s still unhealthy at the deadline (status %d)", d.name, resp.StatusCode)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// awaitSummary polls the peers op until some backbone peer advertises at
// least want entries, i.e. a remote directory's summary has arrived.
func (d *daemon) awaitSummary(deadline time.Time, want int) error {
	for {
		resp, err := d.do(sdpproto.Request{Op: "peers"})
		if err == nil && resp.OK {
			for _, p := range resp.Peers {
				if p.HasSummary && p.Entries >= want {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s never saw a peer summary with >=%d entries", d.name, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// do sends one request to the daemon's client port.
func (d *daemon) do(req sdpproto.Request) (*sdpproto.Response, error) {
	return sdpproto.Send(d.clientAddr, 2*time.Second, req)
}

var counterLine = regexp.MustCompile(`^(transport_bytes_(?:sent|received)_total) ([0-9.eE+]+)$`)

// checkTransportCounters scrapes /metrics and requires both transport
// byte counters to be present and nonzero.
func checkTransportCounters(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	seen := map[string]float64{}
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(body), -1) {
		if m := counterLine.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return fmt.Errorf("unparseable sample %q: %w", line, err)
			}
			seen[m[1]] = v
		}
	}
	for _, name := range []string{"transport_bytes_sent_total", "transport_bytes_received_total"} {
		v, ok := seen[name]
		if !ok {
			return fmt.Errorf("%s missing from /metrics", name)
		}
		if v <= 0 {
			return fmt.Errorf("%s is %v; expected nonzero backbone traffic", name, v)
		}
	}
	return nil
}

// freePort reserves a loopback port by binding and releasing it; the
// daemon rebinds the same address (UDP and TCP port spaces are disjoint,
// but loopback reuse races are vanishingly rare for a smoke).
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}
