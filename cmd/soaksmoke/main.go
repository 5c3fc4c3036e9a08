// Command soaksmoke is the CI miniature of an overnight soak behind
// `make soak-smoke`: it builds sdpd and sdpctl, boots three daemons
// federated over loopback with 500ms telemetry sampling, per-daemon
// durable journals and a 1s drift watchdog, drives real traffic across
// the backbone, and asserts the whole soak-horizon pipeline in under
// ninety seconds:
//
//   - healthy federation: every watchdog sweeps repeatedly and GET
//     /alerts stays silent on all three daemons (no active, no fired),
//     and `sdpctl alerts` exits 0;
//   - durable history: one daemon restarts onto the same journal
//     directory and GET /timeseries still serves the pre-restart
//     samples (source "journal");
//   - injected drift: the restarted daemon comes back with
//     -chaos-leak-goroutines, and goroutine_growth must fire on GET
//     /alerts and flip `sdpctl alerts` to exit 1 while the two healthy
//     daemons stay silent.
//
// A 90-second run sees boot transients that hours of real soak average
// out, so the smoke passes detector thresholds sitting well above any
// boot wobble but far below the injected leak — silence stays
// meaningful and the drill still fires.
//
// Usage:
//
//	go run ./cmd/soaksmoke
package main

import (
	"bytes"
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

	"sariadne/internal/sdpproto"
)

const smokeDeadline = 85 * time.Second

// leakPerSec is the injected goroutine leak: 150/s = 9000/min, fifteen
// times the smoke's growth threshold, so detection is never marginal.
const leakPerSec = 150

var ontologies = []string{
	"internal/profile/testdata/media-ontology.xml",
	"internal/profile/testdata/servers-ontology.xml",
}

// soakFlags tune every daemon for a compressed soak: fast sampling, a
// short watch window so the leak dominates it quickly, and thresholds
// above boot transients (a daemon gains a dozen goroutines and doubles
// a tiny heap while starting up; neither is drift).
var soakFlags = []string{
	"-sample-every", "500ms",
	"-watch-every", "1s",
	"-watch-window", "20s",
	"-watch-goroutine-growth", "600", // 10/s; the injected leak is 150/s
	"-watch-heap-growth-bytes", "268435456", // 256 MiB/min
	"-watch-flap-per-min", "600", // boot/restart elections are not flap
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "soaksmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("soaksmoke: ok")
}

// alertsView mirrors sdpd's GET /alerts reply.
type alertsView struct {
	Watching bool        `json:"watching"`
	Active   []alertLine `json:"active"`
	Fired    []alertLine `json:"fired"`
}

type alertLine struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Evidence string `json:"evidence"`
}

// timeseriesView is the slice of GET /timeseries the smoke reads.
type timeseriesView struct {
	Samples int    `json:"samples"`
	Source  string `json:"source"`
}

// daemon is one booted sdpd process; args are kept so a restart rebinds
// the same addresses and journal directory.
type daemon struct {
	name       string
	clientAddr string
	fedAddr    string
	httpAddr   string
	bin        string
	args       []string
	cmd        *exec.Cmd
}

func run() error {
	tmp, err := os.MkdirTemp("", "soaksmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	sdpd := filepath.Join(tmp, "sdpd")
	sdpctl := filepath.Join(tmp, "sdpctl")
	for bin, pkg := range map[string]string{sdpd: "./cmd/sdpd", sdpctl: "./cmd/sdpctl"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", pkg, err)
		}
	}

	deadline := time.Now().Add(smokeDeadline)

	// Three daemons on loopback, each with its own durable journal.
	a, err := boot(sdpd, tmp, "a")
	if err != nil {
		return err
	}
	defer a.stop()
	b, err := boot(sdpd, tmp, "b", a.fedAddr)
	if err != nil {
		return err
	}
	defer b.stop()
	c, err := boot(sdpd, tmp, "c", a.fedAddr, b.fedAddr)
	if err != nil {
		return err
	}
	defer c.stop()
	all := []*daemon{a, b, c}
	for _, d := range all {
		if err := d.awaitUp(deadline); err != nil {
			return err
		}
	}

	// Real traffic so the watchdog sweeps a live system, not an idle
	// one: register on B, resolve from C across the backbone.
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
	if err := c.awaitSummary(deadline); err != nil {
		return err
	}
	req, err := os.ReadFile("internal/profile/testdata/tablet-request.xml")
	if err != nil {
		return err
	}
	resp, err = c.do(sdpproto.Request{Op: "query", Doc: string(req)})
	if err != nil {
		return fmt.Errorf("query on %s: %w", c.name, err)
	}
	if !resp.OK || len(resp.Hits) == 0 {
		return fmt.Errorf("query on %s returned no hits (%s)", c.name, resp.Error)
	}

	// Healthy phase: every watchdog must have swept several times and
	// found nothing — fault-free soak minutes stay silent.
	for _, d := range all {
		if err := d.awaitSweeps(deadline, 5); err != nil {
			return err
		}
		if err := d.expectSilent(); err != nil {
			return err
		}
	}
	if err := runSdpctlAlerts(sdpctl, a, 0, "watchdog running"); err != nil {
		return err
	}

	// Durable history: remember how much B has journaled, kill it, and
	// reboot it on the same addresses and journal directory — with the
	// goroutine leak injected. The pre-restart samples must still serve.
	pre, err := b.timeseries()
	if err != nil {
		return err
	}
	if pre.Source != "journal" || pre.Samples < 4 {
		return fmt.Errorf("daemon %s journaled %d samples from %q before restart; want >=4 from the journal",
			b.name, pre.Samples, pre.Source)
	}
	b.stop()
	if err := b.start("-chaos-leak-goroutines", strconv.Itoa(leakPerSec)); err != nil {
		return err
	}
	if err := b.awaitUp(deadline); err != nil {
		return err
	}
	post, err := b.timeseries()
	if err != nil {
		return err
	}
	if post.Source != "journal" || post.Samples < pre.Samples {
		return fmt.Errorf("daemon %s serves %d samples from %q after restart; want >=%d from the journal (history lost)",
			b.name, post.Samples, post.Source, pre.Samples)
	}

	// Injected drift: the leak must fire goroutine_growth on B while the
	// healthy daemons stay silent.
	if err := b.awaitAlert(deadline, "goroutine_growth"); err != nil {
		return err
	}
	if err := runSdpctlAlerts(sdpctl, b, 1, "goroutine_growth"); err != nil {
		return err
	}
	for _, d := range []*daemon{a, c} {
		if err := d.expectSilent(); err != nil {
			return fmt.Errorf("healthy daemon alarmed by %s's leak: %w", b.name, err)
		}
	}
	return nil
}

// boot assembles one daemon's full flag set and starts it.
func boot(bin, tmp, name string, peers ...string) (*daemon, error) {
	d := &daemon{name: name, bin: bin}
	var err error
	if d.clientAddr, err = freePort(); err != nil {
		return nil, err
	}
	if d.fedAddr, err = freePort(); err != nil {
		return nil, err
	}
	if d.httpAddr, err = freePort(); err != nil {
		return nil, err
	}
	d.args = []string{
		"-listen", d.clientAddr,
		"-federate", d.fedAddr,
		"-http", d.httpAddr,
		"-telemetry-journal", filepath.Join(tmp, "tj-"+name),
	}
	d.args = append(d.args, soakFlags...)
	for _, o := range ontologies {
		d.args = append(d.args, "-ontology", o)
	}
	for _, p := range peers {
		d.args = append(d.args, "-peer", p)
	}
	if err := d.start(); err != nil {
		return nil, err
	}
	return d, nil
}

// start launches (or relaunches) the daemon; extra appends one-off flags
// such as the restart's fault injection.
func (d *daemon) start(extra ...string) error {
	d.cmd = exec.Command(d.bin, append(append([]string(nil), d.args...), extra...)...)
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, os.Stderr
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("start sdpd %s: %w", d.name, err)
	}
	return nil
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

// awaitSummary polls the peers op until some backbone peer advertises a
// summary with entries.
func (d *daemon) awaitSummary(deadline time.Time) error {
	for {
		resp, err := d.do(sdpproto.Request{Op: "peers"})
		if err == nil && resp.OK {
			for _, p := range resp.Peers {
				if p.HasSummary && p.Entries > 0 {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s never saw a peer summary", d.name)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

var sweepLine = regexp.MustCompile(`(?m)^alert_watchdog_sweeps_total ([0-9.eE+]+)$`)

// awaitSweeps polls /metrics until the watchdog has swept at least n
// times: silence only counts after the detectors actually looked.
func (d *daemon) awaitSweeps(deadline time.Time, n float64) error {
	for {
		body, err := d.get("/metrics")
		if err == nil {
			if m := sweepLine.FindStringSubmatch(string(body)); m != nil {
				if v, err := strconv.ParseFloat(m[1], 64); err == nil && v >= n {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s never reached %v watchdog sweeps", d.name, n)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// alerts fetches and decodes GET /alerts.
func (d *daemon) alerts() (alertsView, error) {
	var v alertsView
	body, err := d.get("/alerts")
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("daemon %s: malformed /alerts: %w", d.name, err)
	}
	return v, nil
}

// expectSilent fails unless the daemon is watching and has never fired.
func (d *daemon) expectSilent() error {
	v, err := d.alerts()
	if err != nil {
		return err
	}
	if !v.Watching {
		return fmt.Errorf("daemon %s reports no watchdog", d.name)
	}
	if len(v.Active) > 0 || len(v.Fired) > 0 {
		return fmt.Errorf("daemon %s is not silent: %d active, %d fired (first: %+v)",
			d.name, len(v.Active), len(v.Fired), firstAlert(v))
	}
	return nil
}

// awaitAlert polls /alerts until code shows up active or fired.
func (d *daemon) awaitAlert(deadline time.Time, code string) error {
	for {
		v, err := d.alerts()
		if err == nil {
			for _, a := range append(v.Active, v.Fired...) {
				if a.Code == code {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s never fired %s (last view: %d active, %d fired)",
				d.name, code, len(v.Active), len(v.Fired))
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func firstAlert(v alertsView) alertLine {
	if len(v.Active) > 0 {
		return v.Active[0]
	}
	if len(v.Fired) > 0 {
		return v.Fired[0]
	}
	return alertLine{}
}

// timeseries fetches the sample count and source behind GET /timeseries.
func (d *daemon) timeseries() (timeseriesView, error) {
	var v timeseriesView
	body, err := d.get("/timeseries")
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("daemon %s: malformed /timeseries: %w", d.name, err)
	}
	return v, nil
}

// get fetches one gateway path, insisting on a 200.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get("http://" + d.httpAddr + path)
	if err != nil {
		return nil, fmt.Errorf("daemon %s: GET %s: %w", d.name, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("daemon %s: GET %s: status %d", d.name, path, resp.StatusCode)
	}
	return body, nil
}

// runSdpctlAlerts runs `sdpctl alerts` against a daemon and checks both
// the exit code (0 silent, 1 alerting — script semantics) and that the
// output mentions want.
func runSdpctlAlerts(bin string, d *daemon, wantExit int, want string) error {
	cmd := exec.Command(bin, "alerts", d.httpAddr)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		return fmt.Errorf("sdpctl alerts %s: %w", d.name, err)
	}
	if exit != wantExit {
		return fmt.Errorf("sdpctl alerts on %s exited %d, want %d; output:\n%s", d.name, exit, wantExit, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte(want)) {
		return fmt.Errorf("sdpctl alerts on %s did not mention %q; output:\n%s", d.name, want, out.String())
	}
	return nil
}

// do sends one request to the daemon's client port.
func (d *daemon) do(req sdpproto.Request) (*sdpproto.Response, error) {
	return sdpproto.Send(d.clientAddr, 2*time.Second, req)
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}
