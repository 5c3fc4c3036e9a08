package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running sdpd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // client-facing UDP address
	fedAddr string // backbone address ("" when standalone)
	done    chan struct{}
}

// cluster is the set of daemons a workload runs against; queries and
// mutations go to daemons[0].
type cluster struct {
	daemons []*daemon
}

// freePort reserves a loopback UDP port long enough to learn its number.
func freePort() (string, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", err
	}
	defer c.Close()
	return c.LocalAddr().String(), nil
}

func startDaemon(bin, dir string, idx int, fedAddr string, args []string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, fedAddr: fedAddr, done: make(chan struct{})}
	full := append([]string{"-listen", addr, "-log-level", "warn"}, args...)
	if fedAddr != "" {
		full = append(full, "-federate", fedAddr)
	}
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("sdpd%d.log", idx)))
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, full...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // exit status is irrelevant: stop kills it
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// stop ends the process and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (c *cluster) stop() {
	for _, d := range c.daemons {
		d.stop()
	}
}

// conn is a client's UDP socket to one daemon.
type conn struct {
	addr string
	c    *net.UDPConn
	buf  []byte
}

func dial(addr string) (*conn, error) {
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, buf: make([]byte, 64*1024)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// roundTrip sends one datagram and returns the reply bytes (valid until
// the next call). After a timeout the socket is replaced, so a late reply
// can never be read as the answer to a later request.
func (c *conn) roundTrip(dgram []byte, timeout time.Duration) ([]byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := c.c.Write(dgram); err != nil {
		return nil, err
	}
	n, err := c.c.Read(c.buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.close()
			if nc, derr := dial(c.addr); derr == nil {
				*c = *nc
			}
		}
		return nil, err
	}
	return c.buf[:n], nil
}

// reply mirrors the fields of sdpd's datagram reply the benchmark reads.
type reply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error"`
	Hits  []struct {
		Service    string
		Capability string
		Distance   int
	} `json:"hits"`
	Partial bool `json:"partial"`
	Peers   []struct {
		Entries int `json:"entries"`
	} `json:"peers"`
}

// call sends a request and fails on anything but an ok reply.
func (c *conn) call(dgram []byte) (*reply, error) {
	raw, err := c.roundTrip(dgram, 5*time.Second)
	if err != nil {
		return nil, err
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("malformed reply: %w", err)
	}
	if !r.OK {
		return nil, fmt.Errorf("daemon error: %s", r.Error)
	}
	return &r, nil
}

// waitReady polls a fresh daemon until it answers.
func waitReady(d *daemon) error {
	c, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	stats := datagram(request{Op: "stats"})
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("sdpd at %s exited during start-up", d.addr)
		default:
		}
		if _, err := c.roundTrip(stats, 20*time.Millisecond); err == nil {
			return nil
		}
		// Not listening yet: the refusal is immediate, so pause rather
		// than spin on the CPUs the daemon is starting on.
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("sdpd at %s not ready after 20s", d.addr)
}

// setUp starts the workload's daemons and preloads ontologies and
// services, returning the cluster and the seconds it took.
func setUp(p *plan, bin, dir string) (*cluster, float64, error) {
	sp := specs[p.Workload]
	start := time.Now()
	cl := &cluster{}
	fail := func(err error) (*cluster, float64, error) {
		cl.stop()
		return nil, 0, err
	}
	n := 1
	if sp.federated {
		n = 3
	}
	for i := 0; i < n; i++ {
		var args []string
		if sp.durable {
			state := filepath.Join(dir, "state.bolt")
			if err := os.Remove(state); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fail(err)
			}
			args = append(args, "-auth-secret", hmacSecret, "-store", "bolt", "-state", state)
		}
		fed := ""
		if sp.federated {
			var err error
			if fed, err = freePort(); err != nil {
				return fail(err)
			}
			if i > 0 {
				args = append(args, "-peer", cl.daemons[0].fedAddr)
			}
		}
		d, err := startDaemon(bin, dir, i, fed, args)
		if err != nil {
			return fail(err)
		}
		cl.daemons = append(cl.daemons, d)
	}
	conns := make([]*conn, n)
	for i, d := range cl.daemons {
		if err := waitReady(d); err != nil {
			return fail(err)
		}
		c, err := dial(d.addr)
		if err != nil {
			return fail(err)
		}
		defer c.close()
		conns[i] = c
		for _, doc := range p.Ontologies {
			if _, err := c.call(datagram(request{Op: "add-ontology", Doc: string(doc), Token: p.AdminToken})); err != nil {
				return fail(fmt.Errorf("preload ontology: %w", err))
			}
		}
	}
	for i, doc := range p.ServiceDocs {
		dg := datagram(request{Op: "register", Doc: string(doc), Token: p.Tokens[p.Owner[i]]})
		if _, err := conns[p.Holder[i]].call(dg); err != nil {
			return fail(fmt.Errorf("preload %s: %w", p.Services[i], err))
		}
	}
	if sp.federated {
		// The origin can answer completely only once it holds both
		// holders' final Bloom summaries.
		peersReq := datagram(request{Op: "peers"})
		deadline := time.Now().Add(30 * time.Second)
		for {
			r, err := conns[0].call(peersReq)
			if err != nil {
				return fail(err)
			}
			full := 0
			for _, pe := range r.Peers {
				if pe.Entries == len(p.Services)/2 {
					full++
				}
			}
			if full == 2 {
				break
			}
			if time.Now().After(deadline) {
				return fail(errors.New("origin never received both holders' summaries"))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return cl, time.Since(start).Seconds(), nil
}

// cpuTicks is a process's user+system time in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+2:]))
	// utime and stime are fields 14 and 15 of stat, 12 and 13 here.
	u, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	s, err := strconv.ParseInt(f[12], 10, 64)
	return u + s, err
}

// hostSteal reads the machine's cumulative steal and total CPU time, in
// clock ticks, from the first line of /proc/stat.
func hostSteal() ([2]int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]int64{}, errors.New("unexpected /proc/stat")
	}
	var steal, total int64
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return [2]int64{}, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return [2]int64{steal, total}, nil
}

// rssKB is a process's resident set size.
func rssKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmRSS")
}

// sum adds a /proc reading over the cluster's daemons.
func (c *cluster) sum(read func(pid int) (int64, error)) (int64, error) {
	var sum int64
	for _, d := range c.daemons {
		v, err := read(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// absences records when each service was withdrawn, so a query that
// overlapped the withdrawal may legitimately miss it.
type absences struct {
	mu    sync.Mutex
	start map[string]time.Time
	// last holds each service's recent absence intervals, newest last.
	last map[string][][2]time.Time
}

func newAbsences() *absences {
	return &absences{start: map[string]time.Time{}, last: map[string][][2]time.Time{}}
}

func (a *absences) begin(svc string, t time.Time) {
	a.mu.Lock()
	a.start[svc] = t
	a.mu.Unlock()
}

func (a *absences) end(svc string, t time.Time) {
	a.mu.Lock()
	iv := append(a.last[svc], [2]time.Time{a.start[svc], t})
	if len(iv) > 4 {
		iv = iv[1:]
	}
	a.last[svc] = iv
	delete(a.start, svc)
	a.mu.Unlock()
}

// overlapped reports whether svc was absent at any time in [from, to].
func (a *absences) overlapped(svc string, from, to time.Time) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.start[svc]; ok && !s.After(to) {
		return true
	}
	for _, iv := range a.last[svc] {
		if !iv[0].After(to) && !iv[1].Before(from) {
			return true
		}
	}
	return false
}

// sample is one completed op of the measured window.
type sample struct {
	at      time.Duration // completion, since the window opened
	latency time.Duration
	kind    opKind
}

// loadResult is what the closed loop observed.
type loadResult struct {
	samples   []sample
	attempted int // every op sent, warm-up included
	failed    int
	firstErr  string
	// Per one-second window of the measured span: the daemons' CPU in
	// clock ticks, and the share of the machine's CPU time the
	// hypervisor gave to other guests (steal).
	winCPU   []int64
	winSteal []float64
	rssMB    float64 // daemons' resident memory when the span closed
}

// runLoad drives the closed loop against the cluster's first daemon: each
// client walks its own plan cyclically with one request in flight, for
// warm then measure. Every reply is checked; only ops completing inside
// the measured window are sampled.
func runLoad(p *plan, cl *cluster, warm, measure time.Duration) (*loadResult, error) {
	abs := newAbsences()
	open := time.Now().Add(warm)
	end := open.Add(measure)
	results := make([]loadResult, clients)
	conns := make([]*conn, clients)
	for c := range conns {
		cn, err := dial(cl.daemons[0].addr)
		if err != nil {
			return nil, err
		}
		defer cn.close()
		conns[c] = cn
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.samples = make([]sample, 0, 1<<16)
			steps := p.Clients[c]
			for i := 0; ; i++ {
				st := &steps[i%len(steps)]
				began := time.Now()
				if began.After(end) {
					return
				}
				if st.Kind == opWithdraw {
					abs.begin(p.Services[st.Service], began)
				}
				raw, err := conns[c].roundTrip(st.Datagram, 2*time.Second)
				done := time.Now()
				if err == nil {
					err = checkReply(st, raw, abs, began, done)
				}
				if st.Kind == opRestore {
					abs.end(p.Services[st.Service], done)
				}
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == "" {
						res.firstErr = fmt.Sprintf("op kind %d on service %d: %v", st.Kind, st.Service, err)
					}
					continue
				}
				if done.After(open) && !done.After(end) {
					res.samples = append(res.samples, sample{at: done.Sub(open), latency: done.Sub(began), kind: st.Kind})
				}
			}
		}(c)
	}
	out := &loadResult{}
	var errs []error
	var cpu0 int64
	var host0 [2]int64
	for t := open; !t.After(end); t = t.Add(time.Second) {
		time.Sleep(time.Until(t))
		cpu, err := cl.sum(cpuTicks)
		host, herr := hostSteal()
		errs = append(errs, err, herr)
		if t.After(open) {
			out.winCPU = append(out.winCPU, cpu-cpu0)
			out.winSteal = append(out.winSteal, ratio(float64(host[0]-host0[0]), float64(host[1]-host0[1])))
		}
		cpu0, host0 = cpu, host
	}
	rss, err := cl.sum(rssKB)
	wg.Wait()
	if err := errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}
	out.rssMB = float64(rss) / 1024
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == "" {
			out.firstErr = r.firstErr
		}
	}
	return out, nil
}

// checkReply decodes a reply and checks it against the plan.
func checkReply(st *op, raw []byte, abs *absences, began, done time.Time) error {
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("malformed reply: %w", err)
	}
	if !r.OK {
		return fmt.Errorf("daemon error: %s", r.Error)
	}
	if st.Kind != opQuery {
		return nil
	}
	if r.Partial {
		return errors.New("partial answer")
	}
	got := make([]hitKey, len(r.Hits))
	for i, h := range r.Hits {
		got[i] = hitKey{h.Service, h.Capability, h.Distance}
	}
	if !verdict(st.Expect, got, func(svc string) bool { return abs.overlapped(svc, began, done) }) {
		return errors.New("answer differs from the oracle")
	}
	return nil
}
