package main

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/gen"
	"sariadne/internal/sdpproto"
	"sariadne/internal/telemetry"
)

// fakeDaemon is a loopback UDP stand-in for sdpd that records every op it
// receives with the sender's port and answers each one ok. Queries get one
// hit; peers replies come from the peers hook.
type fakeDaemon struct {
	conn  *net.UDPConn
	peers func() []sdpproto.PeerEntry

	mu  sync.Mutex
	ops []fakeOp // guarded by mu
}

type fakeOp struct {
	op   string
	port int
}

func startFakeDaemon(t *testing.T) *fakeDaemon {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDaemon{conn: conn}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64*1024)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed by the cleanup below
			}
			var req sdpproto.Request
			if err := json.Unmarshal(buf[:n], &req); err != nil {
				t.Errorf("fake daemon got a malformed request: %v", err)
				continue
			}
			d.mu.Lock()
			d.ops = append(d.ops, fakeOp{op: req.Op, port: from.Port})
			d.mu.Unlock()
			resp := sdpproto.Response{OK: true}
			switch req.Op {
			case "query":
				resp.Hits = []discovery.Hit{{Service: "S", Capability: "C"}}
			case "peers":
				if d.peers != nil {
					resp.Peers = d.peers()
				}
			}
			data, err := json.Marshal(resp)
			if err != nil {
				t.Error(err)
				continue
			}
			if _, err := conn.WriteToUDP(data, from); err != nil {
				t.Errorf("fake daemon reply: %v", err)
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return d
}

func (d *fakeDaemon) addr() string { return d.conn.LocalAddr().String() }

func (d *fakeDaemon) recorded() []fakeOp {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]fakeOp(nil), d.ops...)
}

func (d *fakeDaemon) count(op string) int {
	n := 0
	for _, o := range d.recorded() {
		if o.op == op {
			n++
		}
	}
	return n
}

// TestLivePreloadBeforeQueries: against a live target, every workload
// ontology and service reaches the daemon before the first query, and a
// single worker's ops all leave from one socket.
func TestLivePreloadBeforeQueries(t *testing.T) {
	d := startFakeDaemon(t)
	cfg := smallRun("flash-crowd")
	cfg.target = d.addr()
	cfg.concurrency = 1
	telemetry.Default().Reset()
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results.Failed != 0 || rep.Results.Empty != 0 {
		t.Fatalf("run against the fake daemon: %+v", rep.Results)
	}
	ops := d.recorded()
	ontologies, services, queries := 0, 0, 0
	for i, o := range ops {
		switch o.op {
		case "add-ontology":
			ontologies++
		case "register":
			services++
		case "query":
			if queries == 0 && (ontologies != cfg.ontologies || services != cfg.services) {
				t.Fatalf("first query (op %d) arrived after %d/%d ontologies and %d/%d services",
					i, ontologies, cfg.ontologies, services, cfg.services)
			}
			queries++
		}
		if o.port != ops[0].port {
			t.Fatalf("op %d (%s) left from port %d, op 0 from %d: the worker did not reuse its socket",
				i, o.op, o.port, ops[0].port)
		}
	}
	if queries != cfg.ops {
		t.Fatalf("fake daemon saw %d queries, want %d", queries, cfg.ops)
	}
}

// TestLivePreloadWaitsForFederation: with several targets, services are
// spread i%N and the run starts only once every target's peer summaries
// cover the services preloaded on the others.
func TestLivePreloadWaitsForFederation(t *testing.T) {
	a, b := startFakeDaemon(t), startFakeDaemon(t)
	// Each fake reports the other's register count as its one peer's
	// summary, but only from the third peers poll on, so the load must
	// keep polling.
	summary := func(self, other *fakeDaemon) func() []sdpproto.PeerEntry {
		return func() []sdpproto.PeerEntry {
			if self.count("peers") < 3 {
				return nil
			}
			return []sdpproto.PeerEntry{{PeerInfo: discovery.PeerInfo{HasSummary: true, Entries: other.count("register")}}}
		}
	}
	a.peers, b.peers = summary(a, b), summary(b, a)
	lc := newLiveCluster([]string{a.addr(), b.addr()}, time.Second, "")
	defer lc.close()
	cfg := smallRun("flash-crowd")
	w := gen.MustNewWorkload(gen.WorkloadConfig{Ontologies: cfg.ontologies, Services: cfg.services, Seed: cfg.seed})
	if err := lc.preload(w); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*fakeDaemon{a, b} {
		if got := d.count("add-ontology"); got != cfg.ontologies {
			t.Fatalf("%s got %d ontologies, want %d", d.addr(), got, cfg.ontologies)
		}
		if got := d.count("register"); got != cfg.services/2 {
			t.Fatalf("%s got %d services, want %d", d.addr(), got, cfg.services/2)
		}
		if got := d.count("peers"); got < 3 {
			t.Fatalf("%s polled peers %d times; preload returned before summaries covered the other target", d.addr(), got)
		}
	}
}
