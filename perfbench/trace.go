package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/election"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
	"sariadne/internal/transport"
)

// The traced run replays a prefix of the workload's op plan in one
// process, through the same public functions sdpd calls, and records a
// span around each call into a layer. Spans live in memory and are
// reduced to per-layer metrics at the end. Layers the program calls
// internally (profile parsing, the DAG walk) are read from the program's
// own telemetry histograms over the same window; Distance calls are
// counted on a shadow directory rather than spanned.

const (
	replayOps    = 600 // ops per pass
	replayPasses = 4   // alternating spans off, on, off, on
)

type span struct {
	name       string
	node       int // daemon index the call ran on
	op         int // op index, -1 during preload
	parent     int // index into spans, -1 for an op's root
	start, end time.Duration
}

// tracer keeps spans in memory. Only the replay goroutine opens spans
// that others nest under; calls seen on node or transport goroutines
// attach to whatever the replay goroutine has open at the time.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	op    int
	spans []span
	open  []int
}

func (t *tracer) begin(name string, node int, nest bool) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, node: node, op: t.op, parent: parent, start: now, end: -1})
	if nest {
		t.open = append(t.open, id)
	}
	return id
}

// setOp names the op that spans begun from now on belong to.
func (t *tracer) setOp(id int) {
	t.mu.Lock()
	t.op = id
	t.mu.Unlock()
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
	t.mu.Unlock()
}

// Counts taken at layer boundaries, always on, indexing counters.
const (
	cParses        = iota // backend calls that parse a document
	cQueryMatchOps        // Directory.MatchOps during backend Query
	cQueryHits
	cRegMatchOps // Directory.MatchOps during backend Register
	cRegCalls
	cFrames // codec encodes, one per frame sent
	cFrameBytes
	cForwards    // forwarded QueryRequests sent
	cForwardHits // forward replies carrying at least one hit
	cAppends
	numCounters
)

type counters struct {
	n [numCounters]atomic.Int64
	// queryNodes is a bitmask of the daemons whose backend ran Query
	// during the current op.
	queryNodes atomic.Int64
}

type countSnap [numCounters]int64

func (c *counters) add(i int, v int64) { c.n[i].Add(v) }

func (c *counters) snap() countSnap {
	var s countSnap
	for i := range s {
		s[i] = c.n[i].Load()
	}
	return s
}

func (a *countSnap) add(b countSnap, sign int64) {
	for i := range a {
		a[i] += sign * b[i]
	}
}

// tracedBackend is the counting discovery.Backend wrapper: every method
// that parses a document is counted and spanned.
type tracedBackend struct {
	*discovery.SemanticBackend
	node int
	tr   *tracer
	c    *counters
}

func (b *tracedBackend) parse(name string, f func()) {
	b.c.add(cParses, 1)
	id := b.tr.begin(name, b.node, false)
	f()
	b.tr.end(id)
}

func (b *tracedBackend) Query(doc []byte) (hits []discovery.Hit, err error) {
	b.c.queryNodes.Or(1 << b.node)
	m0 := b.Directory().MatchOps()
	b.parse("discovery.backend.query", func() { hits, err = b.SemanticBackend.Query(doc) })
	b.c.add(cQueryMatchOps, int64(b.Directory().MatchOps()-m0))
	b.c.add(cQueryHits, int64(len(hits)))
	return hits, err
}

func (b *tracedBackend) Register(doc []byte) (name string, err error) {
	m0 := b.Directory().MatchOps()
	b.parse("discovery.backend.register", func() { name, err = b.SemanticBackend.Register(doc) })
	b.c.add(cRegMatchOps, int64(b.Directory().MatchOps()-m0))
	b.c.add(cRegCalls, 1)
	return name, err
}

func (b *tracedBackend) Deregister(service string) bool {
	id := b.tr.begin("discovery.backend.deregister", b.node, false)
	defer b.tr.end(id)
	return b.SemanticBackend.Deregister(service)
}

func (b *tracedBackend) RequiredNames(doc []byte) (names []string, err error) {
	b.parse("discovery.backend.required_names", func() { names, err = b.SemanticBackend.RequiredNames(doc) })
	return names, err
}

func (b *tracedBackend) Subset(doc []byte, names []string) (out []byte, err error) {
	b.parse("discovery.backend.subset", func() { out, err = b.SemanticBackend.Subset(doc, names) })
	return out, err
}

func (b *tracedBackend) RequestKey(doc []byte) (key string, err error) {
	b.parse("discovery.backend.request_key", func() { key, err = b.SemanticBackend.RequestKey(doc) })
	return key, err
}

func (b *tracedBackend) ServiceName(doc []byte) (name string, err error) {
	b.parse("discovery.backend.service_name", func() { name, err = b.SemanticBackend.ServiceName(doc) })
	return name, err
}

// tracedCodec wraps the discovery wire codec handed to the UDP transport.
type tracedCodec struct {
	tr *tracer
	c  *counters
}

func (k tracedCodec) Encode(payload any) ([]byte, error) {
	id := k.tr.begin("transport.encode", -1, false)
	b, err := discovery.WireCodec{}.Encode(payload)
	k.tr.end(id)
	k.c.add(cFrames, 1)
	k.c.add(cFrameBytes, int64(len(b)))
	switch m := payload.(type) {
	case discovery.QueryRequest:
		if m.Forwarded {
			k.c.add(cForwards, 1)
		}
	case discovery.QueryReply:
		if m.Partial && len(m.Hits) > 0 {
			k.c.add(cForwardHits, 1)
		}
	}
	return b, err
}

func (k tracedCodec) Decode(frame []byte) (any, error) {
	id := k.tr.begin("transport.decode", -1, false)
	defer k.tr.end(id)
	return discovery.WireCodec{}.Decode(frame)
}

// tracedStore wraps the bolt store.
type tracedStore struct {
	store.Store
	tr *tracer
	c  *counters
}

func (s tracedStore) Append(rec store.Record) error {
	s.c.add(cAppends, 1)
	id := s.tr.begin("store.append", 0, false)
	defer s.tr.end(id)
	return s.Store.Append(rec)
}

// sdpdRequest and sdpdResponse mirror sdpd's wire structs, so the
// replay's encoding/json calls see the shapes the daemon decodes and
// encodes.
type sdpdRequest struct {
	Op    string `json:"op"`
	Doc   string `json:"doc,omitempty"`
	Name  string `json:"name,omitempty"`
	Token string `json:"token,omitempty"`
	Trace bool   `json:"trace,omitempty"`
}

type sdpdResponse struct {
	OK          bool             `json:"ok"`
	Error       string           `json:"error,omitempty"`
	Code        string           `json:"code,omitempty"`
	Version     uint64           `json:"version,omitempty"`
	Hits        []discovery.Hit  `json:"hits,omitempty"`
	Partial     bool             `json:"partial,omitempty"`
	Unreachable []transport.Addr `json:"unreachable,omitempty"`
	TraceID     uint64           `json:"trace_id,omitempty"`
}

// daemonState is one in-process daemon: what sdpd's server holds.
type daemonState struct {
	reg      *codes.Registry
	backend  *tracedBackend
	gate     *tenant.Gatekeeper
	store    store.Store // nil without durability
	versions map[string]uint64
	live     map[string]bool
	node     *discovery.Node // nil when standalone
	tr       transport.Transport
}

type replay struct {
	p       *plan
	tr      tracer
	c       counters
	daemons []*daemonState
	// replyBytes sums the encoded replies of the current pass.
	replyBytes int64
}

func newReplay(p *plan, dir string) (*replay, error) {
	sp := specs[p.Workload]
	r := &replay{p: p}
	r.tr.epoch = time.Now()
	n := 1
	if sp.federated {
		n = 3
	}
	for i := 0; i < n; i++ {
		reg := codes.NewRegistry()
		d := &daemonState{
			reg:      reg,
			backend:  &tracedBackend{SemanticBackend: discovery.NewSemanticBackend(reg), node: i, tr: &r.tr, c: &r.c},
			gate:     tenant.NewGatekeeper(tenant.Config{}),
			versions: map[string]uint64{},
			live:     map[string]bool{},
		}
		r.daemons = append(r.daemons, d)
		if sp.durable {
			auth, err := tenant.NewHMAC([]byte(hmacSecret), nil)
			if err != nil {
				return nil, err
			}
			// sdpd's -tenant-burst default.
			d.gate = tenant.NewGatekeeper(tenant.Config{Auth: auth, Burst: 10})
			st, err := boltlike.Open(filepath.Join(dir, "replay.bolt"), store.Options{SyncEvery: 1})
			if err != nil {
				return nil, err
			}
			d.store = tracedStore{Store: st, tr: &r.tr, c: &r.c}
		}
	}
	if sp.federated {
		if err := r.federate(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// federate joins the daemons into a backbone as sdpd's startFederation
// does: UDP on loopback, the origin seeding the holders.
func (r *replay) federate() error {
	var seeds []string
	for i, d := range r.daemons {
		tr, err := transport.NewUDP(transport.UDPConfig{
			Listen: "127.0.0.1:0", Codec: tracedCodec{tr: &r.tr, c: &r.c}, Seeds: seeds,
		})
		if err != nil {
			return err
		}
		if i == 0 {
			seeds = []string{string(tr.ID())}
		}
		d.tr = tr
		d.node = discovery.NewNode(tr, d.backend, discovery.Config{
			SummaryPushEvery: 1,
			Election:         election.Config{ElectionTimeout: 24 * time.Hour},
			TraceSampleEvery: 64, // sdpd's -trace-sample default
		})
		d.node.Start(context.Background())
		d.node.BecomeDirectory()
		d.node.RefreshSummary()
	}
	return nil
}

func (r *replay) close() {
	for _, d := range r.daemons {
		if d.node != nil {
			d.node.Stop()
			_ = d.tr.Close() // teardown; nothing left to lose
		}
		if d.store != nil {
			_ = d.store.Close() // the replay's store is scratch
		}
	}
}

// do runs one datagram through daemon di the way sdpd's process does.
func (r *replay) do(di int, dgram []byte) (sdpdResponse, error) {
	d := r.daemons[di]
	t := &r.tr
	root := t.begin("op", di, true)
	defer t.end(root)
	var req sdpdRequest
	id := t.begin("sdpd.decode", di, false)
	err := json.Unmarshal(dgram, &req)
	t.end(id)
	if err != nil {
		return sdpdResponse{}, err
	}
	id = t.begin("tenant.authenticate", di, false)
	ident, err := d.gate.Authenticate(req.Token)
	t.end(id)
	if err != nil {
		return sdpdResponse{}, err
	}
	var resp sdpdResponse
	owner, _, _ := tenant.SplitName(req.Name)
	switch req.Op {
	case "query":
		if d.node != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			id = t.begin("discovery.discover", di, true)
			res, err := d.node.DiscoverResult(ctx, []byte(req.Doc))
			t.end(id)
			cancel()
			if err != nil {
				return resp, err
			}
			resp = sdpdResponse{OK: true, Hits: res.Hits, Partial: res.Partial(), Unreachable: res.Unreachable, TraceID: res.Trace}
		} else {
			hits, err := d.backend.Query([]byte(req.Doc))
			if err != nil {
				return resp, err
			}
			resp = sdpdResponse{OK: true, Hits: hits}
		}
	case "register":
		name, err := d.backend.ServiceName([]byte(req.Doc))
		if err != nil {
			return resp, err
		}
		owner, _, _ = tenant.SplitName(name)
		newService := !d.live[name]
		id = t.begin("tenant.admit", di, false)
		err = d.gate.AdmitPublish(ident, name, newService)
		t.end(id)
		if err != nil {
			return resp, err
		}
		if _, err := d.backend.Register([]byte(req.Doc)); err != nil {
			return resp, err
		}
		d.versions[name]++
		d.live[name] = true
		if err := r.persist(d, store.Record{Op: store.OpRegister, Doc: req.Doc, Name: name, Version: d.versions[name], Tenant: owner}); err != nil {
			return resp, err
		}
		if newService {
			d.gate.ServiceLive(owner, +1)
		}
		if d.node != nil {
			d.node.RefreshSummary()
		}
		resp = sdpdResponse{OK: true, Version: d.versions[name]}
	case "deregister":
		id = t.begin("tenant.admit", di, false)
		err := d.gate.AdmitDeregister(ident, req.Name)
		t.end(id)
		if err != nil {
			return resp, err
		}
		if !d.backend.Deregister(req.Name) {
			return resp, fmt.Errorf("service %q not registered", req.Name)
		}
		d.live[req.Name] = false
		if err := r.persist(d, store.Record{Op: store.OpDeregister, Name: req.Name, Tenant: owner}); err != nil {
			return resp, err
		}
		d.gate.ServiceLive(owner, -1)
		if d.node != nil {
			d.node.RefreshSummary()
		}
		resp = sdpdResponse{OK: true}
	case "add-ontology":
		id = t.begin("tenant.admit", di, false)
		err := d.gate.AdmitOntology(ident)
		t.end(id)
		if err != nil {
			return resp, err
		}
		if err := addOntology(d.reg, []byte(req.Doc)); err != nil {
			return resp, err
		}
		if err := r.persist(d, store.Record{Op: store.OpAddOntology, Doc: req.Doc}); err != nil {
			return resp, err
		}
		resp = sdpdResponse{OK: true}
	default:
		return resp, fmt.Errorf("replay cannot run op %q", req.Op)
	}
	id = t.begin("sdpd.encode", di, false)
	data, err := json.Marshal(resp)
	t.end(id)
	r.replyBytes += int64(len(data))
	return resp, err
}

func (r *replay) persist(d *daemonState, rec store.Record) error {
	if d.store == nil {
		return nil
	}
	return d.store.Append(rec)
}

// addOntology loads an ontology the way sdpd's add-ontology op does.
func addOntology(reg *codes.Registry, doc []byte) error {
	o, err := ontology.Unmarshal(doc)
	if err != nil {
		return err
	}
	cl, err := ontology.Classify(o)
	if err != nil {
		return err
	}
	t, err := codes.Encode(cl, codes.DefaultParams)
	if err != nil {
		return err
	}
	reg.Register(t)
	return nil
}

// preload mirrors the live set-up through the traced front end.
func (r *replay) preload() error {
	r.tr.setOp(-1)
	p := r.p
	for di := range r.daemons {
		for _, doc := range p.Ontologies {
			if _, err := r.do(di, datagram(request{Op: "add-ontology", Doc: string(doc), Token: p.AdminToken})); err != nil {
				return fmt.Errorf("replay preload ontology: %w", err)
			}
		}
	}
	for i, doc := range p.ServiceDocs {
		if _, err := r.do(p.Holder[i], datagram(request{Op: "register", Doc: string(doc), Token: p.Tokens[p.Owner[i]]})); err != nil {
			return fmt.Errorf("replay preload %s: %w", p.Services[i], err)
		}
	}
	if r.daemons[0].node == nil {
		return nil
	}
	want := len(p.Services) / 2
	deadline := time.Now().Add(30 * time.Second)
	for {
		full := 0
		for _, pi := range r.daemons[0].node.PeerInfos() {
			if pi.HasSummary && pi.Entries == want {
				full++
			}
		}
		if full == 2 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("replay origin never received both holders' summaries")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sequence is the replayed prefix of the plan: a run of client 0's ops
// then one of client 1's, never cut between a withdraw and its restore.
func sequence(p *plan) []*op {
	var seq []*op
	for c := 0; c < clients; c++ {
		steps := p.Clients[c]
		n := replayOps / clients
		if steps[n-1].Kind == opWithdraw {
			n++
		}
		for i := 0; i < n; i++ {
			seq = append(seq, &steps[i])
		}
	}
	return seq
}

// opRecord is what the replay keeps per op of the traced passes.
type opRecord struct {
	id     int // the op id spans carry
	op     *op
	nodes  int64 // nodes that ran backend Query
	counts countSnap
}

// Histograms the traced run reads from the program's own telemetry.
const (
	hParse  = iota // profile_parse_seconds: every Amigo-S document parse
	hQuery         // registry_query_seconds: the DAG walk
	hInsert        // registry_insert_seconds: classification on publish
	numHists
)

var histNames = [numHists]string{"profile_parse_seconds", "registry_query_seconds", "registry_insert_seconds"}

type histSnap [numHists]struct{ count, ns float64 }

func readHists() histSnap {
	var h histSnap
	for _, m := range telemetry.Default().Snapshot() {
		for i, name := range histNames {
			if m.Name == name {
				h[i].count, h[i].ns = float64(m.Count), m.Sum*1e9
			}
		}
	}
	return h
}

func (h *histSnap) add(b histSnap, sign float64) {
	for i := range h {
		h[i].count += sign * b[i].count
		h[i].ns += sign * b[i].ns
	}
}

// meanUs is the mean observation of histogram i, in µs.
func (h histSnap) meanUs(i int) float64 { return ratio(h[i].ns, h[i].count) / 1e3 }

// passResult sums one pass over the replayed sequence.
type passResult struct {
	traced     bool
	ops        int
	opTime     time.Duration
	alloc      uint64
	gcs        uint32
	hists      histSnap
	replyBytes int64
	records    []opRecord
	failed     int
}

func (r *replay) pass(seq []*op, traced bool, opBase int) passResult {
	res := passResult{traced: traced, ops: len(seq)}
	r.tr.on.Store(traced)
	r.replyBytes = 0
	h0 := readHists()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, st := range seq {
		r.tr.setOp(opBase + i)
		r.c.queryNodes.Store(0)
		c0 := r.c.snap()
		began := time.Now()
		resp, err := r.do(0, st.Datagram)
		res.opTime += time.Since(began)
		rec := opRecord{id: opBase + i, op: st, nodes: r.c.queryNodes.Load(), counts: r.c.snap()}
		rec.counts.add(c0, -1)
		res.records = append(res.records, rec)
		if err != nil || (st.Kind == opQuery && !replyMatches(st, resp)) {
			res.failed++
		}
	}
	runtime.ReadMemStats(&ms1)
	r.tr.on.Store(false)
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcs = ms1.NumGC - ms0.NumGC
	res.hists = readHists()
	res.hists.add(h0, -1)
	res.replyBytes = r.replyBytes
	return res
}

func replyMatches(st *op, resp sdpdResponse) bool {
	if resp.Partial {
		return false
	}
	got := make([]hitKey, len(resp.Hits))
	for i, h := range resp.Hits {
		got[i] = hitKey{h.Service, h.Capability, h.Distance}
	}
	return verdict(st.Expect, got, func(string) bool { return false })
}

// countingMatcher counts Distance calls and, while sampling, keeps their
// arguments for timing them afterwards.
type countingMatcher struct {
	m        *match.CodeMatcher
	calls    int64
	sampling bool
	pairs    [][2]ontology.Ref
}

func (c *countingMatcher) Distance(a, b ontology.Ref) (int, bool) {
	c.calls++
	if c.sampling && len(c.pairs) < 1<<17 {
		c.pairs = append(c.pairs, [2]ontology.Ref{a, b})
	}
	return c.m.Distance(a, b)
}

// shadowDistances replays the traced passes' registrations and queries on
// shadow directories built over counting matchers, one per daemon, and
// returns Distance calls per query and ns per call. A query counts on
// every daemon whose backend ran it.
func (r *replay) shadowDistances(passes []passResult) (perQuery, ns float64, err error) {
	p := r.p
	reg := codes.NewRegistry()
	for _, doc := range p.Ontologies {
		if err := addOntology(reg, doc); err != nil {
			return 0, 0, err
		}
	}
	cm := &countingMatcher{m: match.NewCodeMatcher(reg)}
	dirs := make([]*registry.Directory, len(r.daemons))
	for i := range dirs {
		dirs[i] = registry.NewDirectory(cm)
	}
	register := func(i int) error {
		svc, err := profile.Unmarshal(p.ServiceDocs[i])
		if err != nil {
			return err
		}
		return dirs[p.Holder[i]].Register(svc)
	}
	for i := range p.ServiceDocs {
		if err := register(i); err != nil {
			return 0, 0, err
		}
	}
	var calls, queries int64
	for _, ps := range passes {
		for _, rec := range ps.records {
			switch rec.op.Kind {
			case opWithdraw:
				dirs[p.Holder[rec.op.Service]].Deregister(p.Services[rec.op.Service])
			case opRepublish, opRestore:
				if err := register(rec.op.Service); err != nil {
					return 0, 0, err
				}
			case opQuery:
				before := cm.calls
				cm.sampling = ps.traced
				for di, dir := range dirs {
					if rec.nodes&(1<<di) != 0 {
						dir.Query(rec.op.Request)
					}
				}
				cm.sampling = false
				if ps.traced {
					calls += cm.calls - before
					queries++
				}
			}
		}
	}
	if len(cm.pairs) == 0 {
		return 0, 0, errors.New("shadow directories made no Distance calls")
	}
	m := match.NewCodeMatcher(reg)
	var n int
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, pr := range cm.pairs {
			m.Distance(pr[0], pr[1])
		}
		n += len(cm.pairs)
	}
	return ratio(float64(calls), float64(queries)), float64(time.Since(start)) / float64(n), nil
}

// unmarshalAllocs measures allocations per profile.Unmarshal over the
// documents the replay parses.
func unmarshalAllocs(seq []*op) (float64, error) {
	var docs [][]byte
	for _, st := range seq {
		var req sdpdRequest
		if err := json.Unmarshal(st.Datagram, &req); err != nil {
			return 0, err
		}
		if req.Doc != "" {
			docs = append(docs, []byte(req.Doc))
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, doc := range docs {
		if _, err := profile.Unmarshal(doc); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(docs))), nil
}

// layerStats reduces spans to per-name call counts and total durations,
// plus each op's spans and summed self time.
type layerStats struct {
	calls   map[string]int
	dur     map[string]time.Duration
	opSelf  map[int]time.Duration
	opSpans map[int][]int
}

func reduce(spans []span) layerStats {
	ls := layerStats{calls: map[string]int{}, dur: map[string]time.Duration{},
		opSelf: map[int]time.Duration{}, opSpans: map[int][]int{}}
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		self := d - covered(spans, children[i], s.start, s.end)
		ls.calls[s.name]++
		ls.dur[s.name] += d
		ls.opSelf[s.op] += self
		ls.opSpans[s.op] = append(ls.opSpans[s.op], i)
	}
	return ls
}

// covered is how much of [from, to] the given spans cover.
func covered(spans []span, ids []int, from, to time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		s := spans[id]
		if s.end < 0 {
			continue
		}
		ivs = append(ivs, iv{max(s.start, from), min(s.end, to)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	reach := from
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		total += v.b - max(v.a, reach)
		reach = v.b
	}
	return total
}

func (ls layerStats) meanUs(name string) float64 {
	return ratio(us(ls.dur[name]), float64(ls.calls[name]))
}

// traced is the outcome of the traced run: metrics for the JSON line and
// report-only figures of layers that some workloads never call.
type traced struct {
	metrics   []metric
	report    []metric
	attempted int
	failed    int
}

// runTraced replays the plan in process and derives the per-layer
// metrics. liveP50 is the untraced query p50 of the live run, in µs.
// Per-call means are over the traced passes; registration and admission
// means also cover the traced preload, so every workload has calls.
func runTraced(p *plan, dir string, liveP50 float64) (*traced, error) {
	r, err := newReplay(p, dir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.tr.on.Store(true)
	h0 := readHists()
	if err := r.preload(); err != nil {
		return nil, err
	}
	r.tr.on.Store(false)
	preHists := readHists()
	preHists.add(h0, -1)
	pre := r.c.snap()

	seq := sequence(p)
	out := &traced{}
	var on, off passResult
	var passes []passResult
	for i := 0; i < replayPasses; i++ {
		ps := r.pass(seq, i%2 == 1, i*len(seq))
		out.attempted += ps.ops
		out.failed += ps.failed
		acc := &off
		if ps.traced {
			acc = &on
		}
		acc.ops += ps.ops
		acc.opTime += ps.opTime
		acc.alloc += ps.alloc
		acc.gcs += ps.gcs
		acc.hists.add(ps.hists, 1)
		acc.replyBytes += ps.replyBytes
		passes = append(passes, ps)
	}
	r.tr.mu.Lock()
	spans := slices.Clone(r.tr.spans)
	r.tr.mu.Unlock()
	ls := reduce(spans)

	var queries, publishes, mutations float64
	var q, mut countSnap
	var selfSums, fwdWait []float64
	for _, ps := range passes {
		if !ps.traced {
			continue
		}
		for _, rec := range ps.records {
			if rec.op.Kind != opQuery {
				mutations++
				mut.add(rec.counts, 1)
				if rec.op.Kind != opWithdraw {
					publishes++
				}
				continue
			}
			queries++
			q.add(rec.counts, 1)
			selfSums = append(selfSums, us(ls.opSelf[rec.id]))
			var discover, originBackend time.Duration
			for _, si := range ls.opSpans[rec.id] {
				s := spans[si]
				switch {
				case s.name == "discovery.discover":
					discover += s.end - s.start
				case s.node == 0 && strings.HasPrefix(s.name, "discovery.backend."):
					originBackend += s.end - s.start
				}
			}
			if discover > 0 {
				fwdWait = append(fwdWait, us(discover-originBackend))
			}
		}
	}
	distPerQuery, distNs, err := r.shadowDistances(passes)
	if err != nil {
		return nil, err
	}
	allocs, err := unmarshalAllocs(seq)
	if err != nil {
		return nil, err
	}
	inserts := preHists
	inserts.add(on.hists, 1)
	ops := float64(on.ops)
	out.metrics = []metric{
		{"sdpd.decode_us", ls.meanUs("sdpd.decode"), "us"},
		{"sdpd.encode_us", ls.meanUs("sdpd.encode"), "us"},
		{"sdpd.reply_bytes", ratio(float64(on.replyBytes), ops), "B"},
		{"sdpd.residual_us", liveP50 - median(selfSums), "us"},
		{"tenant.authenticate_us", ls.meanUs("tenant.authenticate"), "us"},
		{"tenant.admit_us", ls.meanUs("tenant.admit"), "us"},
		{"profile.unmarshal_us", on.hists.meanUs(hParse), "us"},
		{"profile.unmarshal_allocs", allocs, "count"},
		{"profile.unmarshals_per_op", ratio(on.hists[hParse].count, ops), "count"},
		{"match.distance_calls_per_query", distPerQuery, "count"},
		{"match.distance_ns", distNs, "ns"},
		{"registry.query_us", on.hists.meanUs(hQuery), "us"},
		{"registry.match_ops_per_query", ratio(float64(q[cQueryMatchOps]), queries), "count"},
		{"registry.useful_ratio", ratio(float64(q[cQueryHits]), float64(q[cQueryMatchOps])), "ratio"},
		{"registry.register_us", inserts.meanUs(hInsert), "us"},
		{"registry.match_ops_per_register", ratio(float64(pre[cRegMatchOps]+mut[cRegMatchOps]), float64(pre[cRegCalls]+mut[cRegCalls])), "count"},
		{"discovery.backend_parses_per_query", ratio(float64(q[cParses]), queries), "count"},
		{"discovery.forwards_per_query", ratio(float64(q[cForwards]), queries), "count"},
		{"discovery.forward_hit_ratio", ratio(float64(q[cForwardHits]), float64(q[cForwards])), "ratio"},
		{"transport.frames_per_query", ratio(float64(q[cFrames]), queries), "count"},
		{"transport.bytes_per_query", ratio(float64(q[cFrameBytes]), queries), "B"},
		{"store.appends_per_publish", ratio(float64(mut[cAppends]), mutations), "count"},
		{"runtime.alloc_bytes_per_op", ratio(float64(off.alloc), float64(off.ops)), "B"},
		{"runtime.gc_cycles_per_kop", ratio(float64(off.gcs)*1000, float64(off.ops)), "count"},
		{"trace.op_us_off", ratio(us(off.opTime), float64(off.ops)), "us"},
		{"trace.op_us_on", ratio(us(on.opTime), ops), "us"},
	}
	out.report = []metric{
		{"discovery.discover_us", ls.meanUs("discovery.discover"), "us"},
		{"discovery.forward_wait_us", mean(fwdWait), "us"},
		{"discovery.backend_parses_per_publish", ratio(float64(mut[cParses]), publishes), "count"},
		{"transport.encode_us", ls.meanUs("transport.encode"), "us"},
		{"transport.decode_us", ls.meanUs("transport.decode"), "us"},
		{"store.append_us", ls.meanUs("store.append"), "us"},
		{"trace.overhead_frac", ratio(us(on.opTime), ops)/ratio(us(off.opTime), float64(off.ops)) - 1, "ratio"},
		{"trace.spans", float64(len(spans)), "count"},
	}
	return out, nil
}
