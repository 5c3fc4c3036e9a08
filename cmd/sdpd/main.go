// Command sdpd runs a standalone S-Ariadne directory node over UDP: a
// real-network deployment of the semantic directory for infrastructure
// settings (the hybrid side of the paper's hybrid-network story). Clients
// (cmd/sdpctl) publish Amigo-S advertisements and resolve semantic
// queries with single-datagram JSON requests.
//
// Usage:
//
//	sdpd -listen :7474 -ontology media.xml -ontology servers.xml
//
// Daemons federate into a directory backbone with -federate (plus
// -peer seeds and optionally -advertise and -federate-transport): each
// daemon becomes a backbone directory exchanging announcements, Bloom
// summaries and forwarded queries over real UDP or TCP sockets, so a
// query at any daemon is answered from the whole federation, degrading
// to explicitly-partial results when peers die:
//
//	sdpd -listen :7474 -federate :8474
//	sdpd -listen :7475 -federate :8475 -peer 127.0.0.1:8474
//
// Clients speak one JSON request per datagram and get one JSON reply
// back; internal/sdpproto defines the ops, fields and error codes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sync/atomic"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/ontology"
	"sariadne/internal/sdpproto"
	"sariadne/internal/store"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
)

// denialResponse renders an admission refusal (or an authenticator's
// internal fault) as a wire response.
func denialResponse(err error) sdpproto.Response {
	if d, ok := tenant.Denied(err); ok {
		return sdpproto.Response{Error: d.Reason, Code: d.Code}
	}
	return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeInternal}
}

// stringList collects repeated string flags (-ontology, -peer).
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// buildAuthenticator assembles the admission authenticator from the auth
// flags: a static token table, an HMAC verifier, both chained (static
// first, so operator tokens keep working alongside minted ones), or nil
// for the open pre-tenancy mode.
func buildAuthenticator(tokensPath, secret string) (tenant.Authenticator, error) {
	var chain tenant.Chain
	if tokensPath != "" {
		static, err := tenant.LoadStaticFile(tokensPath)
		if err != nil {
			return nil, err
		}
		chain = append(chain, static)
	}
	if secret != "" {
		h, err := tenant.NewHMAC([]byte(secret), nil)
		if err != nil {
			return nil, err
		}
		chain = append(chain, h)
	}
	switch len(chain) {
	case 0:
		return nil, nil
	case 1:
		return chain[0], nil
	default:
		return chain, nil
	}
}

// setupLogging installs the process-wide slog handler at the requested
// level and returns the root logger. Shared by sdpd's front ends; each
// component derives a tagged child via With("component", ...).
func setupLogging(level string) (*slog.Logger, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l}))
	slog.SetDefault(logger)
	return logger, nil
}

func main() {
	listen := flag.String("listen", ":7474", "UDP address to listen on")
	httpAddr := flag.String("http", "", "also serve an HTTP gateway on this address (optional)")
	state := flag.String("state", "", "store file for durable registrations (optional)")
	storeKind := flag.String("store", "auto", "storage backend: auto, mem, jsonl or bolt (auto sniffs the -state file)")
	syncEvery := flag.Int("sync-every", 1, "fsync the store once every N appends (1 = per-entry, the safest)")
	migrateTo := flag.String("migrate-store", "", "migrate the -state history into this path (backend from -store or the path's extension), then exit")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof on the HTTP gateway")
	federate := flag.String("federate", "", "socket address for directory backbone traffic; empty runs standalone")
	fedTransport := flag.String("federate-transport", "udp", "backbone substrate: udp or tcp")
	advertise := flag.String("advertise", "", "backbone address announced to peers (defaults to the bound -federate address)")
	traceSample := flag.Int("trace-sample", 64, "trace every Nth query into the flight recorder (0 disables sampling)")
	slowQuery := flag.Duration("slow-query", 0, "retain queries at least this slow in the flight recorder (0 = half the query timeout)")
	healthInterval := flag.Duration("health-interval", time.Second, "component health probe interval behind /healthz and /readyz")
	sampleEvery := flag.Duration("sample-every", 5*time.Second, "telemetry time-series sampling cadence behind GET /timeseries (0 disables)")
	telemetryJournal := flag.String("telemetry-journal", "", "directory for the durable telemetry journal: sampler ticks persist across restarts behind GET /timeseries (optional)")
	watchEvery := flag.Duration("watch-every", 0, "drift-watchdog sweep cadence over the telemetry history (0 disables)")
	watchWindow := flag.Duration("watch-window", 0, "sample window each watchdog sweep examines (default 10x -watch-every)")
	watchGoroutines := flag.Float64("watch-goroutine-growth", 0, "goroutine_growth threshold in goroutines/min (0 = default 30, negative disables)")
	watchHeap := flag.Float64("watch-heap-growth-bytes", 0, "memory_growth threshold in heap bytes/min (0 = default 8MiB, negative disables)")
	watchStale := flag.Duration("watch-summary-stale", 0, "summary_stale bound on summary-push stalls (0 = default 5m, negative disables)")
	watchFlap := flag.Float64("watch-flap-per-min", 0, "election_flap threshold in role transitions/min (0 = default 6, negative disables)")
	watchAppendFactor := flag.Float64("watch-append-p99-factor", 0, "append_latency_step factor over the baseline-half store append p99 (0 = default 8, negative disables)")
	watchDenials := flag.Float64("watch-denial-per-min", 0, "denial_spike absolute floor in tenant denials/min (0 = default 30, negative disables)")
	watchHeapProfile := flag.Bool("watch-heap-profile", false, "capture one pprof heap profile beside the journal on the first memory_growth alert")
	chaosLeakGoroutines := flag.Int("chaos-leak-goroutines", 0, "FAULT INJECTION: leak this many goroutines per second so soak drills can watch the watchdog fire")
	compactEvery := flag.Duration("compact-every", 0, "compact the store on this cadence, off the request path (0 disables)")
	authTokens := flag.String("auth-tokens", "", "static bearer-token file (`token tenant [role]` per line); enables admission")
	authSecret := flag.String("auth-secret", "", "shared HMAC secret (>= 16 bytes) accepting sdpctl-minted sdp1 tokens; enables admission")
	anonReads := flag.Bool("anon-reads", false, "with admission enabled, serve token-less reads as the anonymous tenant")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant mutating-op rate limit in ops/sec (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 10, "per-tenant token-bucket burst on top of -tenant-rate")
	tenantMaxServices := flag.Int("tenant-max-services", 0, "max live advertisements per tenant (0 = unlimited)")
	tenantMaxPublishes := flag.Int("tenant-max-publishes-min", 0, "max admitted mutating ops per tenant per minute (0 = unlimited)")
	var ontologies stringList
	flag.Var(&ontologies, "ontology", "ontology XML file to load (repeatable)")
	var peers stringList
	flag.Var(&peers, "peer", "backbone address of another daemon to seed from (repeatable)")
	flag.Parse()

	logger, err := setupLogging(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdpd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	if *migrateTo != "" {
		stats, err := migrateStore(*state, *migrateTo, *storeKind)
		if err != nil {
			fatal("store migration", err)
		}
		logger.Info("store migrated", "component", "store",
			"from", *state, "to", *migrateTo,
			"replayed", stats.Replayed, "skipped", stats.Skipped,
			"torn_tail", stats.TornTail, "live", stats.Live)
		return
	}

	srv, err := newServer(ontologies)
	if err != nil {
		fatal("startup", err)
	}
	srv.sampleEvery = *traceSample
	// The gate must exist before replay so recovered registrations rebuild
	// per-tenant live-service counts (durable quotas).
	auth, err := buildAuthenticator(*authTokens, *authSecret)
	if err != nil {
		fatal("admission", err)
	}
	srv.gate = tenant.NewGatekeeper(tenant.Config{
		Auth:                  auth,
		AnonymousReads:        *anonReads,
		Rate:                  *tenantRate,
		Burst:                 *tenantBurst,
		MaxLiveServices:       *tenantMaxServices,
		MaxPublishesPerMinute: *tenantMaxPublishes,
	})
	if srv.gate.Enforcing() {
		logger.Info("tenant admission enabled", "component", "tenant",
			"auth", srv.gate.AuthName(), "anon_reads", *anonReads,
			"rate", *tenantRate, "burst", *tenantBurst,
			"max_services", *tenantMaxServices, "max_publishes_min", *tenantMaxPublishes)
	}
	if *state != "" || *storeKind == "mem" {
		stLog := logger.With("component", "store")
		st, err := openStore(*storeKind, *state, store.Options{SyncEvery: *syncEvery})
		if err != nil {
			fatal("store open", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				stLog.Error("store close", "err", err)
			}
		}()
		applied, skipped, torn, err := replayStore(st, srv)
		if err != nil {
			fatal("store replay", err)
		}
		if applied+skipped > 0 || torn {
			stLog.Info("recovered store records",
				"applied", applied, "skipped", skipped, "torn_tail", torn)
		}
		srv.store = st
		if *compactEvery > 0 {
			cp := startCompactor(st, *compactEvery, stLog)
			defer cp.close()
		}
	} else if *compactEvery > 0 {
		logger.Warn("-compact-every has no effect without a store")
	}
	if *federate != "" {
		fed, err := startFederation(srv, federationOptions{
			Listen:      *federate,
			Transport:   *fedTransport,
			Advertise:   *advertise,
			Peers:       peers,
			TraceSample: *traceSample,
			SlowQuery:   *slowQuery,
		}, logger)
		if err != nil {
			fatal("federation", err)
		}
		defer fed.close()
	} else if len(peers) > 0 || *advertise != "" {
		logger.Warn("-peer/-advertise have no effect without -federate")
	}
	srv.httpOn.Store(*httpAddr != "")
	hc := startHealthChecker(srv, *healthInterval, 0)
	defer hc.close()
	// The soak pipeline: runtime collector -> sampler -> sample log
	// (durable journal or bounded memory) -> drift watchdog.
	var sampleLog telemetry.SampleLog
	var logSample func(telemetry.JournalSample)
	if *telemetryJournal != "" {
		tjLog := logger.With("component", "telemetry")
		jl, err := telemetry.OpenJournal(*telemetryJournal, telemetry.JournalOptions{})
		if err != nil {
			fatal("telemetry journal", err)
		}
		defer func() {
			if err := jl.Close(); err != nil {
				tjLog.Error("journal close", "err", err)
			}
		}()
		if jl.TornTail() {
			tjLog.Warn("telemetry journal recovered from a torn tail", "dir", *telemetryJournal)
		}
		tjLog.Info("telemetry journal open", "dir", *telemetryJournal, "history", len(jl.History()))
		srv.journal = jl
		sampleLog = jl
		logSample = func(s telemetry.JournalSample) {
			if err := jl.Append(s); err != nil {
				tjLog.Error("journal append", "err", err)
			}
		}
	} else if *watchEvery > 0 {
		// Watching without durability: a bounded in-memory log feeds the
		// detectors and is lost on restart.
		ml := telemetry.NewMemLog(720)
		sampleLog = ml
		logSample = ml.Append
	}
	if *sampleEvery > 0 {
		// 720 samples at the default 5s cadence keeps an hour of windowed
		// quantile history at constant memory.
		sampler := telemetry.StartSamplerConfig(telemetry.Default(), *sampleEvery, 720, telemetry.SamplerConfig{
			Collect: telemetry.SampleRuntime,
			OnSample: func(s telemetry.Sample) {
				if logSample != nil {
					logSample(telemetry.JournalSample{Time: time.Now(), Metrics: s.Metrics})
				}
			},
		})
		defer sampler.Stop()
		srv.sampler = sampler
	} else if sampleLog != nil {
		logger.Warn("-telemetry-journal/-watch-every have nothing to read without -sample-every > 0")
	}
	if *watchEvery > 0 {
		wdLog := logger.With("component", "watchdog")
		detectors := telemetry.StandardDetectors(telemetry.Thresholds{
			GoroutinesPerMin:  *watchGoroutines,
			HeapBytesPerMin:   *watchHeap,
			SummaryStaleAfter: *watchStale,
			ElectionsPerMin:   *watchFlap,
			AppendP99Factor:   *watchAppendFactor,
			DenialsPerMin:     *watchDenials,
		})
		var heapProfileOnce sync.Once
		wd := telemetry.NewWatchdog(telemetry.WatchdogConfig{
			Log:       sampleLog,
			Detectors: detectors,
			Interval:  *watchEvery,
			Window:    *watchWindow,
			Recorder:  telemetry.FlightRecorder(),
			OnAlert: func(a telemetry.Alert) {
				wdLog.Warn("drift alert fired", "code", a.Code, "severity", a.Severity,
					"metric", a.Metric, "value", a.Value, "threshold", a.Threshold,
					"evidence", a.Evidence)
				if *watchHeapProfile && a.Code == telemetry.AlertMemoryGrowth {
					// One capture per process: the first leak sighting is the
					// interesting heap; later captures would just be bigger.
					heapProfileOnce.Do(func() {
						dir := *telemetryJournal
						if dir == "" {
							dir = os.TempDir()
						}
						path := filepath.Join(dir, "heap-"+a.At.UTC().Format("20060102T150405Z")+".pprof")
						if err := telemetry.CaptureHeapProfile(path); err != nil {
							wdLog.Error("heap profile capture", "err", err)
							return
						}
						wdLog.Warn("heap profile captured", "path", path)
					})
				}
			},
		})
		wd.Start()
		defer wd.Stop()
		srv.watchdog = wd
		wdLog.Info("drift watchdog running", "every", *watchEvery, "detectors", len(detectors))
	}
	if *chaosLeakGoroutines > 0 {
		logger.Warn("fault injection active: leaking goroutines",
			"component", "chaos", "per_sec", *chaosLeakGoroutines)
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for range t.C {
				for i := 0; i < *chaosLeakGoroutines; i++ {
					go func() { select {} }()
				}
			}
		}()
	}
	addr, err := net.ResolveUDPAddr("udp", *listen)
	if err != nil {
		fatal("resolve "+*listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		fatal("listen", err)
	}
	defer conn.Close()
	// Both front ends report termination on one channel so a failing HTTP
	// gateway takes the process down instead of dying silently in a
	// goroutine nothing joins.
	errCh := make(chan error, 2)
	if *httpAddr != "" {
		go func() {
			errCh <- serveHTTP(*httpAddr, srv, *pprofFlag)
		}()
	}
	logger.Info("serving semantic discovery",
		"component", "udp", "addr", conn.LocalAddr().String(), "ontologies", len(ontologies))
	go func() {
		srv.serve(conn)
		errCh <- nil
	}()
	if err := <-errCh; err != nil {
		fatal("front end failed", err)
	}
}

// server is the directory node state. With both the UDP and HTTP front
// ends funneling into handle, a mutex serializes request processing (the
// code registry and the journal are not internally synchronized; the
// per-request work is microseconds, so serialization is not a bottleneck
// for this tool).
type server struct {
	mu sync.Mutex
	// reg and backend are not internally synchronized; every request
	// handler mutates or reads them under mu.
	reg     *codes.Registry            // guarded by mu
	backend *discovery.SemanticBackend // guarded by mu
	// store persists mutations when durability is enabled (-state); nil
	// runs fully in-memory. Backends are interchangeable via -store.
	store store.Store // guarded by mu
	// adverts is the advertisement version ledger: every version published
	// under each name, live or withdrawn, behind GET /services.
	adverts map[string]*advertHistory // guarded by mu
	// gate is the tenant admission layer: every request authenticates
	// through it, every mutation is admitted by it before touching the
	// backend. newServer installs an open (non-enforcing) gate; main
	// replaces it from the -auth-* flags before replay and the front ends.
	// The Gatekeeper is internally synchronized, but process calls it under
	// mu like everything else.
	gate *tenant.Gatekeeper
	// resolve answers query requests. The default resolver consults the
	// node-local backend only; a deployment embedding a backbone node (or a
	// test exercising degradation) swaps in one that returns federated,
	// possibly partial results. traced asks for a hop-level trace. Called
	// with mu held.
	resolve func(doc []byte, traced bool) (discovery.Result, error) // guarded by mu
	// fed is the daemon's backbone membership; nil when standalone.
	fed *federation // guarded by mu
	// sampleEvery traces every Nth standalone query (federated sampling
	// lives in the discovery node); sampleCount counts them.
	sampleEvery int    // guarded by mu
	sampleCount uint64 // guarded by mu
	// health is the daemon's component prober; nil until started.
	health *healthChecker // guarded by mu
	// sampler feeds the telemetry time-series ring behind GET
	// /timeseries; nil when -sample-every is 0. Set before the front
	// ends start, read-only afterwards.
	sampler *telemetry.Sampler
	// journal is the durable telemetry journal (-telemetry-journal):
	// sampler ticks persisted across restarts, preferred over the ring by
	// GET /timeseries. Nil without the flag. Set before the front ends
	// start, read-only afterwards.
	journal *telemetry.Journal
	// watchdog sweeps drift detectors over the sample history behind GET
	// /alerts; nil when -watch-every is 0. Set before the front ends
	// start, read-only afterwards.
	watchdog *telemetry.Watchdog
	// httpOn records that an HTTP gateway was configured; httpLive that it
	// is currently bound and serving. Health probes compare the two.
	httpOn   atomic.Bool
	httpLive atomic.Bool
	log      *slog.Logger
}

// localNode names the standalone daemon in spans it synthesizes itself;
// federated daemons use their backbone transport address instead.
const localNode = "local"

func newServer(ontologyFiles []string) (*server, error) {
	reg := codes.NewRegistry()
	s := &server{
		reg:         reg,
		backend:     discovery.NewSemanticBackend(reg),
		adverts:     make(map[string]*advertHistory),
		gate:        tenant.NewGatekeeper(tenant.Config{}),
		sampleEvery: 64,
		log:         slog.With("component", "directory"),
	}
	s.resolve = func(doc []byte, traced bool) (discovery.Result, error) {
		// A standalone directory has no backbone to lose peers on, so the
		// local answer is complete by construction — but it still samples
		// and traces so /traces works without federation.
		sampled := false
		s.sampleCount++
		if !traced && s.sampleEvery > 0 && s.sampleCount%uint64(s.sampleEvery) == 0 {
			traced, sampled = true, true
		}
		var trace uint64
		var spans []telemetry.Span
		if traced {
			trace = telemetry.NextTraceID()
			spans = append(spans, telemetry.NewSpan(trace, localNode, telemetry.EventReceived))
		}
		start := time.Now()
		hits, err := s.backend.Query(doc)
		if err != nil {
			return discovery.Result{}, err
		}
		if traced {
			m := telemetry.NewSpan(trace, localNode, telemetry.EventLocalMatch)
			m.Hits = len(hits)
			m.Dur = time.Since(start)
			spans = append(spans, m)
			telemetry.FlightRecorder().RecordTrace(telemetry.TraceRecord{
				ID: trace, Node: localNode, Start: start, Dur: time.Since(start),
				Hits: len(hits), Sampled: sampled, Spans: spans,
			})
		}
		return discovery.Result{Hits: hits, Trace: trace, Spans: spans}, nil
	}
	for _, path := range ontologyFiles {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		err = s.addOntologyLocked(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("ontology %s: %w", path, err)
		}
	}
	return s, nil
}

func (s *server) addOntologyTextLocked(doc string) error {
	return s.addOntologyLocked(strings.NewReader(doc))
}

func (s *server) addOntologyLocked(r interface{ Read([]byte) (int, error) }) error {
	o, err := ontology.Decode(r)
	if err != nil {
		return err
	}
	cl, err := ontology.Classify(o)
	if err != nil {
		return err
	}
	table, err := codes.Encode(cl, codes.DefaultParams)
	if err != nil {
		return err
	}
	s.reg.Register(table)
	return nil
}

func (s *server) serve(conn *net.UDPConn) {
	udpLog := slog.With("component", "udp")
	buf := make([]byte, 64*1024)
	for {
		n, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			udpLog.Error("read", "err", err)
			return
		}
		data, err := json.Marshal(s.handle(buf[:n]))
		if err == nil && len(data) > sdpproto.MaxDatagram {
			// The kernel would refuse the datagram and leave the client
			// waiting out its timeout; a typed error tells it why.
			requestErrorsTotal.Inc()
			data, err = json.Marshal(sdpproto.Response{Code: sdpproto.CodeReplyTooLarge, Error: fmt.Sprintf(
				"reply of %d bytes exceeds the %d-byte datagram limit; use the HTTP gateway",
				len(data), sdpproto.MaxDatagram)})
		}
		if err != nil {
			udpLog.Error("marshal reply", "err", err)
			continue
		}
		if _, err := conn.WriteToUDP(data, peer); err != nil {
			udpLog.Error("write reply", "peer", peer.String(), "err", err)
		}
	}
}

// handle decodes one datagram and runs it through process, timing and
// counting it like a gateway request.
func (s *server) handle(datagram []byte) sdpproto.Response {
	start := time.Now()
	var req sdpproto.Request
	if err := json.Unmarshal(datagram, &req); err != nil {
		return observed(start, sdpproto.Response{Error: "malformed request: " + err.Error(), Code: sdpproto.CodeBadRequest})
	}
	return observed(start, s.process(req))
}

// observed records one handled request, a datagram or a gateway call, in
// the front-end instruments.
func observed(start time.Time, resp sdpproto.Response) sdpproto.Response {
	requestsTotal.Inc()
	if !resp.OK {
		requestErrorsTotal.Inc()
	}
	requestSeconds.ObserveSince(start)
	return resp
}

func (s *server) process(req sdpproto.Request) sdpproto.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Every op authenticates first. An open-mode daemon gets the wildcard
	// identity back at zero cost; an enforcing daemon turns a missing or
	// bad token into a 401 here, before any work happens.
	id, err := s.gate.Authenticate(req.Token)
	if err != nil {
		return denialResponse(err)
	}
	switch req.Op {
	case "register":
		// Admission runs on the cheaply pre-parsed name BEFORE the backend
		// sees the advertisement: a denied publish never enters the
		// capability DAG, so the Bloom summary pushed to federation peers
		// cannot leak it.
		name, err := s.backend.ServiceName([]byte(req.Doc))
		if err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeBadRequest}
		}
		prior := s.adverts[name]
		newService := prior == nil || !prior.Live
		if err := s.gate.AdmitPublish(id, name, newService); err != nil {
			return denialResponse(err)
		}
		if _, err := s.backend.Register([]byte(req.Doc)); err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeBadRequest}
		}
		// The directory assigns the advertisement version: re-publishing a
		// name supersedes the old version, which stays listable in the
		// ledger. The assigned version is persisted with the record and
		// returned to the publisher.
		version := s.recordAdvertLocked(name, req.Doc, 0)
		owner := advertOwner(name, "")
		if err := s.persistLocked(store.Record{Op: store.OpRegister, Doc: req.Doc, Name: name, Version: version, Tenant: owner}); err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeInternal}
		}
		if newService {
			s.gate.ServiceLive(owner, +1)
		}
		s.refreshLocked()
		s.log.Info("registered service", "name", name, "version", version, "capabilities", s.backend.Len())
		return sdpproto.Response{OK: true, Version: version}
	case "deregister":
		if err := s.gate.AdmitDeregister(id, req.Name); err != nil {
			return denialResponse(err)
		}
		if !s.backend.Deregister(req.Name) {
			return sdpproto.Response{Error: fmt.Sprintf("service %q not registered", req.Name), Code: sdpproto.CodeNotFound}
		}
		s.dropAdvertLocked(req.Name)
		owner := advertOwner(req.Name, "")
		if err := s.persistLocked(store.Record{Op: store.OpDeregister, Name: req.Name, Tenant: owner}); err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeInternal}
		}
		s.gate.ServiceLive(owner, -1)
		s.refreshLocked()
		return sdpproto.Response{OK: true}
	case "query":
		res, err := s.resolve([]byte(req.Doc), req.Trace)
		if err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeBadRequest}
		}
		if res.Partial() {
			partialRepliesTotal.Inc()
			s.log.Warn("serving partial query result",
				"hits", len(res.Hits), "unreachable", len(res.Unreachable))
		}
		resp := sdpproto.Response{OK: true, Hits: res.Hits, Partial: res.Partial(),
			Unreachable: res.Unreachable, TraceID: res.Trace}
		if req.Trace {
			resp.Spans = res.Spans
		}
		return resp
	case "add-ontology":
		if err := s.gate.AdmitOntology(id); err != nil {
			return denialResponse(err)
		}
		if err := s.addOntologyTextLocked(req.Doc); err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeBadRequest}
		}
		if err := s.persistLocked(store.Record{Op: store.OpAddOntology, Doc: req.Doc}); err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeInternal}
		}
		return sdpproto.Response{OK: true}
	case "get-table":
		// Thin clients fetch encoded code tables instead of running a
		// reasoner themselves (Section 3.2's code distribution).
		table, ok := s.reg.Resolve(req.Name)
		if !ok {
			return sdpproto.Response{Error: fmt.Sprintf("no table for ontology %q", req.Name), Code: sdpproto.CodeNotFound}
		}
		data, err := codes.MarshalTable(table)
		if err != nil {
			return sdpproto.Response{Error: err.Error(), Code: sdpproto.CodeInternal}
		}
		return sdpproto.Response{OK: true, Table: data}
	case "stats":
		return sdpproto.Response{OK: true, Stats: &sdpproto.StatsBody{
			Capabilities: s.backend.Len(),
			Ontologies:   s.reg.URIs(),
		}}
	case "peers":
		if s.fed == nil {
			return sdpproto.Response{Error: "daemon is not federated (run with -federate)", Code: sdpproto.CodeBadRequest}
		}
		return sdpproto.Response{OK: true, Peers: s.fed.peers()}
	case "tenants":
		if err := s.gate.AdmitAdmin(id); err != nil {
			return denialResponse(err)
		}
		return sdpproto.Response{OK: true, Tenants: &sdpproto.TenantsBody{
			Enforcing: s.gate.Enforcing(),
			Auth:      s.gate.AuthName(),
			Limits:    s.gate.Limits(),
			Tenants:   s.gate.Tenants(),
		}}
	default:
		return sdpproto.Response{Error: fmt.Sprintf("unknown op %q", req.Op), Code: sdpproto.CodeBadRequest}
	}
}

// refreshLocked pushes the post-mutation Bloom summary to backbone peers
// when federated; standalone daemons have nobody to tell.
func (s *server) refreshLocked() {
	if s.fed != nil {
		s.fed.refresh()
	}
}

// persistLocked appends a successful mutation to the store when
// durability is enabled.
func (s *server) persistLocked(rec store.Record) error {
	if s.store == nil {
		return nil
	}
	return s.store.Append(rec)
}
