// Package registry implements the directory-side classification of service
// advertisements from Section 3.3 of the paper: capabilities of networked
// services are organized into directed acyclic graphs of related
// capabilities, indexed by the set of ontologies they use, so that a
// request is matched against a handful of graph roots instead of every
// advertisement in the directory.
//
// Graph structure (paper, Section 3.3):
//
//   - two capabilities that match in both directions with semantic
//     distance 0 share a single vertex;
//   - otherwise, when Match(C1, C2) holds, C1 and C2 are distinct vertices
//     with a directed edge from the more generic C1 to C2;
//   - Roots(G) are vertices without predecessors (the most generic
//     capabilities), Leaves(G) those without successors.
//
// The Match relation is transitive, which gives the two facts the paper's
// algorithms rely on: if no root of a graph matches a request, nothing in
// the graph does (sound filtering), and the set of vertices matching a
// request is closed downward from the roots that match (so insertion and
// query only ever traverse matching regions).
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/match"
	"sariadne/internal/profile"
)

// Common errors.
var (
	// ErrInvalidCapability is returned when registering a capability that
	// fails validation.
	ErrInvalidCapability = errors.New("registry: invalid capability")
)

// Entry is one advertised capability with its provenance.
type Entry struct {
	// Capability is the advertised provided capability.
	Capability *profile.Capability
	// Service and Provider identify the advertisement's origin.
	Service  string
	Provider string
	// compiled is Capability interned against the matcher's tables
	// generation current when the entry was registered. Once the tables
	// move on, CompiledDistance matches the entry by name.
	compiled match.Compiled
}

// newEntry stores a copy of capability c of service s, compiled against
// ts.
func newEntry(ts *codes.Tables, s *profile.Service, c *profile.Capability) *Entry {
	c = c.Clone()
	return &Entry{Capability: c, Service: s.Name, Provider: s.Provider, compiled: match.Compile(ts, c)}
}

// String renders the entry as service/capability.
func (e *Entry) String() string {
	return e.Service + "/" + e.Capability.Name
}

// Result is a query answer: a matching advertisement and its semantic
// distance from the request (lower is better).
type Result struct {
	Entry    *Entry
	Distance int
}

// vertex is an equivalence class of capabilities in one graph.
type vertex struct {
	// rep is the compiled representative capability used for graph
	// navigation; all entries in the vertex match rep mutually.
	rep     match.Compiled
	entries []*Entry
	preds   map[*vertex]struct{}
	succs   map[*vertex]struct{}
}

// graph is one DAG of related capabilities plus its ontology index.
type graph struct {
	// ontologies is the union of ontology URIs used by member capabilities.
	ontologies map[string]struct{}
	vertices   map[*vertex]struct{}
	roots      map[*vertex]struct{}
	leaves     map[*vertex]struct{}
}

func newGraph() *graph {
	return &graph{
		ontologies: make(map[string]struct{}),
		vertices:   make(map[*vertex]struct{}),
		roots:      make(map[*vertex]struct{}),
		leaves:     make(map[*vertex]struct{}),
	}
}

// covers reports whether the graph's ontology set contains every URI the
// capability uses — the paper's graph pre-selection index.
func (g *graph) covers(uris []string) bool {
	for _, u := range uris {
		if _, ok := g.ontologies[u]; !ok {
			return false
		}
	}
	return true
}

func (g *graph) addOntologies(uris []string) {
	for _, u := range uris {
		g.ontologies[u] = struct{}{}
	}
}

// Directory is a semantic service directory: it caches advertised
// capabilities classified into graphs and answers capability queries.
// Directory is safe for concurrent use: writers serialize on mu and
// publish immutable snapshots through snap, which readers load without
// taking any lock (see snapshot.go for the publish invariant).
type Directory struct {
	// mu serializes writers only; the read path never takes it.
	mu      sync.Mutex
	matcher match.ConceptMatcher
	graphs  []*graph // guarded by mu
	// byOntology indexes graphs by the ontology URIs they contain, so
	// query-time graph pre-selection does not scan every graph.
	byOntology map[string][]*graph // guarded by mu
	// byService tracks entries for deregistration.
	byService map[string][]*Entry // guarded by mu
	// compiled caches the immutable compiled form of each graph;
	// dirty marks graphs whose cached form is stale, so a publish
	// recompiles only what the write touched (copy-on-write at graph
	// granularity).
	compiled map[*graph]*snapGraph // guarded by mu
	dirty    map[*graph]struct{}   // guarded by mu
	// snap is the published immutable view served to readers.
	snap atomic.Pointer[snapshot]
	// matchOps counts capability-level match operations (monotonic).
	matchOps atomic.Uint64
}

// NewDirectory returns an empty directory matching with m.
func NewDirectory(m match.ConceptMatcher) *Directory {
	d := &Directory{
		matcher:    m,
		byOntology: make(map[string][]*graph),
		byService:  make(map[string][]*Entry),
		compiled:   make(map[*graph]*snapGraph),
		dirty:      make(map[*graph]struct{}),
	}
	d.snap.Store(newSnapshot(d, d.compiled))
	return d
}

// markDirtyLocked records that g's compiled form is stale.
func (d *Directory) markDirtyLocked(g *graph) {
	d.dirty[g] = struct{}{}
}

// publishLocked recompiles every dirty graph, reusing the cached compiled
// form of clean ones, and atomically publishes the new snapshot. Writers
// call it once per Register/Deregister, so a service advertising many
// capabilities pays for one snapshot (and one ontology-key regeneration),
// not one per capability.
func (d *Directory) publishLocked() {
	compiled := make(map[*graph]*snapGraph, len(d.graphs))
	for _, g := range d.graphs {
		sg, ok := d.compiled[g]
		if _, stale := d.dirty[g]; stale || !ok {
			sg = newSnapGraph(g)
		}
		compiled[g] = sg
	}
	d.compiled = compiled
	d.dirty = make(map[*graph]struct{})
	d.snap.Store(newSnapshot(d, compiled))
}

// indexGraphLocked records g under every URI in uris not yet indexed for it.
func (d *Directory) indexGraphLocked(g *graph, uris []string) {
	for _, u := range uris {
		if _, ok := g.ontologies[u]; ok {
			continue // already indexed when first added
		}
		d.byOntology[u] = append(d.byOntology[u], g)
	}
	g.addOntologies(uris)
}

// unindexGraphLocked removes g from the ontology index.
func (d *Directory) unindexGraphLocked(g *graph) {
	for u := range g.ontologies {
		list := d.byOntology[u]
		for i, gg := range list {
			if gg == g {
				d.byOntology[u] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(d.byOntology[u]) == 0 {
			delete(d.byOntology, u)
		}
	}
}

// candidateGraphsLocked returns the graphs whose ontology set covers uris,
// using the index: it scans only the graphs listed under the rarest URI.
// With no URI constraint every graph qualifies.
func (d *Directory) candidateGraphsLocked(uris []string) []*graph {
	if len(uris) == 0 {
		return d.graphs
	}
	var smallest []*graph
	for i, u := range uris {
		list, ok := d.byOntology[u]
		if !ok {
			return nil
		}
		if i == 0 || len(list) < len(smallest) {
			smallest = list
		}
	}
	out := make([]*graph, 0, len(smallest))
	for _, g := range smallest {
		if g.covers(uris) {
			out = append(out, g)
		}
	}
	return out
}

// distance wraps match.CompiledDistance and counts match operations, the
// quantity the paper's directory optimization minimizes.
//
//sdp:hotpath
func (d *Directory) distance(c1, c2 *match.Compiled) (int, bool) {
	d.matchOps.Add(1)
	return match.CompiledDistance(d.matcher, c1, c2)
}

//sdp:hotpath
func (d *Directory) matches(c1, c2 *match.Compiled) bool {
	_, ok := d.distance(c1, c2)
	return ok
}

// MatchOps returns the cumulative number of capability-level semantic
// match operations performed by the directory (insertions and queries).
func (d *Directory) MatchOps() uint64 { return d.matchOps.Load() }

// NumGraphs returns the number of capability graphs.
func (d *Directory) NumGraphs() int {
	return len(d.snap.Load().graphs)
}

// NumCapabilities returns the number of stored advertisements (entries).
func (d *Directory) NumCapabilities() int {
	return d.snap.Load().stats.Entries
}

// Services returns the sorted names of registered services.
func (d *Directory) Services() []string {
	return append([]string(nil), d.snap.Load().services...)
}

// Register classifies every provided capability of the service into the
// directory's graphs (the paper's "adding a new service advertisement").
// Re-registering a service name replaces its previous advertisement, so
// periodic re-publication after directory churn stays idempotent.
func (d *Directory) Register(s *profile.Service) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidCapability, err)
	}
	start := time.Now()
	opsBefore := d.matchOps.Load()
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.byService[s.Name]; ok {
		delete(d.byService, s.Name)
		for _, e := range old {
			d.removeEntryLocked(e)
		}
	}
	ts := match.Tables(d.matcher)
	for _, c := range s.Provided {
		e := newEntry(ts, s, c)
		d.insertLocked(e)
		d.byService[s.Name] = append(d.byService[s.Name], e)
	}
	d.publishLocked()
	match.CountOps(d.matcher, d.matchOps.Load()-opsBefore)
	insertSeconds.ObserveSince(start)
	return nil
}

// insert classifies one entry. Candidate graphs are those whose ontology
// index covers the capability's ontologies; the first graph where the
// capability relates to existing vertices receives it, otherwise a new
// graph is created (capabilities unrelated to everything become singleton
// graphs, preserving the "graphs contain related capabilities" invariant).
func (d *Directory) insertLocked(e *Entry) {
	uris := e.Capability.Ontologies()
	for _, g := range d.candidateGraphsLocked(uris) {
		if d.insertIntoGraphLocked(g, e) {
			return
		}
	}
	// No graph accepted the capability: start a new one.
	g := newGraph()
	v := &vertex{rep: e.compiled, entries: []*Entry{e}, preds: map[*vertex]struct{}{}, succs: map[*vertex]struct{}{}}
	g.vertices[v] = struct{}{}
	g.roots[v] = struct{}{}
	g.leaves[v] = struct{}{}
	d.graphs = append(d.graphs, g)
	d.indexGraphLocked(g, uris)
	d.markDirtyLocked(g)
	graphsGauge.Add(1)
	verticesGauge.Add(1)
	entriesGauge.Add(1)
	insertDepth.ObserveInt(0)
}

// insertIntoGraphLocked tries to place the entry inside g. It returns false when
// the capability is unrelated to every vertex of g.
//
// The matching region M = {V : Match(V, C)} is explored top-down from the
// matching roots (M is downward-closed along edges into it); the region
// S = {V : Match(C, V)} is explored bottom-up from the matching leaves.
// Parents of C are the minimal frontier of M, children the maximal
// frontier of S — a robust completion of the paper's root/leaf probing
// algorithm.
func (d *Directory) insertIntoGraphLocked(g *graph, e *Entry) bool {
	c := &e.compiled

	// M: vertices that subsume C (can substitute for C).
	m := make(map[*vertex]struct{})
	var frontier []*vertex
	for r := range g.roots {
		if d.matches(&r.rep, c) {
			m[r] = struct{}{}
			frontier = append(frontier, r)
		}
	}
	depth := 0
	for len(frontier) > 0 {
		var next []*vertex
		for _, v := range frontier {
			for s := range v.succs {
				if _, seen := m[s]; seen {
					continue
				}
				if d.matches(&s.rep, c) {
					m[s] = struct{}{}
					next = append(next, s)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}

	// S: vertices that C subsumes.
	sset := make(map[*vertex]struct{})
	frontier = frontier[:0]
	for l := range g.leaves {
		if d.matches(c, &l.rep) {
			sset[l] = struct{}{}
			frontier = append(frontier, l)
		}
	}
	for len(frontier) > 0 {
		var next []*vertex
		for _, v := range frontier {
			for p := range v.preds {
				if _, seen := sset[p]; seen {
					continue
				}
				if d.matches(c, &p.rep) {
					sset[p] = struct{}{}
					next = append(next, p)
				}
			}
		}
		frontier = next
	}

	if len(m) == 0 && len(sset) == 0 {
		return false
	}

	// Mutual match: join the existing equivalence vertex. Transitivity
	// guarantees at most one vertex sits in both regions.
	for v := range m {
		if _, both := sset[v]; both {
			v.entries = append(v.entries, e)
			d.indexGraphLocked(g, e.Capability.Ontologies())
			d.markDirtyLocked(g)
			entriesGauge.Add(1)
			insertDepth.ObserveInt(int64(depth))
			return true
		}
	}

	// Parents: minimal frontier of M (no successor also in M).
	parents := make([]*vertex, 0, len(m))
	for v := range m {
		minimal := true
		for s := range v.succs {
			if _, ok := m[s]; ok {
				minimal = false
				break
			}
		}
		if minimal {
			parents = append(parents, v)
		}
	}
	// Children: maximal frontier of S (no predecessor also in S).
	children := make([]*vertex, 0, len(sset))
	for v := range sset {
		maximal := true
		for p := range v.preds {
			if _, ok := sset[p]; ok {
				maximal = false
				break
			}
		}
		if maximal {
			children = append(children, v)
		}
	}

	nv := &vertex{rep: e.compiled, entries: []*Entry{e}, preds: map[*vertex]struct{}{}, succs: map[*vertex]struct{}{}}
	g.vertices[nv] = struct{}{}
	edgeDelta := 0
	for _, p := range parents {
		// Drop direct edges p→child that the new vertex now mediates.
		for _, ch := range children {
			if _, ok := p.succs[ch]; ok {
				delete(p.succs, ch)
				delete(ch.preds, p)
				edgeDelta--
			}
		}
		p.succs[nv] = struct{}{}
		nv.preds[p] = struct{}{}
		edgeDelta++
		delete(g.leaves, p)
	}
	for _, ch := range children {
		nv.succs[ch] = struct{}{}
		ch.preds[nv] = struct{}{}
		edgeDelta++
		delete(g.roots, ch)
	}
	if len(parents) == 0 {
		g.roots[nv] = struct{}{}
	}
	if len(children) == 0 {
		g.leaves[nv] = struct{}{}
	}
	d.indexGraphLocked(g, e.Capability.Ontologies())
	d.markDirtyLocked(g)
	verticesGauge.Add(1)
	entriesGauge.Add(1)
	edgesGauge.Add(int64(edgeDelta))
	insertDepth.ObserveInt(int64(depth))
	return true
}

// Deregister removes every capability advertised by the named service.
// It reports whether the service was present.
func (d *Directory) Deregister(service string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, ok := d.byService[service]
	if !ok {
		return false
	}
	delete(d.byService, service)
	for _, e := range entries {
		d.removeEntryLocked(e)
	}
	d.publishLocked()
	return true
}

// removeEntryLocked drops one entry; vertices left without entries are removed
// and their predecessors reconnected to their successors.
func (d *Directory) removeEntryLocked(e *Entry) {
	for gi, g := range d.graphs {
		for v := range g.vertices {
			idx := -1
			for i, ve := range v.entries {
				if ve == e {
					idx = i
					break
				}
			}
			if idx < 0 {
				continue
			}
			v.entries = append(v.entries[:idx], v.entries[idx+1:]...)
			d.markDirtyLocked(g)
			entriesGauge.Add(-1)
			if len(v.entries) > 0 {
				return
			}
			// Vertex emptied: splice it out.
			delete(g.vertices, v)
			delete(g.roots, v)
			delete(g.leaves, v)
			edgeDelta := -len(v.preds) - len(v.succs)
			for p := range v.preds {
				delete(p.succs, v)
			}
			for s := range v.succs {
				delete(s.preds, v)
			}
			for p := range v.preds {
				for s := range v.succs {
					// Reconnect unless another path already implies it.
					if _, ok := p.succs[s]; !ok {
						p.succs[s] = struct{}{}
						s.preds[p] = struct{}{}
						edgeDelta++
					}
				}
			}
			verticesGauge.Add(-1)
			edgesGauge.Add(int64(edgeDelta))
			for p := range v.preds {
				if len(p.succs) == 0 {
					g.leaves[p] = struct{}{}
				}
			}
			for s := range v.succs {
				if len(s.preds) == 0 {
					g.roots[s] = struct{}{}
				}
			}
			if len(g.vertices) == 0 {
				d.graphs = append(d.graphs[:gi], d.graphs[gi+1:]...)
				d.unindexGraphLocked(g)
				graphsGauge.Add(-1)
			}
			return
		}
	}
}

// Query returns every advertisement matching the required capability,
// sorted by ascending semantic distance (ties broken by service then
// capability name for determinism). It implements the paper's "answering
// user requests": graphs are pre-selected by ontology index, only matching
// roots are expanded, and only matching vertices are traversed.
//
// The read path is lock-free: it loads the current immutable snapshot
// and walks compiled graphs with pooled scratch, so queries never block
// writers and scale with reader parallelism. The request is interned
// once, against the matcher's current tables; stored forms interned
// against an older generation are matched by name.
func (d *Directory) Query(req *profile.Capability) []Result {
	start := time.Now()
	opsBefore := d.matchOps.Load()
	rootProbes := 0
	snap := d.snap.Load()
	creq := match.Compile(match.Tables(d.matcher), req)
	// Filter graphs by the ontologies a matching provider must use (the
	// request's outputs and properties); the request's offered inputs may
	// go unused by a provider, so their ontologies must not prune.
	uris := req.RequiredOntologies()
	var results []Result
	for _, g := range snap.candidateGraphs(uris) {
		sp := scratchFor(len(g.vertices))
		matched := *sp
		rootProbes += d.walkGraph(g, &creq, matched)
		for i := range g.vertices {
			if !matched[i] {
				continue
			}
			for _, e := range g.vertices[i].entries {
				dist, ok := d.distance(&e.compiled, &creq)
				if !ok {
					continue
				}
				// QoS constraints filter individual advertisements after
				// functional matching; they stay out of the graph order
				// because range constraints are not transitive.
				if !profile.QoSSatisfies(e.Capability, req) {
					continue
				}
				results = append(results, Result{Entry: e, Distance: dist})
			}
		}
		matchScratch.Put(sp)
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Distance != results[j].Distance {
			return results[i].Distance < results[j].Distance
		}
		if results[i].Entry.Service != results[j].Entry.Service {
			return results[i].Entry.Service < results[j].Entry.Service
		}
		return results[i].Entry.Capability.Name < results[j].Entry.Capability.Name
	})
	rootProbesTotal.Add(uint64(rootProbes))
	match.CountOps(d.matcher, d.matchOps.Load()-opsBefore)
	querySeconds.ObserveSince(start)
	return results
}

// walkGraph marks the vertices of g matching req in the caller-supplied
// scratch bitmap and returns the number of root probes. Because the
// compiled vertex slice is topologically ordered, one forward scan
// visits parents before children: a non-root vertex is probed exactly
// when some predecessor matched, which performs the same match
// operations as the paper's frontier expansion without allocating
// traversal state.
//
//sdp:hotpath
func (d *Directory) walkGraph(g *snapGraph, req *match.Compiled, matched []bool) int {
	rootProbes := 0
	for i := range g.vertices {
		v := &g.vertices[i]
		probe := v.root
		if probe {
			rootProbes++
		} else {
			for _, p := range v.preds {
				if matched[p] {
					probe = true
					break
				}
			}
		}
		matched[i] = probe && d.matches(&v.rep, req)
	}
	return rootProbes
}

// Best returns the advertisement with minimal semantic distance from the
// request, if any matches.
func (d *Directory) Best(req *profile.Capability) (Result, bool) {
	results := d.Query(req)
	if len(results) == 0 {
		return Result{}, false
	}
	return results[0], true
}

// Ontologies returns the sorted union of ontology URIs across all graphs;
// Bloom summaries (Section 4) hash over capability ontology sets, which
// this exposes for tests and diagnostics.
func (d *Directory) Ontologies() []string {
	return append([]string(nil), d.snap.Load().ontologies...)
}

// OntologyKeys returns the distinct capability ontology-set keys stored in
// the directory, the unit hashed into Bloom filters by Section 4. The key
// list is regenerated once per published snapshot (a batched write-side
// cost), so summary rebuilds on the read side are a lock-free copy.
func (d *Directory) OntologyKeys() []string {
	return append([]string(nil), d.snap.Load().ontologyKeys...)
}

// Snapshot returns a human-readable dump of the graph structure, mainly
// for debugging and the examples. It renders the current published
// snapshot, so it is safe to call concurrently with writers.
func (d *Directory) Snapshot() string {
	snap := d.snap.Load()
	var b strings.Builder
	for i, g := range snap.graphs {
		fmt.Fprintf(&b, "graph %d (ontologies: %s)\n", i, strings.Join(g.ontologies, ", "))
		order := make([]int, len(g.vertices))
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, c int) bool {
			return g.vertices[order[a]].rep.Capability().Name < g.vertices[order[c]].rep.Capability().Name
		})
		for _, j := range order {
			v := &g.vertices[j]
			names := make([]string, 0, len(v.entries))
			for _, e := range v.entries {
				names = append(names, e.String())
			}
			succs := make([]string, 0, len(v.succs))
			for _, s := range v.succs {
				succs = append(succs, g.vertices[s].rep.Capability().Name)
			}
			sort.Strings(succs)
			marker := ""
			if v.root {
				marker += " [root]"
			}
			if v.leaf {
				marker += " [leaf]"
			}
			fmt.Fprintf(&b, "  %s%s -> {%s} entries: %s\n", v.rep.Capability().Name, marker, strings.Join(succs, ", "), strings.Join(names, ", "))
		}
	}
	return b.String()
}

// checkInvariants verifies structural invariants; tests call it after
// mutation sequences. It returns a description of the first violation.
func (d *Directory) checkInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for gi, g := range d.graphs {
		// Roots/leaves bookkeeping.
		for v := range g.vertices {
			if (len(v.preds) == 0) != isIn(g.roots, v) {
				return fmt.Errorf("graph %d: root bookkeeping wrong for %s", gi, v.rep.Capability().Name)
			}
			if (len(v.succs) == 0) != isIn(g.leaves, v) {
				return fmt.Errorf("graph %d: leaf bookkeeping wrong for %s", gi, v.rep.Capability().Name)
			}
			for s := range v.succs {
				if _, ok := s.preds[v]; !ok {
					return fmt.Errorf("graph %d: asymmetric edge %s -> %s", gi, v.rep.Capability().Name, s.rep.Capability().Name)
				}
			}
			if len(v.entries) == 0 {
				return fmt.Errorf("graph %d: empty vertex %s", gi, v.rep.Capability().Name)
			}
		}
		// Acyclicity via DFS coloring.
		color := make(map[*vertex]int)
		var cyc func(v *vertex) bool
		cyc = func(v *vertex) bool {
			color[v] = 1
			for s := range v.succs {
				switch color[s] {
				case 1:
					return true
				case 0:
					if cyc(s) {
						return true
					}
				}
			}
			color[v] = 2
			return false
		}
		for v := range g.vertices {
			if color[v] == 0 && cyc(v) {
				return fmt.Errorf("graph %d: cycle detected", gi)
			}
		}
		// Edges respect Match.
		for v := range g.vertices {
			for s := range v.succs {
				if !match.Match(d.matcher, v.rep.Capability(), s.rep.Capability()) {
					return fmt.Errorf("graph %d: edge %s -> %s violates Match", gi, v.rep.Capability().Name, s.rep.Capability().Name)
				}
			}
		}
	}
	// The published snapshot must agree with the builder state: same
	// graph count and entry total, and every compiled graph genuinely
	// topologically ordered with consistent root/leaf flags.
	snap := d.snap.Load()
	if len(snap.graphs) != len(d.graphs) {
		return fmt.Errorf("snapshot has %d graphs, builder %d", len(snap.graphs), len(d.graphs))
	}
	wantEntries := 0
	for _, entries := range d.byService {
		wantEntries += len(entries)
	}
	if snap.stats.Entries != wantEntries {
		return fmt.Errorf("snapshot has %d entries, builder %d", snap.stats.Entries, wantEntries)
	}
	for gi, sg := range snap.graphs {
		if len(sg.vertices) != len(d.graphs[gi].vertices) {
			return fmt.Errorf("snapshot graph %d has %d vertices, builder %d", gi, len(sg.vertices), len(d.graphs[gi].vertices))
		}
		for i := range sg.vertices {
			v := &sg.vertices[i]
			if v.root != (len(v.preds) == 0) {
				return fmt.Errorf("snapshot graph %d: root flag wrong for %s", gi, v.rep.Capability().Name)
			}
			if v.leaf != (len(v.succs) == 0) {
				return fmt.Errorf("snapshot graph %d: leaf flag wrong for %s", gi, v.rep.Capability().Name)
			}
			for _, p := range v.preds {
				if int(p) >= i {
					return fmt.Errorf("snapshot graph %d: vertex %d not topologically after pred %d", gi, i, p)
				}
			}
		}
	}
	return nil
}

func isIn(set map[*vertex]struct{}, v *vertex) bool {
	_, ok := set[v]
	return ok
}

// Stats summarizes the directory's graph structure for diagnostics and
// capacity monitoring.
type Stats struct {
	Graphs   int
	Vertices int
	Edges    int
	Entries  int
	// MaxGraphVertices is the size of the largest graph.
	MaxGraphVertices int
	// Roots and Leaves count across all graphs.
	Roots  int
	Leaves int
}

// Stats returns the structural counters of the current published
// snapshot. The counters are precomputed at publish time, so this is a
// lock-free pointer load.
func (d *Directory) Stats() Stats {
	return d.snap.Load().stats
}
