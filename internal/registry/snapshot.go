// Snapshot read path: the directory publishes an immutable, compiled
// view of its graphs through an atomic pointer, so queries never take a
// lock. Writers (Register/Deregister) serialize on Directory.mu, mutate
// the builder-side graph structures, recompile only the graphs they
// touched (copy-on-write at graph granularity), and publish a fresh
// snapshot with a single atomic store.
//
// The publish invariant: every object reachable from a published
// *snapshot is never written again. The //sdp:immutable annotations
// below make the immutcheck analyzer enforce that mechanically — any
// field write outside a new*/make*/clone* construction function is a
// lint error, so the lock-free readers stay sound by construction.
package registry

import (
	"sort"
	"sync"

	"sariadne/internal/match"
)

// snapVertex is the compiled form of one graph vertex. Predecessors and
// successors are indices into the owning snapGraph's vertex slice.
//
//sdp:immutable
type snapVertex struct {
	rep     match.Compiled
	entries []*Entry
	// preds indices are all smaller than this vertex's own index: the
	// owning snapGraph stores vertices in topological order, which is
	// what lets the query walk visit parents before children in one
	// forward scan.
	preds []int32
	succs []int32
	root  bool
	leaf  bool
}

// snapGraph is the compiled, immutable form of one capability DAG.
//
//sdp:immutable
type snapGraph struct {
	// vertices is topologically ordered: every predecessor of
	// vertices[i] has an index < i.
	vertices []snapVertex
	// ontologies is the sorted union of ontology URIs used by member
	// capabilities; ontoSet is the same set keyed for covers().
	ontologies []string
	ontoSet    map[string]struct{}
	edges      int
	entries    int
	roots      int
	leaves     int
}

// covers reports whether the graph's ontology set contains every URI the
// capability uses — the paper's graph pre-selection index.
func (g *snapGraph) covers(uris []string) bool {
	for _, u := range uris {
		if _, ok := g.ontoSet[u]; !ok {
			return false
		}
	}
	return true
}

// snapshot is one published, immutable view of the whole directory.
// Readers load it from Directory.snap and use it without locks.
//
//sdp:immutable
type snapshot struct {
	graphs []*snapGraph
	// byOntology indexes graphs by the ontology URIs they contain, so
	// query-time graph pre-selection does not scan every graph.
	byOntology map[string][]*snapGraph
	byService  map[string][]*Entry
	// services, ontologies and ontologyKeys are precomputed sorted, so
	// the corresponding reader methods are allocation-plus-copy only.
	// ontologyKeys in particular is the unit hashed into the Section 4
	// Bloom summaries: regenerating it here, once per batched publish,
	// replaces the per-query scan over every stored entry.
	services     []string
	ontologies   []string
	ontologyKeys []string
	stats        Stats
}

// candidateGraphs returns the graphs whose ontology set covers uris,
// using the index: it scans only the graphs listed under the rarest URI.
// With no URI constraint every graph qualifies.
func (s *snapshot) candidateGraphs(uris []string) []*snapGraph {
	if len(uris) == 0 {
		return s.graphs
	}
	var smallest []*snapGraph
	for i, u := range uris {
		list, ok := s.byOntology[u]
		if !ok {
			return nil
		}
		if i == 0 || len(list) < len(smallest) {
			smallest = list
		}
	}
	out := make([]*snapGraph, 0, len(smallest))
	for _, g := range smallest {
		if g.covers(uris) {
			out = append(out, g)
		}
	}
	return out
}

// newSnapGraph compiles one builder graph into its immutable form. The
// vertex order is a deterministic topological sort (lexicographic by
// representative capability name among ready vertices), so snapshots of
// the same graph are structurally identical across publishes.
func newSnapGraph(g *graph) *snapGraph {
	verts := make([]*vertex, 0, len(g.vertices))
	for v := range g.vertices {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i].rep.Capability().Name < verts[j].rep.Capability().Name })

	remaining := make(map[*vertex]int, len(verts))
	for _, v := range verts {
		remaining[v] = len(v.preds)
	}
	order := make([]*vertex, 0, len(verts))
	placed := make(map[*vertex]bool, len(verts))
	for len(order) < len(verts) {
		advanced := false
		for _, v := range verts {
			if placed[v] || remaining[v] != 0 {
				continue
			}
			placed[v] = true
			order = append(order, v)
			for s := range v.succs {
				remaining[s]--
			}
			advanced = true
			break
		}
		if !advanced {
			// A cycle would violate the DAG invariant; degrade to name
			// order rather than spin (checkInvariants reports the cycle).
			for _, v := range verts {
				if !placed[v] {
					placed[v] = true
					order = append(order, v)
				}
			}
		}
	}

	idx := make(map[*vertex]int32, len(order))
	for i, v := range order {
		idx[v] = int32(i)
	}
	sg := &snapGraph{
		vertices:   make([]snapVertex, len(order)),
		ontologies: make([]string, 0, len(g.ontologies)),
		ontoSet:    make(map[string]struct{}, len(g.ontologies)),
	}
	for u := range g.ontologies {
		sg.ontologies = append(sg.ontologies, u)
		sg.ontoSet[u] = struct{}{}
	}
	sort.Strings(sg.ontologies)
	for i, v := range order {
		sv := snapVertex{
			// Entries are copied: the builder removes entries in place,
			// and a published snapshot must not share a backing array
			// with anything the builder will mutate.
			rep:     v.rep,
			entries: append([]*Entry(nil), v.entries...),
			root:    len(v.preds) == 0,
			leaf:    len(v.succs) == 0,
		}
		for p := range v.preds {
			sv.preds = append(sv.preds, idx[p])
		}
		for s := range v.succs {
			sv.succs = append(sv.succs, idx[s])
		}
		sort.Slice(sv.preds, func(a, b int) bool { return sv.preds[a] < sv.preds[b] })
		sort.Slice(sv.succs, func(a, b int) bool { return sv.succs[a] < sv.succs[b] })
		sg.vertices[i] = sv
		sg.edges += len(sv.succs)
		sg.entries += len(sv.entries)
		if sv.root {
			sg.roots++
		}
		if sv.leaf {
			sg.leaves++
		}
	}
	return sg
}

// newSnapshot assembles a publishable snapshot from the builder state and
// the per-graph compile cache. Caller holds d.mu.
func newSnapshot(d *Directory, compiled map[*graph]*snapGraph) *snapshot {
	s := &snapshot{
		graphs:     make([]*snapGraph, 0, len(d.graphs)),
		byOntology: make(map[string][]*snapGraph, len(d.byOntology)),
		byService:  make(map[string][]*Entry, len(d.byService)),
		services:   make([]string, 0, len(d.byService)),
	}
	for _, g := range d.graphs {
		s.graphs = append(s.graphs, compiled[g])
	}
	for u, list := range d.byOntology {
		sl := make([]*snapGraph, 0, len(list))
		for _, g := range list {
			sl = append(sl, compiled[g])
		}
		s.byOntology[u] = sl
	}
	keySet := make(map[string]struct{})
	for svc, entries := range d.byService {
		s.byService[svc] = append([]*Entry(nil), entries...)
		s.services = append(s.services, svc)
		for _, e := range entries {
			keySet[e.Capability.OntologyKey()] = struct{}{}
		}
	}
	sort.Strings(s.services)
	s.ontologyKeys = make([]string, 0, len(keySet))
	for k := range keySet {
		s.ontologyKeys = append(s.ontologyKeys, k)
	}
	sort.Strings(s.ontologyKeys)
	uriSet := make(map[string]struct{})
	for _, g := range s.graphs {
		for _, u := range g.ontologies {
			uriSet[u] = struct{}{}
		}
	}
	s.ontologies = make([]string, 0, len(uriSet))
	for u := range uriSet {
		s.ontologies = append(s.ontologies, u)
	}
	sort.Strings(s.ontologies)
	s.stats.Graphs = len(s.graphs)
	for _, g := range s.graphs {
		s.stats.Vertices += len(g.vertices)
		s.stats.Edges += g.edges
		s.stats.Entries += g.entries
		s.stats.Roots += g.roots
		s.stats.Leaves += g.leaves
		if len(g.vertices) > s.stats.MaxGraphVertices {
			s.stats.MaxGraphVertices = len(g.vertices)
		}
	}
	return s
}

// matchScratch pools the per-graph matched bitmaps used by the query
// walk, so steady-state queries allocate nothing for traversal state.
// The pool holds *[]bool (not []bool) to keep Put from boxing a fresh
// interface allocation on every cycle.
var matchScratch = sync.Pool{New: func() any { return new([]bool) }}

// scratchFor returns a pooled bool slice of length n. The contents are
// arbitrary: the topological walk assigns every index before reading it,
// so no clearing is needed.
func scratchFor(n int) *[]bool {
	sp := matchScratch.Get().(*[]bool)
	if cap(*sp) < n {
		*sp = make([]bool, n)
	}
	*sp = (*sp)[:n]
	return sp
}
