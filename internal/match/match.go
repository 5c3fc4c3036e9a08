// Package match implements the paper's capability matching relation
// (Section 2.3): Match(C1, C2) decides whether provided capability C1 can
// substitute for required capability C2, and SemanticDistance(C1, C2)
// scores how far apart the two are in ontology levels, which ranks
// candidate advertisements.
//
// Concept-level subsumption and level distances are obtained through a
// ConceptMatcher, with two interchangeable backends: one backed by an
// online reasoner hierarchy (expensive, Figure 2's baseline) and one backed
// by encoded code tables (numeric comparisons only, the paper's
// optimization).
//
// # Direction of the relation
//
// Match(C1, C2) holds when:
//
//   - every input expected by C1 is matched by an input offered by C2,
//     where the expected (more general) concept must subsume the offered
//     one: d(in′, in) ≥ 0 for in′ ∈ C1.In, in ∈ C2.In;
//   - every output expected by C2 is matched by an output offered by C1,
//     where the offered concept must subsume the expected one:
//     d(out, out′) ≥ 0 for out ∈ C1.Out, out′ ∈ C2.Out (the paper's own
//     direction, after Paolucci et al.'s "subsumes" degree); and
//   - every property required by C2 (including the service category) is
//     matched by a provided property of C1 that subsumes it.
//
// Note on fidelity: the paper's formula prints the input condition as
// d(in, in′) ≥ 0, which makes its own worked example (Figure 1, where
// provided SendDigitalStream expects DigitalResource and requested
// GetVideoStream offers the more specific VideoResource, yet
// SemanticDistance = 3) unsatisfiable; we use the direction under which the
// worked example holds and reproduce its distance of 3 exactly.
package match

import (
	"errors"
	"fmt"

	"sariadne/internal/codes"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/reasoner"
)

// ErrNoTable is returned by CodeMatcher when a referenced ontology has no
// registered code table.
var ErrNoTable = errors.New("match: no code table for ontology")

// ConceptMatcher answers the paper's d(a, b) over fully qualified concept
// references: the number of hierarchy levels from a down to b when a
// subsumes b, and ok=false (NULL) otherwise.
type ConceptMatcher interface {
	Distance(a, b ontology.Ref) (int, bool)
}

// HierarchyMatcher is a ConceptMatcher backed by online reasoner results,
// one Hierarchy per ontology URI. It represents the unoptimized semantic
// matching whose cost Figure 2 reports.
type HierarchyMatcher struct {
	hierarchies map[string]reasoner.Hierarchy
}

// NewHierarchyMatcher returns an empty HierarchyMatcher. Add populates it.
func NewHierarchyMatcher() *HierarchyMatcher {
	return &HierarchyMatcher{hierarchies: make(map[string]reasoner.Hierarchy)}
}

// Add registers the classified hierarchy for an ontology URI.
func (m *HierarchyMatcher) Add(uri string, h reasoner.Hierarchy) {
	m.hierarchies[uri] = h
}

// Distance implements ConceptMatcher. Concepts from different ontologies
// never match (the paper matches concept pairs within shared ontologies).
func (m *HierarchyMatcher) Distance(a, b ontology.Ref) (int, bool) {
	if a.Ontology != b.Ontology {
		return 0, false
	}
	h, ok := m.hierarchies[a.Ontology]
	if !ok {
		return 0, false
	}
	return h.Distance(a.Name, b.Name)
}

// CodeMatcher is a ConceptMatcher backed by encoded code tables: every
// distance query reduces to numeric interval comparisons plus a
// precomputed level lookup. This is the paper's optimized matcher.
type CodeMatcher struct {
	reg *codes.Registry
}

// NewCodeMatcher returns a CodeMatcher over the given table registry.
func NewCodeMatcher(reg *codes.Registry) *CodeMatcher {
	return &CodeMatcher{reg: reg}
}

// Distance implements ConceptMatcher.
//
//sdp:hotpath
func (m *CodeMatcher) Distance(a, b ontology.Ref) (int, bool) {
	if a.Ontology != b.Ontology {
		return 0, false
	}
	t, ok := m.reg.Resolve(a.Ontology)
	if !ok {
		return 0, false
	}
	return t.Distance(a.Name, b.Name)
}

// CheckVersions verifies that a service description's embedded code
// versions agree with the registry's tables, per the consistency rule of
// Section 3.2. Descriptions without embedded versions pass vacuously.
func (m *CodeMatcher) CheckVersions(s *profile.Service) error {
	for uri, version := range s.CodeVersions {
		if _, err := m.reg.ResolveVersion(uri, version); err != nil {
			return fmt.Errorf("service %q: %w", s.Name, err)
		}
	}
	return nil
}

var (
	_ ConceptMatcher = (*HierarchyMatcher)(nil)
	_ ConceptMatcher = (*CodeMatcher)(nil)
)

// Compiled is a capability with its concept references interned against
// one codes.Tables generation, so that matching it compares table
// pointers, concept indices and intervals instead of hashing names.
// Compiled forms are immutable; a directory builds them once per stored
// capability and once per request.
type Compiled struct {
	cap *profile.Capability
	// tables is the generation the handles were interned against; nil
	// when the capability's matcher cannot intern, so only the reference
	// path over cap applies.
	tables *codes.Tables
	c      concepts[codes.Concept]
}

// Capability returns the capability the form was compiled from.
func (c *Compiled) Capability() *profile.Capability { return c.cap }

// Tables returns the generation m interns against: the current tables of
// a CodeMatcher's registry. It is nil for every other matcher, including
// wrappers around a CodeMatcher, which then keep the reference path.
func Tables(m ConceptMatcher) *codes.Tables {
	if cm, ok := m.(*CodeMatcher); ok {
		return cm.reg.Tables()
	}
	return nil
}

// Compile interns c's concept references against ts, in one backing
// slice for all of them. With ts nil the form carries c alone.
func Compile(ts *codes.Tables, c *profile.Capability) Compiled {
	out := Compiled{cap: c, tables: ts}
	if ts == nil {
		return out
	}
	all := make([]codes.Concept, 0, len(c.Inputs)+len(c.Outputs)+len(c.Properties))
	intern := func(refs []ontology.Ref) []codes.Concept {
		start := len(all)
		for _, r := range refs {
			all = append(all, ts.Intern(r))
		}
		return all[start:len(all):len(all)]
	}
	out.c = concepts[codes.Concept]{
		category:   ts.Intern(c.Category),
		inputs:     intern(c.Inputs),
		outputs:    intern(c.Outputs),
		properties: intern(c.Properties),
	}
	return out
}

// interned is the distancer over handles from one generation.
type interned struct{}

// Distance implements distancer.
//
//sdp:hotpath
func (interned) Distance(a, b codes.Concept) (int, bool) {
	return codes.ConceptDistance(a, b)
}

// CompiledDistance is SemanticDistance(m, c1.Capability(), c2.Capability()).
// When both forms were interned against the same generation it runs the
// matching rules over their handles; otherwise, or when m cannot intern,
// it takes the reference path through m, so handles from different
// generations are never compared.
//
//sdp:hotpath
func CompiledDistance(m ConceptMatcher, c1, c2 *Compiled) (int, bool) {
	if c1.tables != nil && c1.tables == c2.tables {
		return semanticDistance[codes.Concept](interned{}, &c1.c, &c2.c)
	}
	return SemanticDistance(m, c1.cap, c2.cap)
}

// Match reports whether provided capability c1 can substitute for required
// capability c2 under the relation described in the package comment.
//
//sdp:hotpath
func Match(m ConceptMatcher, c1, c2 *profile.Capability) bool {
	_, ok := SemanticDistance(m, c1, c2)
	return ok
}

// SemanticDistance returns the paper's capability-level distance: the sum,
// over every matched concept pair, of the concept-level distance, choosing
// for each required element the offered counterpart with minimal distance.
// ok is false when Match(c1, c2) does not hold.
//
//sdp:hotpath
func SemanticDistance(m ConceptMatcher, c1, c2 *profile.Capability) (int, bool) {
	a, b := refsOf(c1), refsOf(c2)
	return semanticDistance[ontology.Ref](m, &a, &b)
}

// distancer answers d(a, b) over one concept representation: qualified
// references (ConceptMatcher) or interned handles (interned).
type distancer[C any] interface {
	Distance(a, b C) (int, bool)
}

// concepts holds the concept references of one capability in
// representation C; the matching rules below read nothing else.
type concepts[C any] struct {
	category   C
	inputs     []C
	outputs    []C
	properties []C
}

// refsOf views a capability's references without copying them.
func refsOf(c *profile.Capability) concepts[ontology.Ref] {
	return concepts[ontology.Ref]{category: c.Category, inputs: c.Inputs, outputs: c.Outputs, properties: c.Properties}
}

// semanticDistance is the one body of the matching rules, shared by the
// reference path over qualified names and the interned path.
//
//sdp:hotpath
func semanticDistance[C any, M distancer[C]](m M, c1, c2 *concepts[C]) (int, bool) {
	total := 0

	// Inputs: every input expected by the provider c1 must subsume an
	// input offered by the requester c2.
	for _, expected := range c1.inputs {
		d, ok := bestDistanceFrom(m, expected, c2.inputs)
		if !ok {
			return 0, false
		}
		total += d
	}
	// Outputs: every output expected by the requester c2 must be matched
	// by a (possibly more general) output offered by the provider c1.
	for _, expected := range c2.outputs {
		d, ok := bestDistanceTo(m, c1.outputs, expected)
		if !ok {
			return 0, false
		}
		total += d
	}
	// Properties (service category and any additional properties): every
	// property required by c2 must be matched by a provided property of c1
	// that subsumes it; the direction mirrors the category example of
	// Figure 1 (provided DigitalServer subsumes required VideoServer).
	// Iterated without materializing PropertySet: this path runs once per
	// visited vertex of every directory query.
	d, ok := bestPropertyDistance(m, c1, c2.category)
	if !ok {
		return 0, false
	}
	total += d
	for _, required := range c2.properties {
		d, ok := bestPropertyDistance(m, c1, required)
		if !ok {
			return 0, false
		}
		total += d
	}
	return total, true
}

// bestPropertyDistance finds min d(p, to) over c1's category and extra
// properties.
//
//sdp:hotpath
func bestPropertyDistance[C any, M distancer[C]](m M, c1 *concepts[C], to C) (int, bool) {
	best, found := 0, false
	if d, ok := m.Distance(c1.category, to); ok {
		best, found = d, true
	}
	for _, p := range c1.properties {
		if d, ok := m.Distance(p, to); ok && (!found || d < best) {
			best, found = d, true
		}
	}
	return best, found
}

// bestDistanceFrom finds min d(from, cand) over candidates.
//
//sdp:hotpath
func bestDistanceFrom[C any, M distancer[C]](m M, from C, candidates []C) (int, bool) {
	best, found := 0, false
	for _, cand := range candidates {
		if d, ok := m.Distance(from, cand); ok && (!found || d < best) {
			best, found = d, true
		}
	}
	return best, found
}

// bestDistanceTo finds min d(cand, to) over candidates.
//
//sdp:hotpath
func bestDistanceTo[C any, M distancer[C]](m M, candidates []C, to C) (int, bool) {
	best, found := 0, false
	for _, cand := range candidates {
		if d, ok := m.Distance(cand, to); ok && (!found || d < best) {
			best, found = d, true
		}
	}
	return best, found
}

// Degree classifies a match following the vocabulary of the paper's
// companion work ([9], Ben Mokhtar et al., WS-MATE 2006, after Paolucci et
// al.): Exact when the concepts (or whole capabilities) coincide
// semantically, Inclusive when the provider is strictly more general.
type Degree string

// Degrees.
const (
	// DegreeExact: semantic distance zero.
	DegreeExact Degree = "exact"
	// DegreeInclusive: the provided concept strictly subsumes the
	// required one (the paper's "subsumes" degree).
	DegreeInclusive Degree = "inclusive"
)

// degreeOf maps a concept distance to its degree.
func degreeOf(d int) Degree {
	if d == 0 {
		return DegreeExact
	}
	return DegreeInclusive
}

// PairReport details one matched concept pair for diagnostics.
type PairReport struct {
	Kind     string // "input", "output" or "property"
	Required ontology.Ref
	Matched  ontology.Ref
	Distance int
	Degree   Degree
}

// Report is a full explanation of a capability match attempt.
type Report struct {
	Matched  bool
	Distance int
	// Degree is DegreeExact when every pair matched exactly, otherwise
	// DegreeInclusive; empty when Matched is false.
	Degree Degree
	Pairs  []PairReport
	// Failed identifies the first unmatched element when Matched is false.
	Failed *PairReport
}

// Explain evaluates Match(c1, c2) and returns a detailed report, pairing
// every required element with the counterpart that minimized its distance.
func Explain(m ConceptMatcher, c1, c2 *profile.Capability) Report {
	var rep Report
	fail := func(kind string, req ontology.Ref) Report {
		rep.Failed = &PairReport{Kind: kind, Required: req}
		rep.Matched = false
		return rep
	}
	for _, expected := range c1.Inputs {
		ref, d, ok := bestPairFrom(m, expected, c2.Inputs)
		if !ok {
			return fail("input", expected)
		}
		rep.Pairs = append(rep.Pairs, PairReport{Kind: "input", Required: expected, Matched: ref, Distance: d, Degree: degreeOf(d)})
		rep.Distance += d
	}
	for _, expected := range c2.Outputs {
		ref, d, ok := bestPairTo(m, c1.Outputs, expected)
		if !ok {
			return fail("output", expected)
		}
		rep.Pairs = append(rep.Pairs, PairReport{Kind: "output", Required: expected, Matched: ref, Distance: d, Degree: degreeOf(d)})
		rep.Distance += d
	}
	for _, required := range c2.PropertySet() {
		ref, d, ok := bestPairTo(m, c1.PropertySet(), required)
		if !ok {
			return fail("property", required)
		}
		rep.Pairs = append(rep.Pairs, PairReport{Kind: "property", Required: required, Matched: ref, Distance: d, Degree: degreeOf(d)})
		rep.Distance += d
	}
	rep.Matched = true
	rep.Degree = degreeOf(rep.Distance)
	return rep
}

func bestPairFrom(m ConceptMatcher, from ontology.Ref, candidates []ontology.Ref) (ontology.Ref, int, bool) {
	var bestRef ontology.Ref
	best, found := 0, false
	for _, cand := range candidates {
		if d, ok := m.Distance(from, cand); ok && (!found || d < best) {
			best, bestRef, found = d, cand, true
		}
	}
	return bestRef, best, found
}

func bestPairTo(m ConceptMatcher, candidates []ontology.Ref, to ontology.Ref) (ontology.Ref, int, bool) {
	var bestRef ontology.Ref
	best, found := 0, false
	for _, cand := range candidates {
		if d, ok := m.Distance(cand, to); ok && (!found || d < best) {
			best, bestRef, found = d, cand, true
		}
	}
	return bestRef, best, found
}

// Equivalent reports whether the two capabilities match in both directions
// with zero distance — the paper's condition for representing them by a
// single vertex in a capability graph (Section 3.3).
func Equivalent(m ConceptMatcher, c1, c2 *profile.Capability) bool {
	d1, ok1 := SemanticDistance(m, c1, c2)
	if !ok1 || d1 != 0 {
		return false
	}
	d2, ok2 := SemanticDistance(m, c2, c1)
	return ok2 && d2 == 0
}
