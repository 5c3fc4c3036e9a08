package match

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sariadne/internal/codes"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/reasoner"
)

// fixtureMatchers returns both matcher backends loaded with the Figure 1
// fixture ontologies.
func fixtureMatchers(t testing.TB) (*HierarchyMatcher, *CodeMatcher) {
	t.Helper()
	media := profile.MediaOntology()
	servers := profile.ServersOntology()

	hm := NewHierarchyMatcher()
	for _, o := range []*ontology.Ontology{media, servers} {
		r := reasoner.NewNaive()
		if err := r.LoadOntology(o); err != nil {
			t.Fatal(err)
		}
		h, err := r.Classify()
		if err != nil {
			t.Fatal(err)
		}
		hm.Add(o.URI, h)
	}

	reg := codes.NewRegistry()
	for _, o := range []*ontology.Ontology{media, servers} {
		reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	}
	return hm, NewCodeMatcher(reg)
}

// TestFigure1WorkedExample reproduces the paper's example: the provided
// SendDigitalStream matches the requested GetVideoStream with semantic
// distance 3, and the more specific ProvideGame does not match it.
func TestFigure1WorkedExample(t *testing.T) {
	hm, cm := fixtureMatchers(t)
	provided := profile.WorkstationService()
	requested := profile.PDAService().Required[0]
	sendDigital := provided.Capability("SendDigitalStream")
	provideGame := provided.Capability("ProvideGame")

	for name, m := range map[string]ConceptMatcher{"hierarchy": hm, "codes": cm} {
		t.Run(name, func(t *testing.T) {
			if !Match(m, sendDigital, requested) {
				t.Fatal("Match(SendDigitalStream, GetVideoStream) must hold")
			}
			d, ok := SemanticDistance(m, sendDigital, requested)
			if !ok || d != 3 {
				t.Fatalf("SemanticDistance = (%d, %v), want (3, true)", d, ok)
			}
			if Match(m, provideGame, requested) {
				t.Fatal("Match(ProvideGame, GetVideoStream) must not hold")
			}
		})
	}
}

func TestMatchSelfIsZero(t *testing.T) {
	hm, cm := fixtureMatchers(t)
	caps := append(profile.WorkstationService().Provided, profile.PDAService().Required...)
	for name, m := range map[string]ConceptMatcher{"hierarchy": hm, "codes": cm} {
		for _, c := range caps {
			d, ok := SemanticDistance(m, c, c)
			if !ok || d != 0 {
				t.Errorf("%s: SemanticDistance(%s, self) = (%d, %v), want (0, true)", name, c.Name, d, ok)
			}
			if !Equivalent(m, c, c) {
				t.Errorf("%s: capability %s not equivalent to itself", name, c.Name)
			}
		}
	}
}

func TestMatchFailsAcrossOntologies(t *testing.T) {
	_, cm := fixtureMatchers(t)
	a := &profile.Capability{
		Name:     "A",
		Category: ontology.Ref{Ontology: "http://other.example/ont", Name: "Server"},
	}
	b := profile.PDAService().Required[0]
	if Match(cm, a, b) {
		t.Fatal("capabilities from unrelated ontologies must not match")
	}
}

func TestMatchMissingTable(t *testing.T) {
	cm := NewCodeMatcher(codes.NewRegistry())
	req := profile.PDAService().Required[0]
	if Match(cm, req, req) {
		t.Fatal("match must fail when no table is registered")
	}
}

func TestMatchDirectionality(t *testing.T) {
	_, cm := fixtureMatchers(t)
	// A provider expecting the more specific input must NOT match a request
	// offering only the more general concept.
	provider := &profile.Capability{
		Name:     "P",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "Server"},
		Inputs:   []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "Movie"}},
	}
	request := &profile.Capability{
		Name:     "R",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "Server"},
		Inputs:   []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "DigitalResource"}},
	}
	if Match(cm, provider, request) {
		t.Fatal("provider expecting Movie must not accept offered DigitalResource")
	}
	// The reverse direction holds: provider expects the general concept.
	if !Match(cm, request, provider) {
		t.Fatal("provider expecting DigitalResource must accept offered Movie")
	}

	// Outputs: provider offering the more general output matches a request
	// expecting the more specific one (the paper's subsumes degree).
	provOut := &profile.Capability{
		Name:     "PO",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "Server"},
		Outputs:  []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "Stream"}},
	}
	reqOut := &profile.Capability{
		Name:     "RO",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "Server"},
		Outputs:  []ontology.Ref{{Ontology: profile.MediaOntologyURI, Name: "VideoStream"}},
	}
	d, ok := SemanticDistance(cm, provOut, reqOut)
	if !ok || d != 1 {
		t.Fatalf("subsumes-degree output match = (%d, %v), want (1, true)", d, ok)
	}
	// A provider offering VideoStream does not satisfy a request expecting
	// the broader Stream under the paper's direction.
	if Match(cm, reqOut, provOut) {
		t.Fatal("provider offering VideoStream must not match request expecting Stream (paper's direction)")
	}
}

func TestMatchCategory(t *testing.T) {
	_, cm := fixtureMatchers(t)
	video := &profile.Capability{
		Name:     "V",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "VideoServer"},
	}
	game := &profile.Capability{
		Name:     "G",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "GameServer"},
	}
	digital := &profile.Capability{
		Name:     "D",
		Category: ontology.Ref{Ontology: profile.ServersOntologyURI, Name: "DigitalServer"},
	}
	if !Match(cm, digital, video) {
		t.Error("DigitalServer provider must satisfy VideoServer request")
	}
	if Match(cm, video, game) {
		t.Error("VideoServer provider must not satisfy GameServer request")
	}
	if d, _ := SemanticDistance(cm, digital, video); d != 2 {
		t.Errorf("category distance = %d, want 2", d)
	}
}

func TestExplain(t *testing.T) {
	_, cm := fixtureMatchers(t)
	provided := profile.WorkstationService().Capability("SendDigitalStream")
	requested := profile.PDAService().Required[0]

	rep := Explain(cm, provided, requested)
	if !rep.Matched || rep.Distance != 3 {
		t.Fatalf("Explain = matched=%v distance=%d, want matched,3", rep.Matched, rep.Distance)
	}
	if len(rep.Pairs) != 3 { // 1 input, 1 output, 1 property (category)
		t.Fatalf("Pairs = %v, want 3 entries", rep.Pairs)
	}
	kinds := map[string]int{}
	for _, p := range rep.Pairs {
		kinds[p.Kind]++
	}
	if kinds["input"] != 1 || kinds["output"] != 1 || kinds["property"] != 1 {
		t.Fatalf("pair kinds = %v", kinds)
	}

	// Failure case names the culprit.
	game := profile.WorkstationService().Capability("ProvideGame")
	rep = Explain(cm, game, requested)
	if rep.Matched || rep.Failed == nil {
		t.Fatalf("Explain on non-match: %+v", rep)
	}
}

func TestCheckVersions(t *testing.T) {
	_, cm := fixtureMatchers(t)
	s := profile.WorkstationService()
	s.CodeVersions = map[string]string{profile.MediaOntologyURI: "1"}
	if err := cm.CheckVersions(s); err != nil {
		t.Fatalf("CheckVersions: %v", err)
	}
	s.CodeVersions[profile.MediaOntologyURI] = "0"
	if err := cm.CheckVersions(s); err == nil {
		t.Fatal("CheckVersions accepted stale codes")
	}
	s.CodeVersions = map[string]string{"http://unknown.example": "1"}
	if err := cm.CheckVersions(s); err == nil {
		t.Fatal("CheckVersions accepted unknown ontology")
	}
}

// TestPropertyBackendsAgree: on random ontologies and random capabilities,
// the reasoner-backed and code-backed matchers agree on Match and
// SemanticDistance. This is the keystone property: it certifies that the
// paper's optimization does not change discovery semantics.
func TestPropertyBackendsAgree(t *testing.T) {
	prop := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%30) + 5
		o := ontology.New("http://rand.example/ont", "1")
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("C%03d", i)
			c := ontology.Class{Name: names[i]}
			if i > 0 {
				for j := 0; j < rng.Intn(3); j++ {
					c.SubClassOf = append(c.SubClassOf, names[rng.Intn(i)])
				}
			}
			o.MustAddClass(c)
		}

		r := reasoner.NewRule()
		if err := r.LoadOntology(o); err != nil {
			return false
		}
		h, err := r.Classify()
		if err != nil {
			return false
		}
		hm := NewHierarchyMatcher()
		hm.Add(o.URI, h)

		reg := codes.NewRegistry()
		cl, err := ontology.Classify(o)
		if err != nil {
			return false
		}
		tbl, err := codes.Encode(cl, codes.DefaultParams)
		if err != nil {
			return false
		}
		reg.Register(tbl)
		cm := NewCodeMatcher(reg)

		ref := func() ontology.Ref {
			return ontology.Ref{Ontology: o.URI, Name: names[rng.Intn(n)]}
		}
		randomCap := func(name string) *profile.Capability {
			c := &profile.Capability{Name: name, Category: ref()}
			for i := 0; i < rng.Intn(4); i++ {
				c.Inputs = append(c.Inputs, ref())
			}
			for i := 0; i < rng.Intn(4); i++ {
				c.Outputs = append(c.Outputs, ref())
			}
			for i := 0; i < rng.Intn(3); i++ {
				c.Properties = append(c.Properties, ref())
			}
			return c
		}
		for trial := 0; trial < 20; trial++ {
			c1 := randomCap("P")
			c2 := randomCap("R")
			d1, ok1 := SemanticDistance(hm, c1, c2)
			d2, ok2 := SemanticDistance(cm, c1, c2)
			if ok1 != ok2 || (ok1 && d1 != d2) {
				t.Logf("seed=%d trial=%d: hierarchy=(%d,%v) codes=(%d,%v)", seed, trial, d1, ok1, d2, ok2)
				return false
			}
			k1, k2 := Compile(Tables(cm), c1), Compile(Tables(cm), c2)
			if d3, ok3 := CompiledDistance(cm, &k1, &k2); ok3 != ok1 || d3 != d2 {
				t.Logf("seed=%d trial=%d: interned=(%d,%v) codes=(%d,%v)", seed, trial, d3, ok3, d2, ok2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExplainDegrees(t *testing.T) {
	_, cm := fixtureMatchers(t)
	provided := profile.WorkstationService().Capability("SendDigitalStream")
	requested := profile.PDAService().Required[0]

	rep := Explain(cm, provided, requested)
	if rep.Degree != DegreeInclusive {
		t.Fatalf("Degree = %q, want inclusive (distance 3)", rep.Degree)
	}
	kinds := map[string]Degree{}
	for _, p := range rep.Pairs {
		kinds[p.Kind] = p.Degree
	}
	if kinds["output"] != DegreeExact { // Stream = Stream
		t.Errorf("output degree = %q, want exact", kinds["output"])
	}
	if kinds["input"] != DegreeInclusive || kinds["property"] != DegreeInclusive {
		t.Errorf("pair degrees = %v", kinds)
	}

	// A self-match is exact throughout.
	rep = Explain(cm, requested, requested)
	if rep.Degree != DegreeExact {
		t.Fatalf("self Degree = %q, want exact", rep.Degree)
	}
	// No degree on failed matches.
	game := profile.WorkstationService().Capability("ProvideGame")
	rep = Explain(cm, game, requested)
	if rep.Matched || rep.Degree != "" {
		t.Fatalf("failed match report = %+v", rep)
	}
}

// wrapped hides a CodeMatcher behind another ConceptMatcher, like a
// counting wrapper would: it cannot intern, so it keeps the reference path.
type wrapped struct{ m *CodeMatcher }

func (w wrapped) Distance(a, b ontology.Ref) (int, bool) { return w.m.Distance(a, b) }

// TestCompiledGenerations checks when CompiledDistance may use handles:
// only for two forms interned against the same Tables generation. Forms
// from different generations, and matchers that cannot intern, answer
// through the reference path over the registry's current tables.
func TestCompiledGenerations(t *testing.T) {
	_, cm := fixtureMatchers(t)
	provided := profile.WorkstationService().Capability("SendDigitalStream")
	requested := profile.PDAService().Required[0]
	old := Tables(cm)
	p, r := Compile(old, provided), Compile(old, requested)
	if d, ok := CompiledDistance(cm, &p, &r); !ok || d != 3 {
		t.Fatalf("interned distance = (%d, %v), want (3, true)", d, ok)
	}
	if Tables(wrapped{cm}) != nil || Tables(NewHierarchyMatcher()) != nil {
		t.Fatal("only a CodeMatcher interns")
	}

	// Replace the media table with one where VideoResource is no longer
	// a DigitalResource: the provider's input stops subsuming the
	// requester's.
	media := ontology.New(profile.MediaOntologyURI, "2")
	for _, c := range profile.MediaOntology().Classes() {
		c := *c
		if c.Name == "VideoResource" {
			c.SubClassOf = []string{"Resource"}
		}
		media.MustAddClass(c)
	}
	cm.reg.Register(codes.MustEncode(ontology.MustClassify(media), codes.DefaultParams))
	if Tables(cm) == old {
		t.Fatal("Register did not publish a new generation")
	}
	want, wantOK := SemanticDistance(cm, provided, requested)
	if wantOK {
		t.Fatal("replaced hierarchy still matches; the fixture change is ineffective")
	}
	fresh := Compile(Tables(cm), requested)
	if d, ok := CompiledDistance(cm, &p, &fresh); ok != wantOK || d != want {
		t.Fatalf("mixed generations = (%d, %v), want the reference (%d, %v)", d, ok, want, wantOK)
	}
	byName := Compile(nil, requested)
	if d, ok := CompiledDistance(wrapped{cm}, &byName, &byName); !ok || d != 0 {
		t.Fatalf("reference-only form = (%d, %v), want (0, true)", d, ok)
	}
}

// TestCompiledAllocations pins the allocation budget of the interned
// path: matching allocates nothing, and compiling a capability needs one
// backing slice for all of its references.
func TestCompiledAllocations(t *testing.T) {
	_, cm := fixtureMatchers(t)
	provided := profile.WorkstationService().Capability("SendDigitalStream")
	requested := profile.PDAService().Required[0]
	ts := Tables(cm)
	p, r := Compile(ts, provided), Compile(ts, requested)
	if n := testing.AllocsPerRun(100, func() { CompiledDistance(cm, &p, &r) }); n != 0 {
		t.Errorf("CompiledDistance allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { SemanticDistance(cm, provided, requested) }); n != 0 {
		t.Errorf("SemanticDistance allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { r = Compile(ts, requested) }); n > 1 {
		t.Errorf("Compile allocates %v times, want at most 1", n)
	}
}
