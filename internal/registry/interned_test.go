package registry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// refMatcher hides a CodeMatcher behind a plain ConceptMatcher, so a
// directory over it cannot intern and matches every concept pair by
// name: the reference the interned path must reproduce.
type refMatcher struct{ m *match.CodeMatcher }

func (r refMatcher) Distance(a, b ontology.Ref) (int, bool) { return r.m.Distance(a, b) }

type hit struct {
	Service, Capability string
	Distance            int
}

func hits(rs []Result) []hit {
	out := make([]hit, len(rs))
	for i, r := range rs {
		out[i] = hit{r.Entry.Service, r.Entry.Capability.Name, r.Distance}
	}
	return out
}

const equivURI = "http://equiv.example/ont"

// equivOntology declares equivalent class names (Movie ≡ Film), which
// intern to one concept index.
func equivOntology(version string) *ontology.Ontology {
	o := ontology.New(equivURI, version)
	for _, c := range []ontology.Class{
		{Name: "Thing"},
		{Name: "Media", SubClassOf: []string{"Thing"}},
		{Name: "Film", SubClassOf: []string{"Media"}},
		{Name: "Movie", EquivalentTo: []string{"Film"}},
		{Name: "Clip", SubClassOf: []string{"Media"}},
	} {
		o.MustAddClass(c)
	}
	return o
}

func equivRef(name string) ontology.Ref { return ontology.Ref{Ontology: equivURI, Name: name} }

// TestInternedMatchesReference is the differential test of the interned
// path. On gen workloads at several seeds, an interned Directory and
// LinearDirectory must answer every request with the same (service,
// capability, distance) list as their counterparts over refMatcher, with
// identical MatchOps counts, through every change of the code tables:
// an ontology whose table arrives after its services were registered, a
// table replaced by a new version with a different hierarchy, and a
// registration after each change. Requests include an unknown ontology
// URI, an unknown concept name and equivalent class names.
func TestInternedMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := gen.MustNewWorkload(gen.WorkloadConfig{Ontologies: 4, ClassesPerOntology: 20, Services: 60, Seed: seed})
			reg := codes.NewRegistry()
			encode := func(o *ontology.Ontology) *codes.Table {
				return codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams)
			}
			// The last generated ontology's table arrives later.
			for i := 0; i < len(w.Ontologies)-1; i++ {
				reg.Register(encode(w.Ontologies[i]))
			}
			reg.Register(encode(equivOntology("1")))
			cm := match.NewCodeMatcher(reg)
			ref := refMatcher{cm}
			dir, refDir := NewDirectory(cm), NewDirectory(ref)
			lin, refLin := NewLinearDirectory(cm), NewLinearDirectory(ref)
			register := func(s *profile.Service) {
				t.Helper()
				for _, d := range []interface{ Register(*profile.Service) error }{dir, refDir, lin, refLin} {
					if err := d.Register(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, s := range w.Services {
				register(s)
			}
			register(service("equiv-film", &profile.Capability{Name: "PlayFilm", Category: equivRef("Media"), Outputs: []ontology.Ref{equivRef("Film")}}))
			register(service("equiv-thing", &profile.Capability{Name: "PlayAny", Category: equivRef("Thing"), Outputs: []ontology.Ref{equivRef("Media")}}))

			var reqs []*profile.Capability
			for i := 0; i < len(w.Services); i += 3 {
				reqs = append(reqs, w.Request(i, i%3))
			}
			unknownURI := w.Request(1, 0)
			unknownURI.Category.Ontology = "http://unknown.example/ont"
			unknownName := w.Request(2, 0)
			unknownName.Outputs = append(unknownName.Outputs, ontology.Ref{Ontology: unknownName.Outputs[0].Ontology, Name: "NoSuchConcept"})
			reqs = append(reqs, unknownURI, unknownName,
				&profile.Capability{Name: "WantMovie", Category: equivRef("Film"), Outputs: []ontology.Ref{equivRef("Movie")}},
				&profile.Capability{Name: "WantClip", Category: equivRef("Clip"), Outputs: []ontology.Ref{equivRef("Clip")}})

			// Until a table changes under the stored graphs, the classified
			// answer also equals the linear scan's.
			matched := 0
			check := func(stage string, classifiedIsLinear bool) {
				t.Helper()
				for _, req := range reqs {
					want := hits(refDir.Query(req))
					matched += len(want)
					got := hits(dir.Query(req))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Directory.Query(%s) = %v, reference %v", stage, req.Name, got, want)
					}
					gotLin, wantLin := hits(lin.Query(req)), hits(refLin.Query(req))
					if !reflect.DeepEqual(gotLin, wantLin) {
						t.Fatalf("%s: LinearDirectory.Query(%s) = %v, reference %v", stage, req.Name, gotLin, wantLin)
					}
					if classifiedIsLinear && !reflect.DeepEqual(got, gotLin) {
						t.Fatalf("%s: classified %v, linear %v for %s", stage, got, gotLin, req.Name)
					}
				}
				if dir.MatchOps() != refDir.MatchOps() || lin.MatchOps() != refLin.MatchOps() {
					t.Fatalf("%s: MatchOps interned %d/%d, reference %d/%d", stage,
						dir.MatchOps(), lin.MatchOps(), refDir.MatchOps(), refLin.MatchOps())
				}
			}
			check("initial", true)

			reg.Register(encode(w.Ontologies[len(w.Ontologies)-1]))
			check("table added", false)
			register(w.Services[0])
			check("registered after add", false)

			changed := gen.Ontology(gen.OntologyConfig{URI: w.Ontologies[0].URI, Version: "2", Classes: 20, Seed: seed + 100})
			reg.Register(encode(changed))
			reg.Register(encode(equivOntology("2")))
			register(w.Services[1])
			check("table replaced", false)
			if matched == 0 {
				t.Fatal("no request matched anything; the comparison is vacuous")
			}
		})
	}
}

// TestQueryDuringTableChanges runs queries on a directory while its code
// tables are replaced; run it with -race. Re-registering an unchanged
// ontology must never change an answer.
func TestQueryDuringTableChanges(t *testing.T) {
	reg := codes.NewRegistry()
	media := codes.MustEncode(ontology.MustClassify(profile.MediaOntology()), codes.DefaultParams)
	reg.Register(media)
	reg.Register(codes.MustEncode(ontology.MustClassify(profile.ServersOntology()), codes.DefaultParams))
	m := match.NewCodeMatcher(reg)
	d, lin := NewDirectory(m), NewLinearDirectory(m)
	if err := d.Register(profile.WorkstationService()); err != nil {
		t.Fatal(err)
	}
	if err := lin.Register(profile.WorkstationService()); err != nil {
		t.Fatal(err)
	}
	req := profile.PDAService().Required[0]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			reg.Register(media)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, rs := range [][]Result{d.Query(req), lin.Query(req)} {
					if len(rs) != 1 || rs[0].Distance != 3 {
						t.Errorf("query during table change = %v", hits(rs))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
