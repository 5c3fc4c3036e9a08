package discovery

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sariadne/internal/codes"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
)

// fixtureRegistry encodes the Figure 1 ontologies.
func fixtureRegistry(t testing.TB) *codes.Registry {
	t.Helper()
	reg := codes.NewRegistry()
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		reg.Register(codes.MustEncode(ontology.MustClassify(o), codes.DefaultParams))
	}
	return reg
}

func workstationDoc(t testing.TB) []byte {
	t.Helper()
	doc, err := profile.Marshal(profile.WorkstationService())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func pdaRequestDoc(t testing.TB) []byte {
	t.Helper()
	doc, err := profile.Marshal(profile.PDAService())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestSemanticBackendRegisterQuery(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if b.Name() != "s-ariadne" {
		t.Fatalf("Name = %q", b.Name())
	}
	name, err := b.Register(workstationDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if name != "MediaWorkstation" {
		t.Fatalf("name = %q", name)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 capabilities", b.Len())
	}

	hits, err := b.Query(pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Capability != "SendDigitalStream" || hits[0].Distance != 3 {
		t.Fatalf("hits = %v", hits)
	}
	if s := hits[0].String(); !strings.Contains(s, "SendDigitalStream") {
		t.Errorf("Hit.String = %q", s)
	}
}

func TestSemanticBackendRejects(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if _, err := b.Register([]byte("garbage")); err == nil {
		t.Fatal("registered garbage")
	}
	if _, err := b.Query([]byte("garbage")); err == nil {
		t.Fatal("queried garbage")
	}
	// A request with no required capability is an error.
	doc, err := profile.Marshal(profile.WorkstationService())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query(doc); err == nil {
		t.Fatal("accepted request without required capabilities")
	}
	if _, err := b.RequestKey(doc); err == nil {
		t.Fatal("RequestKey accepted request without required capabilities")
	}
	// Stale code versions are refused at publication (Section 3.2).
	svc := profile.WorkstationService()
	svc.CodeVersions = map[string]string{profile.MediaOntologyURI: "99"}
	stale, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register(stale); err == nil {
		t.Fatal("accepted stale code versions")
	}
}

func TestSemanticBackendSubset(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	req := profile.PDAService()
	second := req.Required[0].Clone()
	second.Name = "GetSecondStream"
	req.Required = append(req.Required, second)
	doc, err := profile.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// A trailing newline, which Marshal does not write, tells a returned
	// input apart from a re-encoding.
	doc = append(doc, '\n')
	first := req.Required[0].Name

	// Nothing dropped: the input bytes come back unchanged.
	all, err := b.Subset(doc, []string{second.Name, first})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, doc) {
		t.Fatalf("full subset = %s, want the input unchanged", all)
	}

	// A real subset re-encodes the request with only the named capability.
	part, err := b.Subset(doc, []string{second.Name})
	if err != nil {
		t.Fatal(err)
	}
	names, err := b.RequiredNames(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != second.Name {
		t.Fatalf("subset keeps %v, want [%s]", names, second.Name)
	}

	if _, err := b.Subset(doc, []string{"Unknown"}); !errors.Is(err, ErrNoRequiredCapability) {
		t.Fatalf("empty subset: err = %v, want ErrNoRequiredCapability", err)
	}
}

func TestSemanticBackendDeregister(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if _, err := b.Register(workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	if !b.Deregister("MediaWorkstation") {
		t.Fatal("Deregister failed")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after deregister", b.Len())
	}
	hits, err := b.Query(pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("hits after deregister = %v", hits)
	}
}

func TestSemanticBackendKeys(t *testing.T) {
	b := NewSemanticBackend(fixtureRegistry(t))
	if _, err := b.Register(workstationDoc(t)); err != nil {
		t.Fatal(err)
	}
	keys := b.Keys()
	if len(keys) != 1 {
		t.Fatalf("Keys = %v", keys)
	}
	reqKey, err := b.RequestKey(pdaRequestDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if reqKey != keys[0] {
		t.Fatalf("request key %q != stored key %q", reqKey, keys[0])
	}
	name, err := b.ServiceName(workstationDoc(t))
	if err != nil || name != "MediaWorkstation" {
		t.Fatalf("ServiceName = %q, %v", name, err)
	}
	if _, err := b.ServiceName([]byte("zz")); err == nil {
		t.Fatal("ServiceName accepted garbage")
	}
}
