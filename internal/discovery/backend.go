// Package discovery implements the S-Ariadne service discovery protocol
// (Section 4 of the paper): a semi-distributed SDP where elected directory
// nodes cache and classify the service advertisements of their vicinity,
// summarize their content with Bloom filters, and cooperate to answer
// queries across the network — local discovery first, then selective
// forwarding to the peer directories whose summaries may cover the
// request.
//
// The protocol shell is parameterized by a Backend: the semantic backend
// (SemanticBackend, this package) classifies Amigo-S capabilities into
// graphs over encoded ontologies — S-Ariadne proper; the syntactic WSDL
// backend (package ariadne) is the paper's baseline. Figure 10 is exactly
// this pair measured against each other.
package discovery

import (
	"errors"
	"fmt"
	"sync"

	"sariadne/internal/codes"
	"sariadne/internal/match"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
)

// Backend is the pluggable directory store behind a discovery node.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Name identifies the backend for reports ("s-ariadne", "ariadne").
	Name() string
	// Register parses and stores a service advertisement document,
	// returning the service's name.
	Register(doc []byte) (string, error)
	// Deregister removes a previously registered service by name.
	Deregister(service string) bool
	// Query parses a request document and returns matching hits, best
	// first.
	Query(doc []byte) ([]Hit, error)
	// Keys returns the summary keys of the stored content — the unit
	// hashed into the directory's Bloom filter.
	Keys() []string
	// RequestKey derives the Bloom probe key for a request document.
	RequestKey(doc []byte) (string, error)
	// RequiredNames lists the required capabilities of a request document,
	// so the protocol can detect partially answered queries.
	RequiredNames(doc []byte) ([]string, error)
	// Subset rebuilds a request document keeping only the named required
	// capabilities (used when forwarding just the unresolved part of a
	// query, Figure 6 step 3).
	Subset(doc []byte, names []string) ([]byte, error)
	// Snapshot returns the original advertisement documents by service
	// name, for directory handover (a departing directory transfers its
	// cache to a peer so the vicinity keeps its advertisements).
	Snapshot() map[string][]byte
	// Len returns the number of stored advertisements.
	Len() int
}

// Hit is one discovery answer.
type Hit struct {
	// Service and Capability name the advertisement.
	Service    string
	Capability string
	// Provider is the advertised provider/host.
	Provider string
	// Distance is the semantic distance (0 for syntactic backends).
	Distance int
	// For names the required capability of the request this hit answers.
	For string
	// Directory is filled by the protocol with the answering directory.
	Directory string
}

// String renders the hit compactly.
func (h Hit) String() string {
	return fmt.Sprintf("%s/%s@%d", h.Service, h.Capability, h.Distance)
}

// ErrNoRequiredCapability is returned when a request document carries no
// required capability.
var ErrNoRequiredCapability = errors.New("discovery: request has no required capability")

// SemanticBackend is the S-Ariadne directory store: Amigo-S documents
// parsed at publication time, capabilities classified into the DAG
// registry, matching over encoded ontologies.
type SemanticBackend struct {
	dir     *registry.Directory
	matcher *match.CodeMatcher

	mu   sync.Mutex
	docs map[string][]byte
}

// NewSemanticBackend builds the backend over encoded code tables.
func NewSemanticBackend(reg *codes.Registry) *SemanticBackend {
	m := match.NewCodeMatcher(reg)
	return &SemanticBackend{
		dir:     registry.NewDirectory(m),
		matcher: m,
		docs:    make(map[string][]byte),
	}
}

// Name implements Backend.
func (b *SemanticBackend) Name() string { return "s-ariadne" }

// Register implements Backend: parse the Amigo-S document, check embedded
// code versions, classify the provided capabilities.
func (b *SemanticBackend) Register(doc []byte) (string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return "", err
	}
	if err := b.matcher.CheckVersions(svc); err != nil {
		return "", err
	}
	if err := b.dir.Register(svc); err != nil {
		return "", err
	}
	b.mu.Lock()
	b.docs[svc.Name] = append([]byte(nil), doc...)
	b.mu.Unlock()
	return svc.Name, nil
}

// Deregister implements Backend.
func (b *SemanticBackend) Deregister(service string) bool {
	b.mu.Lock()
	delete(b.docs, service)
	b.mu.Unlock()
	return b.dir.Deregister(service)
}

// Snapshot implements Backend.
func (b *SemanticBackend) Snapshot() map[string][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string][]byte, len(b.docs))
	for name, doc := range b.docs {
		out[name] = append([]byte(nil), doc...)
	}
	return out
}

// Query implements Backend: every required capability of the request
// document is resolved against the classified directory; hits are the
// union, best-first per capability.
func (b *SemanticBackend) Query(doc []byte) ([]Hit, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	reqs := svc.Required
	if len(reqs) == 0 {
		return nil, ErrNoRequiredCapability
	}
	var hits []Hit
	for _, req := range reqs {
		for _, r := range b.dir.Query(req) {
			hits = append(hits, Hit{
				Service:    r.Entry.Service,
				Capability: r.Entry.Capability.Name,
				Provider:   r.Entry.Provider,
				Distance:   r.Distance,
				For:        req.Name,
			})
		}
	}
	return hits, nil
}

// RequiredNames implements Backend.
func (b *SemanticBackend) RequiredNames(doc []byte) ([]string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	if len(svc.Required) == 0 {
		return nil, ErrNoRequiredCapability
	}
	names := make([]string, 0, len(svc.Required))
	for _, c := range svc.Required {
		names = append(names, c.Name)
	}
	return names, nil
}

// Subset implements Backend: the request document restricted to the named
// required capabilities. When that drops none, it returns doc itself
// rather than re-encoding the same service.
func (b *SemanticBackend) Subset(doc []byte, names []string) ([]byte, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	kept := svc.Required[:0]
	for _, c := range svc.Required {
		if want[c.Name] {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil, ErrNoRequiredCapability
	}
	if len(kept) == len(svc.Required) {
		return doc, nil
	}
	svc.Required = kept
	return profile.Marshal(svc)
}

// Keys implements Backend: the distinct ontology-set keys of stored
// capabilities (Section 4 hashes O(C) per capability).
func (b *SemanticBackend) Keys() []string { return b.dir.OntologyKeys() }

// RequestKey implements Backend: the ontology-set key of the first
// required capability.
func (b *SemanticBackend) RequestKey(doc []byte) (string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return "", err
	}
	if len(svc.Required) == 0 {
		return "", ErrNoRequiredCapability
	}
	return svc.Required[0].OntologyKey(), nil
}

// Len implements Backend.
func (b *SemanticBackend) Len() int { return b.dir.NumCapabilities() }

// ServiceName parses just enough of a document to name the service; the
// protocol uses it to track a node's own publications across directory
// churn.
func (b *SemanticBackend) ServiceName(doc []byte) (string, error) {
	svc, err := profile.Unmarshal(doc)
	if err != nil {
		return "", err
	}
	return svc.Name, nil
}

// Directory exposes the underlying classified directory for diagnostics
// and benchmarks.
func (b *SemanticBackend) Directory() *registry.Directory { return b.dir }

var _ Backend = (*SemanticBackend)(nil)
