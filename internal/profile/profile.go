// Package profile implements Amigo-S service descriptions (Section 2.2 of
// the paper): OWL-S-style profiles extended so that one service advertises
// several named capabilities, each a semantic concept with its own inputs,
// outputs and properties, while sharing service-level attributes.
//
// A capability's inputs, outputs, category and extra properties are
// concept references into ontologies (ontology.Ref). Descriptions travel
// as XML documents (see codec.go). The paper measures parsing them as the
// dominant cost of publication (Figures 7 and 8); here a single-pass
// scanner (scan.go) decodes the common subset of the vocabulary at a
// fraction of that cost, and encoding/xml decodes the rest.
package profile

import (
	"errors"
	"fmt"
	"sort"

	"sariadne/internal/ontology"
	"sariadne/internal/process"
)

// Validation errors.
var (
	// ErrNoName is returned when a service or capability lacks a name.
	ErrNoName = errors.New("profile: missing name")
	// ErrNoCategory is returned when a capability lacks a service category.
	ErrNoCategory = errors.New("profile: capability missing category")
	// ErrBadRef is returned when a concept reference is malformed.
	ErrBadRef = errors.New("profile: malformed concept reference")
	// ErrDuplicateCapability is returned when two capabilities of the same
	// service share a name.
	ErrDuplicateCapability = errors.New("profile: duplicate capability name")
)

// Capability is a specific functionality offered (or sought) by a service:
// the unit of advertisement, matching and discovery throughout the system.
type Capability struct {
	// Name identifies the capability within its service (e.g.
	// "GetVideoStream").
	Name string
	// Category is the service-category concept (e.g. servers#VideoServer).
	// It participates in matching as a required/provided property.
	Category ontology.Ref
	// Inputs are the concepts the capability expects (provided capability)
	// or offers (required capability).
	Inputs []ontology.Ref
	// Outputs are the concepts the capability offers (provided capability)
	// or expects (required capability).
	Outputs []ontology.Ref
	// Properties are additional semantic properties beyond the category
	// (QoS classes, context classes, ...).
	Properties []ontology.Ref
	// QoSProvided declares measured non-functional guarantees of a
	// provided capability (Amigo-S QoS-awareness).
	QoSProvided []QoSValue
	// QoSRequired declares acceptable ranges a requested capability
	// demands; see QoSSatisfies.
	QoSRequired []QoSConstraint
}

// Validate checks structural well-formedness.
func (c *Capability) Validate() error {
	if c.Name == "" {
		return ErrNoName
	}
	if c.Category.IsZero() {
		return fmt.Errorf("%w: capability %q", ErrNoCategory, c.Name)
	}
	for _, r := range c.refs() {
		if r.Ontology == "" || r.Name == "" {
			return fmt.Errorf("%w: %q in capability %q", ErrBadRef, r, c.Name)
		}
	}
	return c.validateQoS()
}

func (c *Capability) refs() []ontology.Ref {
	refs := make([]ontology.Ref, 0, 1+len(c.Inputs)+len(c.Outputs)+len(c.Properties))
	refs = append(refs, c.Category)
	refs = append(refs, c.Inputs...)
	refs = append(refs, c.Outputs...)
	refs = append(refs, c.Properties...)
	return refs
}

// PropertySet returns the capability's full property set as used by the
// matching relation: the category plus any extra properties.
func (c *Capability) PropertySet() []ontology.Ref {
	out := make([]ontology.Ref, 0, 1+len(c.Properties))
	out = append(out, c.Category)
	out = append(out, c.Properties...)
	return out
}

// Ontologies returns the sorted set of ontology URIs referenced by the
// capability. Directories index capability graphs by this set (Section
// 3.3) and hash it into Bloom filters (Section 4).
func (c *Capability) Ontologies() []string {
	seen := make(map[string]bool)
	for _, r := range c.refs() {
		if r.Ontology != "" {
			seen[r.Ontology] = true
		}
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// RequiredOntologies returns the sorted set of ontology URIs a provider
// matching this (requested) capability must itself use: the ontologies of
// the expected outputs and of the required properties (category included).
// Offered-input ontologies are excluded — a provider need not consume
// every input the requester can supply — which makes this the sound
// graph-index filter for directory queries.
func (c *Capability) RequiredOntologies() []string {
	seen := make(map[string]bool)
	for _, r := range c.Outputs {
		if r.Ontology != "" {
			seen[r.Ontology] = true
		}
	}
	for _, r := range c.PropertySet() {
		if r.Ontology != "" {
			seen[r.Ontology] = true
		}
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// OntologyKey returns the canonical string form of Ontologies, suitable as
// a map key or Bloom-filter hash input.
func (c *Capability) OntologyKey() string {
	uris := c.Ontologies()
	key := ""
	for i, u := range uris {
		if i > 0 {
			key += "\x00"
		}
		key += u
	}
	return key
}

// Clone returns a deep copy of the capability.
func (c *Capability) Clone() *Capability {
	cc := &Capability{Name: c.Name, Category: c.Category}
	cc.Inputs = append([]ontology.Ref(nil), c.Inputs...)
	cc.Outputs = append([]ontology.Ref(nil), c.Outputs...)
	cc.Properties = append([]ontology.Ref(nil), c.Properties...)
	cloneQoS(cc, c)
	return cc
}

// Equal reports whether two capabilities are structurally identical
// (order-insensitive on inputs, outputs and properties).
func (c *Capability) Equal(other *Capability) bool {
	if c.Name != other.Name || c.Category != other.Category {
		return false
	}
	return refSetEqual(c.Inputs, other.Inputs) &&
		refSetEqual(c.Outputs, other.Outputs) &&
		refSetEqual(c.Properties, other.Properties) &&
		qosEqual(c, other)
}

func refSetEqual(a, b []ontology.Ref) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]ontology.Ref(nil), a...)
	bs := append([]ontology.Ref(nil), b...)
	ontology.SortRefs(as)
	ontology.SortRefs(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// String renders a compact one-line summary.
func (c *Capability) String() string {
	return fmt.Sprintf("%s[cat=%s in=%d out=%d]", c.Name, c.Category.Name, len(c.Inputs), len(c.Outputs))
}

// Service is an Amigo-S service description: shared attributes plus the
// capabilities the service provides and the capabilities it requires from
// peers (enabling peer-to-peer composition, Section 2.2).
type Service struct {
	// Name identifies the service.
	Name string
	// Provider describes the providing party or device.
	Provider string
	// CodeVersions records, per ontology URI, the code-table version the
	// description's embedded codes were generated against (Section 3.2's
	// versioning rule). Empty when the description carries no codes.
	CodeVersions map[string]string
	// Provided lists capabilities the service offers.
	Provided []*Capability
	// Required lists capabilities the service needs from the network.
	Required []*Capability
	// Process is the optional conversation model (OWL-S process model,
	// Section 2.1): a tree of sequence/parallel/choice constructs over
	// invocations of the Required capabilities.
	Process *process.Node
}

// Validate checks the service and all its capabilities.
func (s *Service) Validate() error {
	if s.Name == "" {
		return ErrNoName
	}
	seen := make(map[string]bool)
	for _, c := range append(append([]*Capability(nil), s.Provided...), s.Required...) {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("service %q: %w", s.Name, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: %q in service %q", ErrDuplicateCapability, c.Name, s.Name)
		}
		seen[c.Name] = true
	}
	if s.Process != nil {
		known := make(map[string]bool, len(s.Required))
		for _, c := range s.Required {
			known[c.Name] = true
		}
		if err := s.Process.Validate(known); err != nil {
			return fmt.Errorf("service %q: %w", s.Name, err)
		}
	}
	return nil
}

// Capability returns the provided capability with the given name, or nil.
func (s *Service) Capability(name string) *Capability {
	for _, c := range s.Provided {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Ontologies returns the sorted union of ontology URIs across all provided
// and required capabilities.
func (s *Service) Ontologies() []string {
	seen := make(map[string]bool)
	for _, c := range s.Provided {
		for _, u := range c.Ontologies() {
			seen[u] = true
		}
	}
	for _, c := range s.Required {
		for _, u := range c.Ontologies() {
			seen[u] = true
		}
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the service.
func (s *Service) Clone() *Service {
	ss := &Service{Name: s.Name, Provider: s.Provider}
	if s.CodeVersions != nil {
		ss.CodeVersions = make(map[string]string, len(s.CodeVersions))
		for k, v := range s.CodeVersions {
			ss.CodeVersions[k] = v
		}
	}
	for _, c := range s.Provided {
		ss.Provided = append(ss.Provided, c.Clone())
	}
	for _, c := range s.Required {
		ss.Required = append(ss.Required, c.Clone())
	}
	ss.Process = cloneProcess(s.Process)
	return ss
}

func cloneProcess(n *process.Node) *process.Node {
	if n == nil {
		return nil
	}
	cp := &process.Node{Kind: n.Kind, Capability: n.Capability}
	for _, c := range n.Children {
		cp.Children = append(cp.Children, cloneProcess(c))
	}
	return cp
}

// String renders a compact one-line summary.
func (s *Service) String() string {
	return fmt.Sprintf("service %s (%d provided, %d required)", s.Name, len(s.Provided), len(s.Required))
}
