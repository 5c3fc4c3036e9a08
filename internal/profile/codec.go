package profile

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"sariadne/internal/ontology"
	"sariadne/internal/process"
)

// The Amigo-S XML vocabulary. A service document looks like:
//
//	<service name="MediaWorkstation" provider="livingroom-pc">
//	  <codeVersion ontology="http://amigo.example/ont/media" version="1"/>
//	  <provided name="SendDigitalStream"
//	            category="http://amigo.example/ont/servers#DigitalServer">
//	    <input>http://amigo.example/ont/media#DigitalResource</input>
//	    <output>http://amigo.example/ont/media#Stream</output>
//	    <property>http://amigo.example/ont/qos#HighBandwidth</property>
//	  </provided>
//	  <required name="GetVideoStream"
//	            category="http://amigo.example/ont/servers#VideoServer">
//	    <input>http://amigo.example/ont/media#VideoResource</input>
//	    <output>http://amigo.example/ont/media#Stream</output>
//	  </required>
//	</service>

type xmlService struct {
	XMLName      xml.Name         `xml:"service"`
	Name         string           `xml:"name,attr"`
	Provider     string           `xml:"provider,attr,omitempty"`
	CodeVersions []xmlCodeVersion `xml:"codeVersion"`
	Provided     []xmlCapability  `xml:"provided"`
	Required     []xmlCapability  `xml:"required"`
	Process      *xmlProcess      `xml:"process"`
}

// xmlProcess wraps the process tree: the single child element of
// <process> is the root construct.
type xmlProcess struct {
	Root process.XMLNode `xml:",any"`
}

type xmlCodeVersion struct {
	Ontology string `xml:"ontology,attr"`
	Version  string `xml:"version,attr"`
}

type xmlCapability struct {
	Name        string          `xml:"name,attr"`
	Category    string          `xml:"category,attr"`
	Inputs      []string        `xml:"input"`
	Outputs     []string        `xml:"output"`
	Properties  []string        `xml:"property"`
	QoSProvided []xmlQoSValue   `xml:"qos"`
	QoSRequired []xmlQoSRequire `xml:"qosRequire"`
}

type xmlQoSValue struct {
	Name  string  `xml:"name,attr"`
	Value float64 `xml:"value,attr"`
}

// xmlQoSRequire carries bounds as string attributes so one-sided
// constraints can omit a side entirely.
type xmlQoSRequire struct {
	Name string `xml:"name,attr"`
	Min  string `xml:"min,attr,omitempty"`
	Max  string `xml:"max,attr,omitempty"`
}

// Decode parses and validates an Amigo-S service document.
func Decode(r io.Reader) (*Service, error) {
	start := time.Now()
	defer parseSeconds.ObserveSince(start)
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	return decode(data)
}

// Unmarshal parses a service document from a byte slice.
func Unmarshal(data []byte) (*Service, error) {
	start := time.Now()
	defer parseSeconds.ObserveSince(start)
	return decode(data)
}

// decode reads the document with the single-pass scanner (scan.go) and,
// for any input outside the scanner's subset, with the reference
// decoder. Which one runs depends only on the bytes.
func decode(data []byte) (*Service, error) {
	doc, ok := scanService(data)
	if !ok {
		var err error
		if doc, err = decodeXML(data); err != nil {
			return nil, err
		}
	}
	return doc.service()
}

// decodeXML is the reference decoder: encoding/xml over the whole
// vocabulary. The scanner defers to it, and the differential fuzz test
// holds the scanner to its results.
func decodeXML(data []byte) (xmlService, error) {
	var doc xmlService
	if err := xml.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		return xmlService{}, fmt.Errorf("profile: decode: %w", err)
	}
	return doc, nil
}

// service builds and validates the Service a decoded document describes.
func (doc *xmlService) service() (*Service, error) {
	s := &Service{Name: doc.Name, Provider: doc.Provider}
	if len(doc.CodeVersions) > 0 {
		s.CodeVersions = make(map[string]string, len(doc.CodeVersions))
		for _, cv := range doc.CodeVersions {
			s.CodeVersions[cv.Ontology] = cv.Version
		}
	}
	for _, xc := range doc.Provided {
		c, err := capabilityFromXML(xc)
		if err != nil {
			return nil, err
		}
		s.Provided = append(s.Provided, c)
	}
	for _, xc := range doc.Required {
		c, err := capabilityFromXML(xc)
		if err != nil {
			return nil, err
		}
		s.Required = append(s.Required, c)
	}
	if doc.Process != nil {
		s.Process = doc.Process.Root.Node
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func capabilityFromXML(xc xmlCapability) (*Capability, error) {
	c := &Capability{Name: xc.Name}
	var err error
	if xc.Category != "" {
		if c.Category, err = ontology.ParseRef(xc.Category); err != nil {
			return nil, fmt.Errorf("%w: capability %q category: %v", ErrBadRef, xc.Name, err)
		}
	}
	parse := func(vals []string, what string) ([]ontology.Ref, error) {
		refs := make([]ontology.Ref, 0, len(vals))
		for _, v := range vals {
			ref, err := ontology.ParseRef(v)
			if err != nil {
				return nil, fmt.Errorf("%w: capability %q %s: %v", ErrBadRef, xc.Name, what, err)
			}
			refs = append(refs, ref)
		}
		return refs, nil
	}
	if c.Inputs, err = parse(xc.Inputs, "input"); err != nil {
		return nil, err
	}
	if c.Outputs, err = parse(xc.Outputs, "output"); err != nil {
		return nil, err
	}
	if c.Properties, err = parse(xc.Properties, "property"); err != nil {
		return nil, err
	}
	for _, q := range xc.QoSProvided {
		c.QoSProvided = append(c.QoSProvided, QoSValue{Name: q.Name, Value: q.Value})
	}
	for _, q := range xc.QoSRequired {
		constraint := QoSConstraint{Name: q.Name, Min: Unbounded(), Max: Unbounded()}
		if q.Min != "" {
			if constraint.Min, err = strconv.ParseFloat(q.Min, 64); err != nil {
				return nil, fmt.Errorf("%w: qosRequire %q min: %v", ErrBadQoS, q.Name, err)
			}
		}
		if q.Max != "" {
			if constraint.Max, err = strconv.ParseFloat(q.Max, 64); err != nil {
				return nil, fmt.Errorf("%w: qosRequire %q max: %v", ErrBadQoS, q.Name, err)
			}
		}
		c.QoSRequired = append(c.QoSRequired, constraint)
	}
	return c, nil
}

func capabilityToXML(c *Capability) xmlCapability {
	xc := xmlCapability{Name: c.Name, Category: c.Category.String()}
	for _, r := range c.Inputs {
		xc.Inputs = append(xc.Inputs, r.String())
	}
	for _, r := range c.Outputs {
		xc.Outputs = append(xc.Outputs, r.String())
	}
	for _, r := range c.Properties {
		xc.Properties = append(xc.Properties, r.String())
	}
	for _, q := range c.QoSProvided {
		xc.QoSProvided = append(xc.QoSProvided, xmlQoSValue{Name: q.Name, Value: q.Value})
	}
	for _, q := range c.QoSRequired {
		xq := xmlQoSRequire{Name: q.Name}
		if !math.IsNaN(q.Min) {
			xq.Min = strconv.FormatFloat(q.Min, 'g', -1, 64)
		}
		if !math.IsNaN(q.Max) {
			xq.Max = strconv.FormatFloat(q.Max, 'g', -1, 64)
		}
		xc.QoSRequired = append(xc.QoSRequired, xq)
	}
	return xc
}

// Encode writes the service as an Amigo-S XML document.
func Encode(w io.Writer, s *Service) error {
	if err := s.Validate(); err != nil {
		return err
	}
	doc := xmlService{Name: s.Name, Provider: s.Provider}
	for _, uri := range sortedKeys(s.CodeVersions) {
		doc.CodeVersions = append(doc.CodeVersions, xmlCodeVersion{Ontology: uri, Version: s.CodeVersions[uri]})
	}
	for _, c := range s.Provided {
		doc.Provided = append(doc.Provided, capabilityToXML(c))
	}
	for _, c := range s.Required {
		doc.Required = append(doc.Required, capabilityToXML(c))
	}
	if s.Process != nil {
		doc.Process = &xmlProcess{Root: process.XMLNode{Node: s.Process}}
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("profile: encode: %w", err)
	}
	return enc.Close()
}

// Marshal renders the service as an Amigo-S XML document.
func Marshal(s *Service) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sortedKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
