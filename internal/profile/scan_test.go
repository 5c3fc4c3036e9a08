package profile_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sariadne/internal/gen"
	"sariadne/internal/profile"
)

const scanRequest = `<service name="TabletPlayer" provider="kitchen-tablet">
  <codeVersion ontology="http://t.example/ont/media" version="3"/>
  <required name="WatchFilm" category="http://t.example/ont/servers#VideoServer">
    <input>http://t.example/ont/media#Film</input>
    <output>http://t.example/ont/media#VideoStream</output>
    <property>http://t.example/ont/qos#Fast</property>
    <qos name="latencyMs" value="20"/>
    <qosRequire name="jitterMs" max="30"/>
  </required>
</service>`

// qosDoc wraps one <qos> element in a minimal provided capability.
func qosDoc(qos string) string {
	return `<service name="s"><provided name="c" category="u#C">` + qos + `</provided></service>`
}

// inputDoc wraps the content of one <input> element in a minimal
// required capability.
func inputDoc(content string) string {
	return `<service name="s"><required name="c" category="u#C"><input>` + content + `</input></required></service>`
}

// scanCases are the inputs of TestScannerSubset and seeds of
// FuzzScanMatchesReference: which inputs the scanner decodes itself and
// which it leaves to encoding/xml.
var scanCases = []struct {
	name  string
	doc   string
	scans bool
}{
	{"request", scanRequest, true},
	{"self-closing root", `<service name="s"/>`, true},
	{"leading whitespace", "\n\t <service name=\"s\"/>", true},
	{"single quotes", `<service name='s' provider='a "b"'/>`, true},
	{"spaces around =", `<service name = "s" />`, true},
	{"no space between attributes", `<service name="s"provider="p"/>`, true},
	{"unknown attribute", `<service name="s" lang="en"/>`, true},
	{"end tag with space", "<service name=\"s\"></service\n>", true},
	{"text in service", `<service name="s">ignored</service>`, true},
	{"]]> in attribute", `<service name="a]]>b"/>`, true},
	{"> in text", inputDoc("u#a>b"), true},
	{"empty float value", qosDoc(`<qos name="l" value=""/>`), true},
	{"padded float value", qosDoc(`<qos name="l" value=" 2 "/>`), true},
	{"bytes after root end", `<service name="s"/> <junk & <?x`, true},
	{"empty input", inputDoc(""), true},
	{"self-closing input", `<service name="s"><required name="c" category="u#C"><input/></required></service>`, true},
	{"missing name", `<service/>`, true},
	{"malformed reference", inputDoc("no-hash"), true},
	{"duplicate capability", `<service name="s"><provided name="c" category="u#C"/><provided name="c" category="u#C"/></service>`, true},

	{"duplicate attribute", `<service name="a" name="b"/>`, false},
	{"unparsable float value", qosDoc(`<qos name="l" value="fast"/>`), false},
	{"comment in input", inputDoc("u#<!-- x -->A"), false},
	{"element in input", inputDoc("u#<b>x</b>A"), false},
	{"namespace prefix", `<ns:service xmlns:ns="urn:x" name="s"/>`, false},
	{"default namespace", `<service xmlns="urn:x" name="s"/>`, false},
	{"prefixed attribute", `<service x:name="s"/>`, false},
	{"entity reference", `<service name="a&amp;b"/>`, false},
	{"character reference", inputDoc("u#&#65;"), false},
	{"carriage return", "<service name=\"s\">\r\n</service>", false},
	{"XML declaration", `<?xml version="1.0"?><service name="s"/>`, false},
	{"latin1 declaration", `<?xml version="1.0" encoding="latin1"?><service name="s"/>`, false},
	{"comment", `<!-- c --><service name="s"/>`, false},
	{"CDATA", inputDoc("<![CDATA[u#A]]>"), false},
	{"DOCTYPE", `<!DOCTYPE service><service name="s"/>`, false},
	{"non-ASCII", `<service name="café"/>`, false},
	{"control byte", "<service name=\"a\x01\"/>", false},
	{"NUL byte", "<service name=\"s\">\x00</service>", false},
	{"DEL byte", "<service name=\"a\x7f\"/>", false},
	{"unknown element", `<service name="s"><extra/></service>`, false},
	{"misplaced element", `<service name="s"><input>u#A</input></service>`, false},
	{"process", `<service name="s"><required name="c" category="u#C"/><process><invoke capability="c"/></process></service>`, false},
	{"wrong root", `<services name="s"/>`, false},
	{"text before root", `x<service name="s"/>`, false},
	{"]]> in text", `<service name="s">]]></service>`, false},
	{"unquoted attribute", `<service name=s/>`, false},
	{"mismatched end tag", `<service name="s"></provided>`, false},
	{"unclosed root", `<service name="s">`, false},
	{"truncated tag", `<service name="s"`, false},
	{"empty", ``, false},
}

func TestScannerSubset(t *testing.T) {
	for _, tc := range scanCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := profile.Scans([]byte(tc.doc)); got != tc.scans {
				t.Errorf("scanner decodes it itself = %v, want %v", got, tc.scans)
			}
			checkAgainstReference(t, []byte(tc.doc))
		})
	}
}

// checkAgainstReference fails unless Unmarshal returns what the
// encoding/xml reference returns: the same service or the same error.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := profile.Unmarshal(data)
	want, wantErr := profile.UnmarshalReference(data)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error = %v, reference %v\ninput %q", gotErr, wantErr, data)
	}
	if !sameValue(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("service = %#v, reference %#v\ninput %q", got, want, data)
	}
}

// sameValue is reflect.DeepEqual with floats compared by their bits: a
// one-sided QoS bound is NaN, which DeepEqual finds unequal to itself.
func sameValue(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !sameValue(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameValue: unhandled kind " + a.Kind().String())
}

// genDocs returns generated service documents and request documents
// shaped like the ones the daemon parses per query.
func genDocs(tb testing.TB, n int) (services, requests [][]byte) {
	w := gen.MustNewWorkload(gen.WorkloadConfig{Ontologies: 4, ClassesPerOntology: 20, Services: n, Seed: 7})
	for i := range n {
		doc, err := profile.Marshal(&profile.Service{
			Name:     fmt.Sprintf("req%05d", i),
			Required: []*profile.Capability{w.Request(i, 1)},
		})
		if err != nil {
			tb.Fatal(err)
		}
		requests = append(requests, doc)
	}
	return w.ServiceDocs, requests
}

// FuzzScanMatchesReference holds the scanner to the encoding/xml
// reference: for every input, Unmarshal returns the same service or the
// same error string.
func FuzzScanMatchesReference(f *testing.F) {
	for _, tc := range scanCases {
		f.Add([]byte(tc.doc))
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		doc, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	services, requests := genDocs(f, 4)
	for _, doc := range append(services, requests...) {
		f.Add(doc)
	}
	for _, s := range []*profile.Service{profile.WorkstationService(), profile.PDAService()} {
		doc, err := profile.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

func TestScannerDecodesGeneratedDocuments(t *testing.T) {
	services, requests := genDocs(t, 20)
	for _, doc := range append(services, requests...) {
		if !profile.Scans(doc) {
			t.Fatalf("scanner defers on a generated document:\n%s", doc)
		}
		checkAgainstReference(t, doc)
	}
}

func TestParseObservedOncePerCall(t *testing.T) {
	calls := map[string]func([]byte){
		"Unmarshal": func(b []byte) { _, _ = profile.Unmarshal(b) },
		"Decode":    func(b []byte) { _, _ = profile.Decode(bytes.NewReader(b)) },
	}
	docs := map[string]string{
		"scanned":  scanRequest,
		"deferred": `<?xml version="1.0"?>` + scanRequest,
		"error":    `<service`,
	}
	for callName, call := range calls {
		for docName, doc := range docs {
			before := profile.ParseCount()
			call([]byte(doc))
			if got := profile.ParseCount() - before; got != 1 {
				t.Errorf("%s of a %s document: %d profile_parse_seconds observations, want 1", callName, docName, got)
			}
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	_, requests := genDocs(b, 1)
	doc := requests[0]
	if !profile.Scans(doc) {
		b.Fatalf("benchmark request is outside the scanner's subset:\n%s", doc)
	}
	for _, bc := range []struct {
		name      string
		unmarshal func([]byte) (*profile.Service, error)
	}{
		{"scanner", profile.Unmarshal},
		{"reference", profile.UnmarshalReference},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.unmarshal(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
