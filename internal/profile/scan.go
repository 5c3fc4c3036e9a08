package profile

import (
	"strconv"
	"strings"
)

// scanService decodes the common subset of Amigo-S in one pass over the
// bytes and fills the same xmlService that the reference decoder
// (decodeXML) fills. The subset is the vocabulary of codec.go without
// <process>, written in plain ASCII: no XML declaration or processing
// instruction, comment, CDATA section or DOCTYPE, no entity or character
// reference, no carriage return, no namespace prefix or xmlns attribute,
// and no duplicate attribute. Any other input, including every malformed
// one, reports ok == false and is left to the reference decoder, so that
// path alone produces decode errors.
//
// Every string in the result is a substring of one copy of data.
func scanService(data []byte) (doc xmlService, ok bool) {
	sc := scanner{src: string(data)}
	sc.space()
	if !sc.consume('<') {
		return doc, false
	}
	name, empty, ok := sc.startTag()
	if !ok || name != "service" {
		return doc, false
	}
	for _, a := range sc.attrs {
		switch a.name {
		case "name":
			doc.Name = a.value
		case "provider":
			doc.Provider = a.value
		}
	}
	if empty {
		return doc, true
	}
	for {
		child, childEmpty, end, ok := sc.child("service")
		switch {
		case !ok:
			return doc, false
		case end:
			return doc, true
		case child == "codeVersion":
			var cv xmlCodeVersion
			for _, a := range sc.attrs {
				switch a.name {
				case "ontology":
					cv.Ontology = a.value
				case "version":
					cv.Version = a.value
				}
			}
			if !sc.skipContent(child, childEmpty) {
				return doc, false
			}
			doc.CodeVersions = append(doc.CodeVersions, cv)
		case child == "provided" || child == "required":
			c, ok := sc.capability(child, childEmpty)
			if !ok {
				return doc, false
			}
			if child == "provided" {
				doc.Provided = append(doc.Provided, c)
			} else {
				doc.Required = append(doc.Required, c)
			}
		default:
			return doc, false
		}
	}
}

// capability reads the body of a <provided> or <required> element whose
// start tag was just read.
func (sc *scanner) capability(name string, empty bool) (c xmlCapability, ok bool) {
	for _, a := range sc.attrs {
		switch a.name {
		case "name":
			c.Name = a.value
		case "category":
			c.Category = a.value
		}
	}
	if empty {
		return c, true
	}
	for {
		child, childEmpty, end, ok := sc.child(name)
		if !ok {
			return c, false
		}
		if end {
			return c, true
		}
		switch child {
		case "input", "output", "property":
			v, ok := sc.textContent(child, childEmpty)
			if !ok {
				return c, false
			}
			switch child {
			case "input":
				c.Inputs = append(c.Inputs, v)
			case "output":
				c.Outputs = append(c.Outputs, v)
			default:
				c.Properties = append(c.Properties, v)
			}
		case "qos":
			var q xmlQoSValue
			for _, a := range sc.attrs {
				switch a.name {
				case "name":
					q.Name = a.value
				case "value":
					// encoding/xml reads "" as 0 and trims the rest; a
					// value it rejects is left to it for the error.
					if a.value == "" {
						continue
					}
					v, err := strconv.ParseFloat(strings.TrimSpace(a.value), 64)
					if err != nil {
						return c, false
					}
					q.Value = v
				}
			}
			if !sc.skipContent(child, childEmpty) {
				return c, false
			}
			c.QoSProvided = append(c.QoSProvided, q)
		case "qosRequire":
			var q xmlQoSRequire
			for _, a := range sc.attrs {
				switch a.name {
				case "name":
					q.Name = a.value
				case "min":
					q.Min = a.value
				case "max":
					q.Max = a.value
				}
			}
			if !sc.skipContent(child, childEmpty) {
				return c, false
			}
			c.QoSRequired = append(c.QoSRequired, q)
		default:
			return c, false
		}
	}
}

// scanner is the cursor of scanService over one document.
type scanner struct {
	src string
	pos int
	// attrs holds the attributes of the last start tag read.
	attrs []scanAttr
}

type scanAttr struct{ name, value string }

// space skips spaces, tabs and newlines.
func (sc *scanner) space() {
	for sc.pos < len(sc.src) {
		switch sc.src[sc.pos] {
		case ' ', '\t', '\n':
			sc.pos++
		default:
			return
		}
	}
}

func (sc *scanner) consume(c byte) bool {
	if sc.pos < len(sc.src) && sc.src[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// name reads an ASCII XML name without a prefix: a letter or '_', then
// letters, digits, '_', '-' or '.'. It returns "" when none starts here;
// a ':' ends the name, and the caller then fails on it.
func (sc *scanner) name() string {
	start := sc.pos
	for sc.pos < len(sc.src) {
		c := sc.src[sc.pos]
		letter := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
		if !letter && (sc.pos == start || !('0' <= c && c <= '9' || c == '-' || c == '.')) {
			break
		}
		sc.pos++
	}
	return sc.src[start:sc.pos]
}

// startTag reads a start tag after its '<' and leaves its attributes in
// sc.attrs; empty reports a self-closing tag. Like encoding/xml it needs
// no space between one attribute's value and the next attribute.
func (sc *scanner) startTag() (name string, empty, ok bool) {
	if name = sc.name(); name == "" {
		return "", false, false
	}
	sc.attrs = sc.attrs[:0]
	for {
		sc.space()
		if sc.consume('>') {
			return name, false, true
		}
		if sc.consume('/') {
			return name, true, sc.consume('>')
		}
		attr := sc.name()
		if attr == "" || strings.HasPrefix(attr, "xmlns") {
			return "", false, false
		}
		sc.space()
		if !sc.consume('=') {
			return "", false, false
		}
		sc.space()
		value, ok := sc.quoted()
		if !ok {
			return "", false, false
		}
		for _, a := range sc.attrs {
			if a.name == attr {
				return "", false, false
			}
		}
		sc.attrs = append(sc.attrs, scanAttr{attr, value})
	}
}

// quoted reads a single- or double-quoted attribute value.
func (sc *scanner) quoted() (string, bool) {
	if sc.pos >= len(sc.src) {
		return "", false
	}
	q := sc.src[sc.pos]
	if q != '"' && q != '\'' {
		return "", false
	}
	start := sc.pos + 1
	for i := start; i < len(sc.src); i++ {
		c := sc.src[i]
		if c == q {
			sc.pos = i + 1
			return sc.src[start:i], true
		}
		if c == '<' || !plain(c) {
			return "", false
		}
	}
	return "", false
}

// plain reports whether c may stand for itself in the subset's character
// data and attribute values: printable ASCII other than '&', tab or
// newline.
func plain(c byte) bool {
	return c >= ' ' && c < 0x7f && c != '&' || c == '\t' || c == '\n'
}

// text reads character data up to the next '<', which it leaves unread.
// Input that ends first belongs to an unclosed element.
func (sc *scanner) text() (string, bool) {
	start := sc.pos
	for ; sc.pos < len(sc.src); sc.pos++ {
		c := sc.src[sc.pos]
		if c == '<' {
			return sc.src[start:sc.pos], true
		}
		// "]]>" outside CDATA is an encoding/xml syntax error.
		if !plain(c) || c == '>' && strings.HasSuffix(sc.src[start:sc.pos], "]]") {
			return "", false
		}
	}
	return "", false
}

// child skips the character data inside parent up to its next tag and
// reads that tag: either parent's end tag (end) or a child's start tag,
// whose name it returns with its attributes in sc.attrs.
func (sc *scanner) child(parent string) (name string, empty, end, ok bool) {
	if _, ok := sc.text(); !ok {
		return "", false, false, false
	}
	sc.pos++ // the '<' text stopped at
	if sc.consume('/') {
		return "", false, true, sc.endTag(parent)
	}
	name, empty, ok = sc.startTag()
	return name, empty, false, ok
}

// endTag reads the rest of an end tag after its "</" and checks that it
// closes name.
func (sc *scanner) endTag(name string) bool {
	if sc.name() != name {
		return false
	}
	sc.space()
	return sc.consume('>')
}

// textContent reads the character data of a leaf element whose start tag
// was just read, through its end tag.
func (sc *scanner) textContent(name string, empty bool) (string, bool) {
	if empty {
		return "", true
	}
	s, ok := sc.text()
	if !ok {
		return "", false
	}
	sc.pos++ // the '<' text stopped at
	return s, sc.consume('/') && sc.endTag(name)
}

// skipContent reads through the end tag of an element whose start tag
// was just read and whose character data the vocabulary ignores.
func (sc *scanner) skipContent(name string, empty bool) bool {
	if empty {
		return true
	}
	_, _, end, ok := sc.child(name)
	return ok && end
}
