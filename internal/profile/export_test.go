package profile

// Hooks for scan_test.go, an external test package because it seeds from
// internal/gen, which imports this package.

// UnmarshalReference decodes data with encoding/xml alone.
func UnmarshalReference(data []byte) (*Service, error) {
	doc, err := decodeXML(data)
	if err != nil {
		return nil, err
	}
	return doc.service()
}

// Scans reports whether the single-pass scanner decodes data itself
// rather than deferring to the reference decoder.
func Scans(data []byte) bool {
	_, ok := scanService(data)
	return ok
}

// ParseCount reads the profile_parse_seconds observation count.
func ParseCount() uint64 { return parseSeconds.Count() }
