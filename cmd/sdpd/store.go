package main

import (
	"fmt"
	"sort"
	"strings"

	"sariadne/internal/store"
	"sariadne/internal/store/boltlike"
	"sariadne/internal/store/filestore"
	"sariadne/internal/store/memstore"
	"sariadne/internal/tenant"
)

// advertOwner resolves the tenant charged for an advertisement: the
// explicit record stamp when present (hint), else the name's namespace
// prefix. Legacy un-namespaced names belong to no tenant ("").
func advertOwner(name, hint string) string {
	if hint != "" {
		return hint
	}
	owner, _, _ := tenant.SplitName(name)
	return owner
}

// openStore opens the storage backend selected by -store over the -state
// path. "auto" sniffs the on-disk format so an upgraded daemon keeps
// reading the store it finds — a v1 journal, a headered v2 JSON-lines
// file, or a boltlike binary store.
func openStore(kind, path string, opts store.Options) (store.Store, error) {
	k := store.Kind(kind)
	if kind == "auto" {
		detected, err := store.Detect(path)
		if err != nil {
			return nil, err
		}
		k = detected
	}
	switch k {
	case store.KindMem:
		return memstore.New(), nil
	case store.KindJSONL:
		return filestore.Open(path, opts)
	case store.KindBolt:
		return boltlike.Open(path, opts)
	default:
		return nil, fmt.Errorf("unknown -store kind %q (want auto, mem, jsonl or bolt)", kind)
	}
}

// destinationKind resolves the backend a migration writes. An explicit
// -store wins; "auto" falls back to the destination path's extension so
// `sdpd -migrate-store new.bolt` does the obvious thing.
func destinationKind(kind, dst string) (string, error) {
	switch kind {
	case "jsonl", "bolt":
		return kind, nil
	case "auto":
		if strings.HasSuffix(dst, ".bolt") {
			return "bolt", nil
		}
		return "jsonl", nil
	case "mem":
		return "", fmt.Errorf("-migrate-store cannot target the mem backend")
	default:
		return "", fmt.Errorf("unknown -store kind %q (want auto, jsonl or bolt)", kind)
	}
}

// migrateStore moves the history at src into a fresh store at dst,
// folding it to canonical form: the journal→v2 upgrade path and the
// cross-backend mover behind `sdpd -state src -migrate-store dst`.
func migrateStore(src, dst, dstKindFlag string) (store.MigrateStats, error) {
	var stats store.MigrateStats
	if src == "" {
		return stats, fmt.Errorf("-migrate-store needs a source: set -state")
	}
	if dst == "" || dst == src {
		return stats, fmt.Errorf("-migrate-store needs a destination path different from -state")
	}
	kind, err := destinationKind(dstKindFlag, dst)
	if err != nil {
		return stats, err
	}
	from, err := openStore("auto", src, store.Options{})
	if err != nil {
		return stats, fmt.Errorf("opening source: %w", err)
	}
	defer func() { _ = from.Close() }() // read-only source
	to, err := openStore(kind, dst, store.Options{})
	if err != nil {
		return stats, fmt.Errorf("opening destination: %w", err)
	}
	stats, err = store.Migrate(from, to)
	if err != nil {
		_ = to.Close() // the migration failure is the diagnosis
		return stats, err
	}
	if err := to.Close(); err != nil {
		return stats, fmt.Errorf("closing destination: %w", err)
	}
	return stats, nil
}

// replayStore feeds every persisted mutation back into the server. The
// old journal replay contract carries over: junk entries and records the
// directory rejects are skipped with a count, a torn tail stops nothing,
// and a missing file is an empty history.
func replayStore(st store.Store, s *server) (applied, skipped int, torn bool, err error) {
	// Replay happens before the front ends start, but applyLocked's
	// contract is that the caller holds the server mutex, so hold it.
	s.mu.Lock()
	defer s.mu.Unlock()
	stats, err := st.Replay(func(rec store.Record) error {
		if resp := s.applyLocked(rec); !resp.OK {
			skipped++
			return nil
		}
		applied++
		return nil
	})
	skipped += stats.Skipped
	if err != nil {
		return applied, skipped, stats.TornTail, err
	}
	return applied, skipped, stats.TornTail, nil
}

// applyLocked executes a persisted record against the directory without
// re-persisting it, rebuilding the advertisement version ledger and the
// per-tenant live-service counts as it goes — replay is what makes
// tenant quotas durable across daemon restarts.
func (s *server) applyLocked(rec store.Record) response {
	switch rec.Op {
	case store.OpRegister:
		name, err := s.backend.Register([]byte(rec.Doc))
		if err != nil {
			return response{Error: err.Error()}
		}
		prior := s.adverts[name]
		fresh := prior == nil || !prior.Live
		s.recordAdvertLocked(name, rec.Doc, rec.Version)
		if fresh {
			s.gate.ServiceLive(advertOwner(name, rec.Tenant), +1)
		}
		return response{OK: true}
	case store.OpDeregister:
		if !s.backend.Deregister(rec.Name) {
			return response{Error: "not registered"}
		}
		s.dropAdvertLocked(rec.Name)
		s.gate.ServiceLive(advertOwner(rec.Name, rec.Tenant), -1)
		return response{OK: true}
	case store.OpAddOntology:
		if err := s.addOntologyTextLocked(rec.Doc); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	default:
		return response{Error: "unknown store op " + string(rec.Op)}
	}
}

// advertVersion is one published version of an advertisement.
type advertVersion struct {
	Version uint64 `json:"version"`
	Doc     string `json:"doc,omitempty"`
}

// advertHistory is the version ledger of one advertised name: every
// version ever published (oldest first) and whether the newest is live.
// Superseding a name bumps the version; deregistering keeps the history
// listable but marks it withdrawn.
type advertHistory struct {
	Name     string          `json:"name"`
	Live     bool            `json:"live"`
	Versions []advertVersion `json:"versions"`
}

// current returns the newest published version number (0 if none).
func (h *advertHistory) current() uint64 {
	if len(h.Versions) == 0 {
		return 0
	}
	return h.Versions[len(h.Versions)-1].Version
}

// recordAdvertLocked appends one published version to the ledger.
// version 0 (a v1 record, or a fresh registration before assignment)
// self-assigns the next number for the name, so replaying a v1 journal
// reconstructs the same version sequence the server would have assigned.
func (s *server) recordAdvertLocked(name, doc string, version uint64) uint64 {
	h := s.adverts[name]
	if h == nil {
		h = &advertHistory{Name: name}
		s.adverts[name] = h
	}
	if version == 0 {
		version = h.current() + 1
	}
	if n := len(h.Versions); n > 0 && h.Versions[n-1].Doc == doc {
		// An identical re-publish shares the previous version's text, so
		// the ledger grows by a version number, not a document copy.
		doc = h.Versions[n-1].Doc
	}
	h.Versions = append(h.Versions, advertVersion{Version: version, Doc: doc})
	h.Live = true
	return version
}

// dropAdvertLocked marks a name withdrawn, keeping its versions listable.
func (s *server) dropAdvertLocked(name string) {
	if h := s.adverts[name]; h != nil {
		h.Live = false
	}
}

// serviceEntry is one row of a GET /services page.
type serviceEntry struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

// servicesPage is the paginated live-advertisement listing.
type servicesPage struct {
	Services []serviceEntry `json:"services"`
	// NextCursor is the value to pass as ?cursor= for the following page;
	// empty when this page is the last.
	NextCursor string `json:"next_cursor,omitempty"`
	// Total is the full live-advertisement count, independent of paging.
	Total int `json:"total"`
}

// listServicesLocked pages through the live advertisements in name order.
// cursor is the last name of the previous page ("" starts from the top).
func (s *server) listServicesLocked(limit int, cursor string) servicesPage {
	names := make([]string, 0, len(s.adverts))
	for name, h := range s.adverts {
		if h.Live {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	page := servicesPage{Services: []serviceEntry{}, Total: len(names)}
	start := 0
	if cursor != "" {
		// Resume strictly after the cursor name.
		start = sort.SearchStrings(names, cursor)
		if start < len(names) && names[start] == cursor {
			start++
		}
	}
	end := start + limit
	if end > len(names) {
		end = len(names)
	}
	for _, name := range names[start:end] {
		page.Services = append(page.Services, serviceEntry{Name: name, Version: s.adverts[name].current()})
	}
	// A full page always returns a cursor — even when it happens to be the
	// final page. The client's next probe comes back empty and cursorless,
	// which is the unambiguous end-of-listing signal; keying the cursor off
	// end < len(names) made an exactly-full final page indistinguishable
	// from a truncated listing.
	if end-start == limit && end > start {
		page.NextCursor = names[end-1]
	}
	return page
}

// serviceHistoryLocked returns the version ledger of one name, or nil.
// The returned copy is safe to serialize outside the lock.
func (s *server) serviceHistoryLocked(name string) *advertHistory {
	h := s.adverts[name]
	if h == nil {
		return nil
	}
	cp := &advertHistory{Name: h.Name, Live: h.Live, Versions: append([]advertVersion(nil), h.Versions...)}
	return cp
}
