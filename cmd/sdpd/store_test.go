package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/store"
	"sariadne/internal/testutil"
)

// openTestStore opens the given backend over path, failing the test on
// error and closing on cleanup.
func openTestStore(t *testing.T, kind, path string) store.Store {
	t.Helper()
	st, err := openStore(kind, path, store.Options{})
	if err != nil {
		t.Fatalf("openStore(%s): %v", kind, err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestStorePersistAndReplay is the durability round trip, run against
// every backend sdpd can select: mutations from one server lifetime
// recover into a second one.
func TestStorePersistAndReplay(t *testing.T) {
	for _, kind := range []string{"jsonl", "bolt", "mem"} {
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state")
			st := openTestStore(t, kind, path)

			// First server lifetime: persist ontologies and registrations.
			s1, err := newServer(nil)
			if err != nil {
				t.Fatal(err)
			}
			s1.store = st
			for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
				data, err := ontology.Marshal(o)
				if err != nil {
					t.Fatal(err)
				}
				if resp := s1.handle(mustJSON(t, request{Op: "add-ontology", Doc: string(data)})); !resp.OK {
					t.Fatalf("add-ontology: %s", resp.Error)
				}
			}
			if resp := s1.handle(mustJSON(t, request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})); !resp.OK {
				t.Fatalf("register: %s", resp.Error)
			}
			// Register and withdraw a second service: replay must converge to
			// the post-deregistration state.
			other := profile.WorkstationService()
			other.Name = "Transient"
			if resp := s1.handle(mustJSON(t, request{Op: "register", Doc: mustDoc(t, other)})); !resp.OK {
				t.Fatalf("register transient: %s", resp.Error)
			}
			if resp := s1.handle(mustJSON(t, request{Op: "deregister", Name: "Transient"})); !resp.OK {
				t.Fatalf("deregister: %s", resp.Error)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Second lifetime: recover from the store alone. The mem backend
			// cannot reopen a closed medium through openStore, so it replays
			// through a fresh handle onto the same history via Snapshot
			// semantics — skip reopen there.
			if kind == "mem" {
				return
			}
			st2 := openTestStore(t, "auto", path) // auto-detect must find the right backend
			s2, err := newServer(nil)
			if err != nil {
				t.Fatal(err)
			}
			applied, skipped, torn, err := replayStore(st2, s2)
			if err != nil {
				t.Fatal(err)
			}
			if skipped != 0 || torn {
				t.Fatalf("skipped=%d torn=%v", skipped, torn)
			}
			if applied != 5 { // 2 ontologies + 2 registers + 1 deregister
				t.Fatalf("applied = %d, want 5", applied)
			}
			resp := s2.handle(mustJSON(t, request{Op: "query", Doc: mustDoc(t, profile.PDAService())}))
			if !resp.OK || len(resp.Hits) != 1 || resp.Hits[0].Service != "MediaWorkstation" {
				t.Fatalf("query after recovery: %+v", resp)
			}
			if s2.backend.Len() != 2 { // workstation's two capabilities only
				t.Fatalf("capabilities after recovery = %d, want 2", s2.backend.Len())
			}
			// The version ledger recovered too: live workstation, withdrawn
			// transient with its history intact.
			s2.mu.Lock()
			ws := s2.serviceHistoryLocked("MediaWorkstation")
			tr := s2.serviceHistoryLocked("Transient")
			s2.mu.Unlock()
			if ws == nil || !ws.Live || ws.current() != 1 {
				t.Fatalf("workstation ledger after recovery: %+v", ws)
			}
			if tr == nil || tr.Live || len(tr.Versions) != 1 {
				t.Fatalf("transient ledger after recovery: %+v", tr)
			}
		})
	}
}

// TestStoreReplayTolerance carries the v1 journal contract forward:
// junk lines and records the directory rejects are skipped with a
// count, not fatal.
func TestStoreReplayTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.jsonl")
	content := `{"op":"add-ontology","doc":"<ontology uri=\"u\"><class name=\"A\"/></ontology>"}
not json at all
{"op":"register","doc":"garbage that will not parse"}
{"op":"unknown-op"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, "auto", path)
	s, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, skipped, _, err := replayStore(st, s)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || skipped != 3 {
		t.Fatalf("applied=%d skipped=%d, want 1/3", applied, skipped)
	}
}

// TestStoreReplayMissingFile: a missing state file is an empty history,
// not an error — first boot works.
func TestStoreReplayMissingFile(t *testing.T) {
	st := openTestStore(t, "auto", filepath.Join(t.TempDir(), "absent.jsonl"))
	s, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, skipped, torn, err := replayStore(st, s)
	if err != nil || applied != 0 || skipped != 0 || torn {
		t.Fatalf("missing file: %d/%d/%v/%v", applied, skipped, torn, err)
	}
}

// TestAdvertisementVersioning pins the supersede contract: re-publishing
// a name bumps the server-assigned version, old versions stay listable,
// and deregistration withdraws without erasing history.
func TestAdvertisementVersioning(t *testing.T) {
	s := newTestServer(t)
	doc := mustDoc(t, profile.WorkstationService())
	resp := s.handle(mustJSON(t, request{Op: "register", Doc: doc}))
	if !resp.OK || resp.Version != 1 {
		t.Fatalf("first register: %+v", resp)
	}
	resp = s.handle(mustJSON(t, request{Op: "register", Doc: doc}))
	if !resp.OK || resp.Version != 2 {
		t.Fatalf("superseding register: %+v", resp)
	}
	s.mu.Lock()
	h := s.serviceHistoryLocked("MediaWorkstation")
	s.mu.Unlock()
	if h == nil || !h.Live || len(h.Versions) != 2 || h.Versions[0].Version != 1 || h.Versions[1].Version != 2 {
		t.Fatalf("ledger after supersede: %+v", h)
	}
	if resp := s.handle(mustJSON(t, request{Op: "deregister", Name: "MediaWorkstation"})); !resp.OK {
		t.Fatalf("deregister: %s", resp.Error)
	}
	s.mu.Lock()
	h = s.serviceHistoryLocked("MediaWorkstation")
	s.mu.Unlock()
	if h == nil || h.Live || len(h.Versions) != 2 {
		t.Fatalf("ledger after withdraw: %+v", h)
	}
	// Re-publishing after withdrawal continues the version sequence.
	resp = s.handle(mustJSON(t, request{Op: "register", Doc: doc}))
	if !resp.OK || resp.Version != 3 {
		t.Fatalf("re-register after withdraw: %+v", resp)
	}
}

// TestIdenticalRepublishSharesLedgerText checks that consecutive
// identical versions share one copy of the document while every version
// stays listed with its full text.
func TestIdenticalRepublishSharesLedgerText(t *testing.T) {
	ts, s := newGatewayServer(t)
	a := mustDoc(t, profile.WorkstationService())
	changed := profile.WorkstationService()
	changed.Provider = "kitchen-pc"
	b := mustDoc(t, changed)
	docs := []string{a, a, b, a}
	for i, doc := range docs {
		if resp := s.handle(mustJSON(t, request{Op: "register", Doc: doc})); !resp.OK || resp.Version != uint64(i+1) {
			t.Fatalf("register %d: %+v", i, resp)
		}
	}

	s.mu.Lock()
	v := s.adverts["MediaWorkstation"].Versions
	s.mu.Unlock()
	text := func(i int) *byte { return unsafe.StringData(v[i].Doc) }
	if text(0) != text(1) {
		t.Error("identical consecutive versions 1 and 2 hold separate copies")
	}
	if text(2) == text(1) || text(3) == text(2) {
		t.Error("versions with different text share storage")
	}

	resp, body := do(t, "GET", ts.URL+"/services/MediaWorkstation", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /services/MediaWorkstation = %d: %s", resp.StatusCode, body)
	}
	var hist advertHistory
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatal(err)
	}
	if !hist.Live || len(hist.Versions) != len(docs) {
		t.Fatalf("history = %s", body)
	}
	for i, ver := range hist.Versions {
		if ver.Version != uint64(i+1) || ver.Doc != docs[i] {
			t.Errorf("listed version %d = {%d, %q}, want {%d, %q}", i, ver.Version, ver.Doc, i+1, docs[i])
		}
	}
}

// TestListServicesPagination drives the cursor protocol over a registry
// bigger than one page.
func TestListServicesPagination(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 7; i++ {
		svc := profile.WorkstationService()
		svc.Name = fmt.Sprintf("svc-%02d", i)
		if resp := s.handle(mustJSON(t, request{Op: "register", Doc: mustDoc(t, svc)})); !resp.OK {
			t.Fatalf("register %d: %s", i, resp.Error)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var got []string
	cursor := ""
	pages := 0
	for {
		page := s.listServicesLocked(3, cursor)
		if page.Total != 7 {
			t.Fatalf("total = %d, want 7", page.Total)
		}
		for _, e := range page.Services {
			got = append(got, e.Name)
			if e.Version != 1 {
				t.Fatalf("entry %s version = %d", e.Name, e.Version)
			}
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 3 || len(got) != 7 {
		t.Fatalf("pages=%d entries=%d, want 3 pages of 7 total", pages, len(got))
	}
	for i, name := range got {
		if want := fmt.Sprintf("svc-%02d", i); name != want {
			t.Fatalf("entry %d = %s, want %s (sorted, no duplicates)", i, name, want)
		}
	}
}

// TestMigrateStoreCommand is the operator path end to end: a v1 journal
// written by the old daemon migrates to a bolt store, and a daemon
// booting from the new store serves the same answers.
func TestMigrateStoreCommand(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "v1.jsonl")

	// Write a legacy journal through a live server (old persist path
	// equivalent: same ops, same docs).
	st := openTestStore(t, "jsonl", src)
	s1, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.store = st
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		data, err := ontology.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if resp := s1.handle(mustJSON(t, request{Op: "add-ontology", Doc: string(data)})); !resp.OK {
			t.Fatalf("add-ontology: %s", resp.Error)
		}
	}
	if resp := s1.handle(mustJSON(t, request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})); !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "v2.bolt")
	stats, err := migrateStore(src, dst, "auto") // .bolt extension selects the backend
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if stats.Replayed != 3 || stats.Live != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if kind, err := store.Detect(dst); err != nil || kind != store.KindBolt {
		t.Fatalf("destination kind = %v, %v", kind, err)
	}

	st2 := openTestStore(t, "auto", dst)
	s2, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, skipped, _, err := replayStore(st2, s2)
	if err != nil || applied != 3 || skipped != 0 {
		t.Fatalf("replay from migrated store: %d/%d/%v", applied, skipped, err)
	}
	resp := s2.handle(mustJSON(t, request{Op: "query", Doc: mustDoc(t, profile.PDAService())}))
	if !resp.OK || len(resp.Hits) != 1 || resp.Hits[0].Service != "MediaWorkstation" {
		t.Fatalf("query after migration: %+v", resp)
	}

	// Guard rails: migrating onto a non-empty destination refuses.
	if _, err := migrateStore(src, dst, "auto"); err == nil {
		t.Fatal("migration onto a non-empty destination succeeded")
	}
	// And the mem backend is not a migration target.
	if _, err := migrateStore(src, filepath.Join(dir, "x"), "mem"); err == nil {
		t.Fatal("migration to mem succeeded")
	}
}

// TestOpenStoreAutoDetect pins the format sniffing behind -store auto.
func TestOpenStoreAutoDetect(t *testing.T) {
	dir := t.TempDir()

	boltPath := filepath.Join(dir, "s.bolt")
	st := openTestStore(t, "bolt", boltPath)
	if err := st.Append(store.Record{Op: store.OpDeregister, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, "auto", boltPath)
	stats, err := re.Replay(func(store.Record) error { return nil })
	if err != nil || stats.Records != 1 {
		t.Fatalf("auto-detected bolt replay: %+v, %v", stats, err)
	}

	if _, err := openStore("nope", filepath.Join(dir, "x"), store.Options{}); err == nil {
		t.Fatal("unknown store kind accepted")
	}
}

// TestListServicesExactlyFullFinalPage is the cursor off-by-one
// regression: when the listing length is a multiple of the page size, the
// final full page must still return a cursor, and the follow-up probe
// must come back empty and cursorless. Before the fix the last full page
// dropped the cursor, so a client could not distinguish "complete" from
// "truncated at a page boundary".
func TestListServicesExactlyFullFinalPage(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 6; i++ {
		svc := profile.WorkstationService()
		svc.Name = fmt.Sprintf("svc-%02d", i)
		if resp := s.handle(mustJSON(t, request{Op: "register", Doc: mustDoc(t, svc)})); !resp.OK {
			t.Fatalf("register %d: %s", i, resp.Error)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	page1 := s.listServicesLocked(3, "")
	if len(page1.Services) != 3 || page1.NextCursor != "svc-02" {
		t.Fatalf("page 1 = %+v", page1)
	}
	page2 := s.listServicesLocked(3, page1.NextCursor)
	if len(page2.Services) != 3 {
		t.Fatalf("page 2 = %+v", page2)
	}
	if page2.NextCursor != "svc-05" {
		t.Fatalf("exactly-full final page dropped its cursor: %+v", page2)
	}
	// The probe past the end terminates the listing unambiguously.
	page3 := s.listServicesLocked(3, page2.NextCursor)
	if len(page3.Services) != 0 || page3.NextCursor != "" {
		t.Fatalf("end-of-listing probe = %+v", page3)
	}
	// A short (not full) final page still ends without a cursor.
	short := s.listServicesLocked(4, "svc-03")
	if len(short.Services) != 2 || short.NextCursor != "" {
		t.Fatalf("short final page = %+v", short)
	}
	// And a page larger than the listing never returns a cursor.
	all := s.listServicesLocked(50, "")
	if len(all.Services) != 6 || all.NextCursor != "" {
		t.Fatalf("single-page listing = %+v", all)
	}
}

// TestBackgroundCompactor exercises -compact-every's loop: a register +
// deregister history folds to nothing, so after one tick the raw log is
// empty — without any request-path involvement.
func TestBackgroundCompactor(t *testing.T) {
	st := openTestStore(t, "mem", "")
	s, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.store = st
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		data, err := ontology.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if resp := s.handle(mustJSON(t, request{Op: "add-ontology", Doc: string(data)})); !resp.OK {
			t.Fatalf("add-ontology: %s", resp.Error)
		}
	}
	if resp := s.handle(mustJSON(t, request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})); !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	if resp := s.handle(mustJSON(t, request{Op: "deregister", Name: "MediaWorkstation"})); !resp.OK {
		t.Fatalf("deregister: %s", resp.Error)
	}
	records := func() int {
		n := 0
		stats, err := st.Replay(func(store.Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("replay: %v (stats %+v)", err, stats)
		}
		return n
	}
	// Raw history: 2 ontologies + register + deregister.
	if n := records(); n != 4 {
		t.Fatalf("pre-compaction records = %d, want 4", n)
	}

	cp := startCompactor(st, 5*time.Millisecond, slog.Default())
	defer cp.close()
	// The two ontologies survive folding.
	testutil.WaitFor(t, 5*time.Second, func() bool { return records() == 2 },
		"compactor never folded the log")
	// close joins the loop goroutine; a second close is a no-op.
	cp.close()
	cp.close()
}
