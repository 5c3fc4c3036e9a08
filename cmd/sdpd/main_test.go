package main

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sariadne/internal/codes"
	"sariadne/internal/discovery"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/sdpproto"
)

func newTestServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*ontology.Ontology{profile.MediaOntology(), profile.ServersOntology()} {
		data, err := ontology.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		resp := s.handle(mustJSON(t, sdpproto.Request{Op: "add-ontology", Doc: string(data)}))
		if !resp.OK {
			t.Fatalf("add-ontology: %s", resp.Error)
		}
	}
	return s
}

func mustJSON(t *testing.T, req sdpproto.Request) []byte {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustDoc(t *testing.T, svc *profile.Service) string {
	t.Helper()
	doc, err := profile.Marshal(svc)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

func TestHandleRegisterQueryDeregister(t *testing.T) {
	s := newTestServer(t)

	resp := s.handle(mustJSON(t, sdpproto.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())}))
	if !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}

	resp = s.handle(mustJSON(t, sdpproto.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())}))
	if !resp.OK || len(resp.Hits) != 1 || resp.Hits[0].Distance != 3 {
		t.Fatalf("query: %+v", resp)
	}

	resp = s.handle(mustJSON(t, sdpproto.Request{Op: "stats"}))
	if !resp.OK || resp.Stats.Capabilities != 2 || len(resp.Stats.Ontologies) != 2 {
		t.Fatalf("stats: %+v", resp)
	}

	resp = s.handle(mustJSON(t, sdpproto.Request{Op: "deregister", Name: "MediaWorkstation"}))
	if !resp.OK {
		t.Fatalf("deregister: %s", resp.Error)
	}
	resp = s.handle(mustJSON(t, sdpproto.Request{Op: "deregister", Name: "MediaWorkstation"}))
	if resp.OK {
		t.Fatal("double deregister succeeded")
	}
	resp = s.handle(mustJSON(t, sdpproto.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())}))
	if !resp.OK || len(resp.Hits) != 0 {
		t.Fatalf("query after deregister: %+v", resp)
	}
}

// TestHandleQueryPartialMarker: when the resolver reports degraded
// backbone coverage, the UDP reply carries the completeness marker
// alongside the usable hits instead of hiding the gap.
func TestHandleQueryPartialMarker(t *testing.T) {
	s := newTestServer(t)
	resp := s.handle(mustJSON(t, sdpproto.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())}))
	if !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	local := s.resolve
	s.resolve = func(doc []byte, traced bool) (discovery.Result, error) {
		res, err := local(doc, traced)
		res.Unreachable = append(res.Unreachable, "n4", "n9")
		return res, err
	}

	resp = s.handle(mustJSON(t, sdpproto.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())}))
	if !resp.OK || len(resp.Hits) != 1 {
		t.Fatalf("query: %+v", resp)
	}
	if !resp.Partial || len(resp.Unreachable) != 2 || resp.Unreachable[0] != "n4" {
		t.Fatalf("completeness marker lost: %+v", resp)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"partial":true`, `"unreachable":["n4","n9"]`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("wire reply %s missing %s", data, want)
		}
	}
}

func TestHandleErrors(t *testing.T) {
	s := newTestServer(t)
	for name, datagram := range map[string][]byte{
		"malformed json":   []byte("{nope"),
		"unknown op":       mustJSON(t, sdpproto.Request{Op: "fly"}),
		"bad register doc": mustJSON(t, sdpproto.Request{Op: "register", Doc: "junk"}),
		"bad query doc":    mustJSON(t, sdpproto.Request{Op: "query", Doc: "junk"}),
		"bad ontology":     mustJSON(t, sdpproto.Request{Op: "add-ontology", Doc: "junk"}),
	} {
		if resp := s.handle(datagram); resp.OK {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNewServerBadFile(t *testing.T) {
	if _, err := newServer([]string{"/nonexistent/ontology.xml"}); err == nil {
		t.Fatal("accepted missing ontology file")
	}
}

func TestServeOverUDP(t *testing.T) {
	s := newTestServer(t)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go s.serve(conn)

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(mustJSON(t, sdpproto.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), `"ok":true`) {
		t.Fatalf("reply = %s", buf[:n])
	}
}

// TestServeOversizedReply: a reply too long for one datagram comes back
// at once as a typed error that names the size and the HTTP gateway,
// instead of a send failure that leaves the client waiting out its
// timeout. The daemon keeps serving afterwards.
func TestServeOversizedReply(t *testing.T) {
	s := newTestServer(t)
	long := strings.Repeat("x", 200)
	const services = 300
	for i := 0; i < services; i++ {
		if resp := s.handle(mustJSON(t, sdpproto.Request{Op: "register", Doc: namedDoc(t, fmt.Sprintf("%s-%03d", long, i))})); !resp.OK {
			t.Fatalf("register %d: %s", i, resp.Error)
		}
	}
	query := sdpproto.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())}
	if resp := s.handle(mustJSON(t, query)); !resp.OK || len(resp.Hits) != services {
		t.Fatalf("direct query: ok=%v hits=%d, want %d", resp.OK, len(resp.Hits), services)
	}

	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go s.serve(conn)
	c, err := sdpproto.Dial(conn.LocalAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(query)
	if err != nil {
		t.Fatalf("oversized reply was not answered: %v", err)
	}
	if resp.OK || resp.Code != sdpproto.CodeReplyTooLarge ||
		!strings.Contains(resp.Error, "exceeds the 65507-byte datagram limit") || !strings.Contains(resp.Error, "HTTP gateway") {
		t.Fatalf("reply = %+v", resp)
	}
	if resp, err := c.Do(sdpproto.Request{Op: "stats"}); err != nil || !resp.OK {
		t.Fatalf("stats after the oversized reply: %+v, %v", resp, err)
	}
}

func TestStringListFlag(t *testing.T) {
	var l stringList
	if err := l.Set("a.xml"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b.xml"); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "a.xml,b.xml" {
		t.Fatalf("String = %q", got)
	}
}

func TestHandleGetTable(t *testing.T) {
	s := newTestServer(t)
	resp := s.handle(mustJSON(t, sdpproto.Request{Op: "get-table", Name: profile.MediaOntologyURI}))
	if !resp.OK || len(resp.Table) == 0 {
		t.Fatalf("get-table: %+v", resp)
	}
	table, err := codes.UnmarshalTable(resp.Table)
	if err != nil {
		t.Fatalf("returned table does not parse: %v", err)
	}
	if !table.Subsumes("Resource", "Movie") {
		t.Fatal("shipped table lost subsumption")
	}
	if resp := s.handle(mustJSON(t, sdpproto.Request{Op: "get-table", Name: "http://nope"})); resp.OK {
		t.Fatal("get-table for unknown ontology succeeded")
	}
}
