package main

import (
	"log/slog"
	"testing"
	"time"

	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/sdpproto"
	"sariadne/internal/testutil"
)

// newFederatedServer boots a daemon server with a backbone membership on
// a fresh loopback port, exactly as `sdpd -federate :0 -peer ...` would.
func newFederatedServer(t *testing.T, kind string, peers ...string) (*server, *federation) {
	t.Helper()
	s := newTestServer(t)
	fed, err := startFederation(s, federationOptions{
		Listen:    "127.0.0.1:0",
		Transport: kind,
		Peers:     peers,
	}, slog.Default())
	if err != nil {
		t.Fatalf("startFederation: %v", err)
	}
	t.Cleanup(fed.close)
	return s, fed
}

// TestFederatedDaemons drives two daemon servers federated over loopback
// (once per substrate): a service registered through one daemon's client
// front end is discovered through the other's, and the peers op reports
// the live backbone view on both sides.
func TestFederatedDaemons(t *testing.T) {
	for _, kind := range []string{"udp", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			sa, fa := newFederatedServer(t, kind)
			sb, _ := newFederatedServer(t, kind, string(fa.node.ID()))

			testutil.WaitFor(t, 5*time.Second, func() bool {
				return len(fa.node.Peers()) == 1
			}, "backbone handshake")

			if resp := sa.handle(mustJSON(t, sdpproto.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})); !resp.OK {
				t.Fatalf("register on A: %s", resp.Error)
			}
			// B's view of A reflects the registration once the refreshed
			// summary lands.
			testutil.WaitFor(t, 5*time.Second, func() bool {
				resp := sb.handle(mustJSON(t, sdpproto.Request{Op: "peers"}))
				if !resp.OK || len(resp.Peers) != 1 {
					return false
				}
				p := resp.Peers[0]
				return p.Addr == fa.node.ID() && p.HasSummary && p.Entries == 2 && !p.LastAnnounce.IsZero()
			}, "A's summary never reached B")

			resp := sb.handle(mustJSON(t, sdpproto.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())}))
			if !resp.OK || len(resp.Hits) != 1 {
				t.Fatalf("federated query: %+v", resp)
			}
			if h := resp.Hits[0]; h.Service != "MediaWorkstation" || h.Directory != string(fa.node.ID()) {
				t.Fatalf("hit = %+v, want MediaWorkstation via %s", h, fa.node.ID())
			}
			if resp.Partial {
				t.Fatalf("two live daemons produced a partial result: %+v", resp)
			}

			// The transport join shows socket-level traffic for the peer.
			resp = sa.handle(mustJSON(t, sdpproto.Request{Op: "peers"}))
			if !resp.OK || len(resp.Peers) != 1 || resp.Peers[0].Transport == nil {
				t.Fatalf("peers on A: %+v", resp)
			}
			if tp := resp.Peers[0].Transport; tp.FramesSent == 0 || tp.FramesReceived == 0 {
				t.Fatalf("transport stats empty: %+v", tp)
			}
		})
	}
}

// TestPeersOpRequiresFederation pins the standalone behavior: the op
// fails loudly instead of returning a misleading empty backbone.
func TestPeersOpRequiresFederation(t *testing.T) {
	s := newTestServer(t)
	resp := s.handle(mustJSON(t, sdpproto.Request{Op: "peers"}))
	if resp.OK || resp.Code != sdpproto.CodeBadRequest {
		t.Fatalf("peers on standalone daemon: %+v", resp)
	}
}

// TestAddOntologyDuringForwardedQueries reproduces the code-table
// registry race: add-ontology on daemon A replaces a table while
// queries forwarded from daemon B are matched on A's discovery node
// goroutine, outside A's request mutex. Run it with -race; every
// forwarded query must still find A's service.
func TestAddOntologyDuringForwardedQueries(t *testing.T) {
	sa, fa := newFederatedServer(t, "udp")
	sb, _ := newFederatedServer(t, "udp", string(fa.node.ID()))
	testutil.WaitFor(t, 5*time.Second, func() bool {
		return len(fa.node.Peers()) == 1
	}, "backbone handshake")
	if resp := sa.handle(mustJSON(t, sdpproto.Request{Op: "register", Doc: mustDoc(t, profile.WorkstationService())})); !resp.OK {
		t.Fatalf("register on A: %s", resp.Error)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		resp := sb.handle(mustJSON(t, sdpproto.Request{Op: "peers"}))
		return resp.OK && len(resp.Peers) == 1 && resp.Peers[0].Entries == 2
	}, "A's summary never reached B")

	media, err := ontology.Marshal(profile.MediaOntology())
	if err != nil {
		t.Fatal(err)
	}
	addOntology := mustJSON(t, sdpproto.Request{Op: "add-ontology", Doc: string(media)})
	query := mustJSON(t, sdpproto.Request{Op: "query", Doc: mustDoc(t, profile.PDAService())})
	const rounds = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			if resp := sa.handle(addOntology); !resp.OK {
				t.Errorf("add-ontology on A: %s", resp.Error)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		resp := sb.handle(query)
		if !resp.OK || len(resp.Hits) != 1 || resp.Hits[0].Service != "MediaWorkstation" {
			t.Errorf("forwarded query %d during add-ontology: %+v", i, resp)
			break
		}
	}
	<-done
}
