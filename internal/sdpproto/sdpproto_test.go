package sdpproto

import (
	"encoding/json"
	"testing"
	"time"

	"sariadne/internal/discovery"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
	"sariadne/internal/transport"
)

// TestWireFormatGolden pins the encoded bytes of a Request and a Response
// with every field populated. perfbench and external clients parse these
// keys independently, so a renamed field or tag must fail here first.
func TestWireFormatGolden(t *testing.T) {
	at := time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)
	req := Request{Op: "query", Doc: "<service/>", Name: "MediaWorkstation", Token: "tok", Trace: true}
	resp := Response{
		OK: true, Error: "e", Code: CodeBadRequest, Version: 3,
		Hits:        []discovery.Hit{{Service: "S", Capability: "C", Provider: "P", Distance: 2, For: "F", Directory: "D"}},
		Partial:     true,
		Unreachable: []transport.Addr{"n4"},
		TraceID:     7,
		Spans:       []telemetry.Span{{Trace: 7, Node: "n1", Event: "forward", Peer: "n2", Hits: 1, Dur: time.Microsecond, Seq: 9, Time: at, Reason: "r"}},
		Peers: []PeerEntry{{
			PeerInfo: discovery.PeerInfo{Addr: "n2", LastAnnounce: at, Failures: 1, HasSummary: true, Entries: 4, Hops: 2},
			Transport: &transport.Peer{Addr: "n2", LastSeen: at, FramesSent: 1, FramesReceived: 2, BytesSent: 3, BytesReceived: 4,
				SendCount: 5, SendNanos: 6, DialCount: 7, DialNanos: 8},
		}},
		Stats: &StatsBody{Capabilities: 5, Ontologies: []string{"http://o"}},
		Table: json.RawMessage(`{"uri":"http://o"}`),
		Tenants: &TenantsBody{Enforcing: true, Auth: "hmac",
			Limits: tenant.Limits{RatePerSec: 1.5, Burst: 2, MaxLiveServices: 3, MaxPublishesPerMinute: 4},
			Tenants: []tenant.Status{{Tenant: "alice", LiveServices: 1, PublishesTotal: 2, PublishesThisMinute: 3,
				RateLimitedTotal: 4, DeniedTotal: 5, RateTokens: 0.5}},
		},
	}
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"request", req, `{"op":"query","doc":"\u003cservice/\u003e","name":"MediaWorkstation","token":"tok","trace":true}`},
		{"response", resp, `{"ok":true,"error":"e","code":"bad_request","version":3,` +
			`"hits":[{"Service":"S","Capability":"C","Provider":"P","Distance":2,"For":"F","Directory":"D"}],` +
			`"partial":true,"unreachable":["n4"],"trace_id":7,` +
			`"spans":[{"trace":7,"node":"n1","event":"forward","peer":"n2","hits":1,"dur":1000,"seq":9,"time":"2024-05-06T07:08:09Z","reason":"r"}],` +
			`"peers":[{"addr":"n2","last_announce":"2024-05-06T07:08:09Z","failures":1,"has_summary":true,"entries":4,"hops":2,` +
			`"transport":{"addr":"n2","last_seen":"2024-05-06T07:08:09Z","frames_sent":1,"frames_received":2,"bytes_sent":3,"bytes_received":4,` +
			`"send_count":5,"send_nanos":6,"dial_count":7,"dial_nanos":8}}],` +
			`"stats":{"capabilities":5,"ontologies":["http://o"]},"table":{"uri":"http://o"},` +
			`"tenants":{"enforcing":true,"auth":"hmac","limits":{"rate_per_sec":1.5,"burst":2,"max_live_services":3,"max_publishes_per_minute":4},` +
			`"tenants":[{"tenant":"alice","live_services":1,"publishes_total":2,"publishes_this_minute":3,"rate_limited_total":4,"denied_total":5,"rate_tokens":0.5}]}}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}
