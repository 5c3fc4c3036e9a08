// Package sdpproto is the single definition of sdpd's client protocol:
// one JSON Request per UDP datagram to the daemon, one JSON Response
// datagram back. The daemon (cmd/sdpd), its HTTP gateway, and every
// client (sdpctl, sdpload, the smokes) share these types, so the wire
// format cannot drift between speakers.
//
// Ops, with the Request fields each reads:
//
//	register      doc: an Amigo-S service advertisement
//	deregister    name: the service to withdraw
//	query         doc: an Amigo-S request; trace asks for the hop tree
//	add-ontology  doc: an ontology document, classified and encoded server-side
//	get-table     name: an ontology URI; the reply carries its code table
//	stats         directory size and loaded ontologies
//	peers         the daemon's backbone view (federated daemons only)
//	tenants       the admission table (admin role)
//
// With admission enabled every request carries a bearer token. A failed
// request comes back with ok=false, a human-readable error and one of the
// Code constants here or tenant.CodeUnauthenticated, CodeForbidden or
// CodeRateLimited.
package sdpproto

import (
	"encoding/json"

	"sariadne/internal/discovery"
	"sariadne/internal/telemetry"
	"sariadne/internal/tenant"
	"sariadne/internal/transport"
)

// Request is the wire format of client commands.
type Request struct {
	Op   string `json:"op"`
	Doc  string `json:"doc,omitempty"`
	Name string `json:"name,omitempty"`
	// Token is the caller's bearer credential, consulted when the daemon
	// runs with admission enabled (-auth-tokens / -auth-secret). The HTTP
	// gateway fills it from the Authorization header.
	Token string `json:"token,omitempty"`
	// Trace asks for a hop-level trace of a query op: the reply carries
	// the span tree inline and the trace is retained in the flight
	// recorder for later retrieval via GET /traces/{id}.
	Trace bool `json:"trace,omitempty"`
}

// Machine-readable error codes carried in failed responses. The HTTP
// gateway maps them to status codes; UDP clients can branch on them
// without parsing English. Admission refusals reuse the tenant package's
// codes (tenant.CodeUnauthenticated / CodeForbidden / CodeRateLimited),
// which the gateway maps to 401 / 403 / 429.
const (
	CodeBadRequest = "bad_request" // malformed or semantically invalid input
	CodeNotFound   = "not_found"   // named service/ontology does not exist
	CodeInternal   = "internal"    // server-side failure (journal, encoding)
	// CodeReplyTooLarge replaces a UDP reply longer than MaxDatagram; the
	// HTTP gateway serves the same op without the limit.
	CodeReplyTooLarge = "reply_too_large"
)

// MaxDatagram is the largest UDP payload over IPv4: 65535 bytes less the
// 20-byte IP and 8-byte UDP headers. Neither direction can exceed it.
const MaxDatagram = 65507

// Response is the wire format of server replies. Partial and Unreachable
// mirror discovery.Result: when the resolver could not reach every
// backbone directory the hits are still served, flagged as a lower bound.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Version is the advertisement version the directory assigned to a
	// successful register: re-publishing a name supersedes the previous
	// version, which stays listable via GET /services/{name}.
	Version     uint64           `json:"version,omitempty"`
	Hits        []discovery.Hit  `json:"hits,omitempty"`
	Partial     bool             `json:"partial,omitempty"`
	Unreachable []transport.Addr `json:"unreachable,omitempty"`
	// TraceID names the query's retained trace (explicitly requested or
	// picked up by the sampler); fetch it later from GET /traces/{id}.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Spans is the hop-level trace, inline — only when the request asked
	// for tracing (sampled queries just carry the ID).
	Spans   []telemetry.Span `json:"spans,omitempty"`
	Peers   []PeerEntry      `json:"peers,omitempty"`
	Stats   *StatsBody       `json:"stats,omitempty"`
	Table   json.RawMessage  `json:"table,omitempty"`
	Tenants *TenantsBody     `json:"tenants,omitempty"`
}

// TenantsBody is the admission table behind GET /tenants and the
// "tenants" op: enforcement mode, configured limits, one row per tenant.
type TenantsBody struct {
	Enforcing bool            `json:"enforcing"`
	Auth      string          `json:"auth"`
	Limits    tenant.Limits   `json:"limits"`
	Tenants   []tenant.Status `json:"tenants"`
}

// PeerEntry is one backbone peer in a "peers" reply: the discovery
// layer's protocol view (summary freshness, give-up count) joined with
// the transport layer's socket stats when the substrate tracks them.
type PeerEntry struct {
	discovery.PeerInfo
	Transport *transport.Peer `json:"transport,omitempty"`
}

// StatsBody is the "stats" reply: directory size and loaded ontologies.
type StatsBody struct {
	Capabilities int      `json:"capabilities"`
	Ontologies   []string `json:"ontologies"`
}
