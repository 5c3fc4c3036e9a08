package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"sariadne/internal/codes"
	"sariadne/internal/gen"
	"sariadne/internal/match"
	"sariadne/internal/ontology"
	"sariadne/internal/profile"
	"sariadne/internal/registry"
	"sariadne/internal/tenant"
)

// spec shapes one workload. Why each exists is recorded in README.md.
type spec struct {
	// services is the live directory size; federated splits it evenly
	// between the two holder daemons.
	services int
	// mutatePct is the share of plan steps that mutate (re-publish, or
	// withdraw then re-publish).
	mutatePct int
	// durable runs the daemon with the bolt store and HMAC admission.
	durable   bool
	federated bool
}

var specs = map[string]spec{
	"local-query":       {services: 1000},
	"publish-mix":       {services: 200, mutatePct: 25, durable: true},
	"federated-forward": {services: 200, federated: true},
}

// Fixed generator settings shared by every workload.
const (
	clients   = 2    // closed-loop clients, one UDP socket each
	planSteps = 4096 // ops per client plan; the live loop cycles it
	// popularityEpoch redraws which services are popular every this many
	// steps of a plan. One draw puts a handful of services in the zipf
	// head, so a run's cost would hinge on which ones they are; many
	// draws per run keep runs of different seeds comparable.
	popularityEpoch = 32
	numOntologies   = 12
	zipfSkew        = 1.1
	// hmacSecret keys the publish-mix daemon's admission; the benchmark
	// mints its clients' tokens from it.
	hmacSecret = "perfbench-hmac-secret-0123456789"
)

type opKind uint8

const (
	opQuery opKind = iota
	// opRepublish registers a live service again (a new version).
	opRepublish
	// opWithdraw deregisters a service; the plan always follows it with
	// opRestore of the same service by the same client.
	opWithdraw
	opRestore
)

// hitKey is the part of a hit the oracle checks.
type hitKey struct {
	Service    string
	Capability string
	Distance   int
}

// op is one planned request. Datagram is the exact bytes a client sends.
type op struct {
	Kind     opKind
	Service  int // index into plan.Services
	Datagram []byte
	// Request is the required capability of a query (nil otherwise).
	Request *profile.Capability `json:"-"`
	// Expect is a query's oracle answer with every service live, sorted.
	Expect []hitKey
}

// plan is everything a run sends, derived from the seed alone.
type plan struct {
	Workload    string
	Seed        int64
	Ontologies  [][]byte // add-ontology documents
	Services    []string // service names, qualified under admission
	ServiceDocs [][]byte
	// Holder is the daemon index preloaded with each service (federated:
	// 1 or 2, the origin daemon 0 holds none; otherwise 0).
	Holder []int
	// Owner is the client allowed to mutate each service, so the two
	// clients never withdraw the same service at once.
	Owner []int
	// Tokens are the per-client bearer tokens ("" without admission);
	// AdminToken uploads ontologies.
	Tokens     []string
	AdminToken string
	Clients    [][]op
}

// request mirrors sdpd's datagram request.
type request struct {
	Op    string `json:"op"`
	Doc   string `json:"doc,omitempty"`
	Name  string `json:"name,omitempty"`
	Token string `json:"token,omitempty"`
}

func datagram(r request) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only strings: cannot fail
	}
	return b
}

// tenantOf names the tenant client c publishes as under admission.
func tenantOf(c int) string { return fmt.Sprintf("t%d", c) }

// buildPlan generates the workload's inputs and op plan from seed, and
// answers every query with the oracle (a linear scan over all services).
func buildPlan(name string, seed int64) (*plan, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w, err := gen.NewWorkload(gen.WorkloadConfig{
		Ontologies: numOntologies, Services: sp.services, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	reg, err := w.Registry(codes.DefaultParams)
	if err != nil {
		return nil, err
	}
	p := &plan{Workload: name, Seed: seed}
	for _, o := range w.Ontologies {
		doc, err := ontology.Marshal(o)
		if err != nil {
			return nil, err
		}
		p.Ontologies = append(p.Ontologies, doc)
	}
	p.Tokens = make([]string, clients)
	if sp.durable {
		secret := []byte(hmacSecret)
		if p.AdminToken, err = tenant.MintToken(secret, "admin", tenant.RoleAdmin, 0, nil); err != nil {
			return nil, err
		}
		for c := range p.Tokens {
			if p.Tokens[c], err = tenant.MintToken(secret, tenantOf(c), tenant.RolePublisher, 0, nil); err != nil {
				return nil, err
			}
		}
	}
	oracle := registry.NewLinearDirectory(match.NewCodeMatcher(reg))
	for i, svc := range w.Services {
		owner := i % clients
		holder := 0
		if sp.federated {
			holder = 1 + i%2
		}
		doc := w.ServiceDocs[i]
		if sp.durable {
			q := svc.Clone()
			q.Name = tenant.Qualify(tenantOf(owner), svc.Name)
			if doc, err = profile.Marshal(q); err != nil {
				return nil, err
			}
			svc = q
		}
		if err := oracle.Register(svc); err != nil {
			return nil, err
		}
		p.Services = append(p.Services, svc.Name)
		p.ServiceDocs = append(p.ServiceDocs, doc)
		p.Holder = append(p.Holder, holder)
		p.Owner = append(p.Owner, owner)
	}

	rng := rand.New(rand.NewSource(seed))
	// NewZipf draws 0..n-1 with P(k) proportional to (1+k)^-s: low service
	// indices are the popular head.
	zipf := rand.NewZipf(rng, zipfSkew, 1, uint64(sp.services-1))
	queries := 0
	for c := 0; c < clients; c++ {
		steps := make([]op, 0, planSteps)
		var popular []int
		for redraw := 0; len(steps) < planSteps; {
			if len(steps) >= redraw {
				popular = rng.Perm(sp.services)
				redraw += popularityEpoch
			}
			svc := popular[zipf.Uint64()]
			if rng.Intn(100) >= sp.mutatePct {
				req := w.Request(svc, 1)
				doc, err := profile.Marshal(&profile.Service{
					Name:     fmt.Sprintf("req%05d", queries),
					Required: []*profile.Capability{req},
				})
				if err != nil {
					return nil, err
				}
				queries++
				steps = append(steps, op{
					Kind: opQuery, Service: svc, Request: req,
					Datagram: datagram(request{Op: "query", Doc: string(doc), Token: p.Tokens[c]}),
					Expect:   expect(oracle.Query(req)),
				})
				continue
			}
			// Mutate only this client's services: flip to the neighbour
			// index, which the other client does not own.
			if p.Owner[svc] != c {
				svc ^= 1
			}
			register := datagram(request{Op: "register", Doc: string(p.ServiceDocs[svc]), Token: p.Tokens[c]})
			// A withdraw needs room for its restore before the plan wraps.
			if rng.Intn(2) == 0 || len(steps) == planSteps-1 {
				steps = append(steps, op{Kind: opRepublish, Service: svc, Datagram: register})
				continue
			}
			steps = append(steps,
				op{Kind: opWithdraw, Service: svc,
					Datagram: datagram(request{Op: "deregister", Name: p.Services[svc], Token: p.Tokens[c]})},
				op{Kind: opRestore, Service: svc, Datagram: register})
		}
		p.Clients = append(p.Clients, steps)
	}
	return p, nil
}

func expect(rs []registry.Result) []hitKey {
	out := make([]hitKey, 0, len(rs))
	for _, r := range rs {
		out = append(out, hitKey{r.Entry.Service, r.Entry.Capability.Name, r.Distance})
	}
	sortHits(out)
	return out
}

func sortHits(h []hitKey) {
	sort.Slice(h, func(i, j int) bool { return lessHit(h[i], h[j]) })
}

// verdict compares a query answer with the oracle. Hits of services in
// absent (withdrawn while the query was in flight) may be missing;
// anything else missing, extra or at another distance is wrong.
func verdict(expectHits, got []hitKey, absent func(service string) bool) bool {
	sortHits(got)
	i, j := 0, 0
	for i < len(expectHits) || j < len(got) {
		switch {
		case i < len(expectHits) && j < len(got) && expectHits[i] == got[j]:
			i++
			j++
		case i < len(expectHits) && (j == len(got) || lessHit(expectHits[i], got[j])):
			if !absent(expectHits[i].Service) {
				return false
			}
			i++
		default:
			return false
		}
	}
	return true
}

func lessHit(a, b hitKey) bool {
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	if a.Capability != b.Capability {
		return a.Capability < b.Capability
	}
	return a.Distance < b.Distance
}
