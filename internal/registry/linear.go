package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sariadne/internal/match"
	"sariadne/internal/profile"
)

// LinearDirectory is the unclassified baseline of Figure 9: advertisements
// are stored in a flat list and every query is matched against every
// stored capability. It shares the Entry/Result vocabulary with Directory
// so the two are drop-in comparable. LinearDirectory is safe for
// concurrent use.
type LinearDirectory struct {
	mu        sync.RWMutex
	matcher   match.ConceptMatcher
	entries   []*Entry            // guarded by mu
	byService map[string][]*Entry // guarded by mu
	// matchOps counts match operations (monotonic). It is atomic rather
	// than mu-protected, so concurrent queries share a read lock instead
	// of serializing on a write lock just to bump the counter.
	matchOps atomic.Uint64
}

// NewLinearDirectory returns an empty flat directory matching with m.
func NewLinearDirectory(m match.ConceptMatcher) *LinearDirectory {
	return &LinearDirectory{matcher: m, byService: make(map[string][]*Entry)}
}

// Register stores every provided capability of the service.
func (d *LinearDirectory) Register(s *profile.Service) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidCapability, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ts := match.Tables(d.matcher)
	for _, c := range s.Provided {
		e := newEntry(ts, s, c)
		d.entries = append(d.entries, e)
		d.byService[s.Name] = append(d.byService[s.Name], e)
	}
	return nil
}

// Deregister removes all capabilities of the named service.
func (d *LinearDirectory) Deregister(service string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, ok := d.byService[service]
	if !ok {
		return false
	}
	delete(d.byService, service)
	dead := make(map[*Entry]bool, len(entries))
	for _, e := range entries {
		dead[e] = true
	}
	kept := d.entries[:0]
	for _, e := range d.entries {
		if !dead[e] {
			kept = append(kept, e)
		}
	}
	d.entries = kept
	return true
}

// Query matches the request against every stored capability and returns
// the matches sorted by ascending distance. Queries only read the entry
// list, so they take the read lock and run concurrently with each other.
// The request is interned once, as in Directory.Query.
func (d *LinearDirectory) Query(req *profile.Capability) []Result {
	creq := match.Compile(match.Tables(d.matcher), req)
	d.mu.RLock()
	defer d.mu.RUnlock()
	var results []Result
	for _, e := range d.entries {
		d.matchOps.Add(1)
		if dist, ok := match.CompiledDistance(d.matcher, &e.compiled, &creq); ok {
			if !profile.QoSSatisfies(e.Capability, req) {
				continue
			}
			results = append(results, Result{Entry: e, Distance: dist})
		}
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Distance != results[j].Distance {
			return results[i].Distance < results[j].Distance
		}
		if results[i].Entry.Service != results[j].Entry.Service {
			return results[i].Entry.Service < results[j].Entry.Service
		}
		return results[i].Entry.Capability.Name < results[j].Entry.Capability.Name
	})
	return results
}

// Best returns the closest match, if any.
func (d *LinearDirectory) Best(req *profile.Capability) (Result, bool) {
	results := d.Query(req)
	if len(results) == 0 {
		return Result{}, false
	}
	return results[0], true
}

// MatchOps returns the cumulative number of match operations performed.
func (d *LinearDirectory) MatchOps() uint64 {
	return d.matchOps.Load()
}

// NumCapabilities returns the number of stored advertisements.
func (d *LinearDirectory) NumCapabilities() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}
