package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

func planBytes(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	p, err := buildPlan(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []string{"publish-mix", "federated-forward"} {
		a, b := planBytes(t, w, 7), planBytes(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different plans", w)
		}
		if bytes.Equal(a, planBytes(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w)
		}
	}
}

func TestPlanKeepsLiveSetAndOwnership(t *testing.T) {
	p, err := buildPlan("publish-mix", 3)
	if err != nil {
		t.Fatal(err)
	}
	mutations := 0
	for c, steps := range p.Clients {
		for i, st := range steps {
			if st.Kind != opQuery {
				mutations++
				if p.Owner[st.Service] != c {
					t.Fatalf("client %d mutates service %d owned by client %d", c, st.Service, p.Owner[st.Service])
				}
			}
			if st.Kind == opWithdraw && (i+1 == len(steps) || steps[i+1].Kind != opRestore || steps[i+1].Service != st.Service) {
				t.Fatalf("client %d step %d: withdraw not followed by its restore", c, i)
			}
			if st.Kind == opQuery && len(st.Expect) == 0 {
				t.Fatalf("client %d step %d: query without a true match", c, i)
			}
		}
	}
	if share := float64(mutations) / float64(2*planSteps); share < 0.2 || share > 0.4 {
		t.Errorf("mutation share %.2f, want about a quarter of the ops plus restores", share)
	}
}

// TestOracleFlagsMissingService plants a fault: a directory preloaded
// with every service but one. Exactly the queries whose true answer
// includes that service must fail the check.
func TestOracleFlagsMissingService(t *testing.T) {
	p, err := buildPlan("local-query", 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplay(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for _, doc := range p.Ontologies {
		if _, err := r.do(0, datagram(request{Op: "add-ontology", Doc: string(doc)})); err != nil {
			t.Fatal(err)
		}
	}
	missing := p.Clients[0][0].Expect[0].Service
	for i, doc := range p.ServiceDocs {
		if p.Services[i] == missing {
			continue
		}
		if _, err := r.do(0, datagram(request{Op: "register", Doc: string(doc)})); err != nil {
			t.Fatal(err)
		}
	}
	var flagged, want int
	for _, st := range p.Clients[0][:200] {
		resp, err := r.do(0, st.Datagram)
		if err != nil {
			t.Fatal(err)
		}
		if !replyMatches(&st, resp) {
			flagged++
		}
		if slices.ContainsFunc(st.Expect, func(h hitKey) bool { return h.Service == missing }) {
			want++
		}
	}
	if want == 0 || flagged != want {
		t.Errorf("oracle flagged %d answers, want the %d that include %s", flagged, want, missing)
	}
}

func TestVerdictAllowsOnlyAbsentServicesMissing(t *testing.T) {
	want := []hitKey{{"a", "cap0", 0}, {"b", "cap0", 1}}
	none := func(string) bool { return false }
	onlyB := func(s string) bool { return s == "b" }
	cases := []struct {
		name   string
		got    []hitKey
		absent func(string) bool
		ok     bool
	}{
		{"exact", []hitKey{{"b", "cap0", 1}, {"a", "cap0", 0}}, none, true},
		{"missing", []hitKey{{"a", "cap0", 0}}, none, false},
		{"missing while withdrawn", []hitKey{{"a", "cap0", 0}}, onlyB, true},
		{"wrong distance", []hitKey{{"a", "cap0", 0}, {"b", "cap0", 2}}, onlyB, false},
		{"extra", []hitKey{{"a", "cap0", 0}, {"b", "cap0", 1}, {"c", "cap0", 0}}, none, false},
		{"empty", nil, none, false},
	}
	for _, c := range cases {
		if got := verdict(want, slices.Clone(c.got), c.absent); got != c.ok {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestTracedCountsMatchTheCode checks the traced run's parse counts
// against what the code implies: one parse per standalone query, two per
// publish, and four at the origin plus one per forward target.
func TestTracedCountsMatchTheCode(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three workloads")
	}
	for _, w := range workloadNames() {
		p, err := buildPlan(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runTraced(p, t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.failed != 0 {
			t.Errorf("%s: %d replayed ops failed", w, tr.failed)
		}
		m := map[string]float64{}
		for _, x := range append(tr.metrics, tr.report...) {
			m[x.name] = x.value
		}
		want := 1.0
		if w == "federated-forward" {
			want = 4 + m["discovery.forwards_per_query"]
		}
		if got := m["discovery.backend_parses_per_query"]; got != want {
			t.Errorf("%s: %v backend parses per query, want %v", w, got, want)
		}
		if w == "publish-mix" && m["discovery.backend_parses_per_publish"] != 2 {
			t.Errorf("%s: %v backend parses per publish, want 2", w, m["discovery.backend_parses_per_publish"])
		}
		if w != "publish-mix" && m["profile.unmarshals_per_op"] != want {
			t.Errorf("%s: %v profile parses per op, want %v", w, m["profile.unmarshals_per_op"], want)
		}
	}
}
