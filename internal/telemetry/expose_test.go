package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := NewRegistry()
	c := r.NewCounter("demo_ops_total", "operations")
	c.Add(3)
	g := r.NewFloatGauge("demo_rate", "a rate")
	g.Set(0.25)
	h := r.NewSizeHistogram("demo_depth", "depths")
	h.ObserveInt(1)
	h.ObserveInt(3)
	return r
}

func TestWritePrometheusFormat(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP demo_ops_total operations\n",
		"# TYPE demo_ops_total counter\n",
		"demo_ops_total 3\n",
		"# TYPE demo_rate gauge\n",
		"demo_rate 0.25\n",
		"# TYPE demo_depth histogram\n",
		"demo_depth_bucket{le=\"2\"} 1\n",
		"demo_depth_bucket{le=\"4\"} 2\n",
		"demo_depth_bucket{le=\"+Inf\"} 2\n",
		"demo_depth_sum 4\n",
		"demo_depth_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}

// checkExposition validates the Prometheus text format line by line —
// the same check the metrics-smoke CI target applies to a live sdpd.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !ValidExpositionLine(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestValidExpositionLine(t *testing.T) {
	for _, tc := range []struct {
		line  string
		valid bool
	}{
		{`# HELP demo_ops_total operations`, true},
		{`# HELP demo_ops_total`, true},
		{`# TYPE demo_ops_total counter`, true},
		{`# a free-form comment`, true},
		{``, true},
		{`demo_ops_total 3`, true},
		{`demo_rate -0.25`, true},
		{`demo_rate 1.5e-07`, true},
		{`demo_rate NaN`, true},
		{`demo_rate -Inf`, true},
		{`demo_ops_total 3 1700000000000`, true},
		{`demo_depth_bucket{le="+Inf"} 2`, true},
		{`tenant_live_services{tenant="alice"} 1`, true},
		{`alert_fired_total{code="goroutine_growth",severity="warn",} 2`, true},
		{`demo{path="a\\b \"q\" \n"} 1`, true},
		{`demo{} 1`, true},

		{`# TYPE demo_ops_total bogus`, false},
		{`# TYPE demo_ops_total`, false},
		{`demo_ops_total`, false},
		{`tenant_live_services{tenant="alice"}`, false},
		{`tenant_live_services{tenant="alice"} `, false},
		{`tenant_live_services{tenant="alice" 1`, false},
		{`tenant_live_services tenant="alice"} 1`, false},
		{`tenant_live_services{tenant="alice"}} 1`, false},
		{`tenant_live_services{tenant=alice} 1`, false},
		{`tenant_live_services{tenant="alice} 1`, false},
		{`tenant_live_services{tenant="a\qb"} 1`, false},
		{`tenant_live_services{="alice"} 1`, false},
		{`tenant_live_services{a="1",,b="2"} 1`, false},
		{`demo_ops_total three`, false},
		{`demo_ops_total 3 later`, false},
		{`1demo 3`, false},
	} {
		if got := ValidExpositionLine(tc.line); got != tc.valid {
			t.Errorf("ValidExpositionLine(%q) = %v, want %v", tc.line, got, tc.valid)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if got := obj["demo_ops_total"]; got != 3.0 {
		t.Errorf("demo_ops_total = %v, want 3", got)
	}
	h, ok := obj["demo_depth"].(map[string]any)
	if !ok {
		t.Fatalf("demo_depth = %T, want object", obj["demo_depth"])
	}
	if h["count"] != 2.0 {
		t.Errorf("histogram count = %v, want 2", h["count"])
	}
}

func TestWriteSummaryElidesZeroes(t *testing.T) {
	r := testRegistry()
	r.NewCounter("demo_unused_total", "never incremented")
	out := r.Summary()
	if strings.Contains(out, "demo_unused_total") {
		t.Errorf("summary includes zero metric:\n%s", out)
	}
	for _, want := range []string{"-- telemetry --", "demo_ops_total: 3", "demo_depth: count=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
