// Command metricsmoke is the CI smoke check behind `make metrics-smoke`:
// it builds sdpd, boots it with the HTTP gateway enabled, scrapes
// GET /metrics, and fails unless the payload is well-formed Prometheus
// text exposition carrying the acceptance metrics (phase timers, registry
// histograms, discovery counters, the Bloom false-positive-rate gauge).
//
// Usage:
//
//	go run ./cmd/metricsmoke
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"sariadne/internal/telemetry"
)

// required is the acceptance surface: every layer's instruments must show
// up on one scrape of a freshly booted daemon.
var required = []string{
	"sdpd_requests_total",
	"ontology_parse_seconds",
	"ontology_classify_seconds",
	"registry_insert_seconds",
	"registry_query_seconds",
	"discovery_forwards_sent_total",
	"discovery_bloom_false_positive_rate",
	"match_encoded_ops_total",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "metricsmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("metricsmoke: ok")
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func run() error {
	tmp, err := os.MkdirTemp("", "metricsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "sdpd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sdpd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build sdpd: %w", err)
	}

	httpAddr, err := freePort()
	if err != nil {
		return err
	}
	daemon := exec.Command(bin, "-listen", "127.0.0.1:0", "-http", httpAddr)
	daemon.Stdout, daemon.Stderr = os.Stderr, os.Stderr
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("start sdpd: %w", err)
	}
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()

	body, err := scrape("http://" + httpAddr + "/metrics")
	if err != nil {
		return err
	}
	return validate(body)
}

// scrape polls until the daemon's gateway is up, then returns the payload.
func scrape(url string) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return "", fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				return "", fmt.Errorf("GET /metrics: content type %q", ct)
			}
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				return "", err
			}
			return string(data), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("gateway never came up: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func validate(body string) error {
	if strings.TrimSpace(body) == "" {
		return fmt.Errorf("empty exposition")
	}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !telemetry.ValidExpositionLine(line) {
			return fmt.Errorf("malformed exposition line %d: %q", i+1, line)
		}
	}
	for _, name := range required {
		if !strings.Contains(body, name) {
			return fmt.Errorf("required metric %s missing from /metrics", name)
		}
	}
	return nil
}
