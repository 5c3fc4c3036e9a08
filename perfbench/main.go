// Command perfbench is the repository's benchmark. It starts real sdpd
// processes built from the working tree, preloads them, drives a seeded
// closed loop of two clients over loopback UDP, checks every reply
// against an oracle, and prints the end-to-end metrics. With -trace 1 it
// then replays the same op plan in process through the layers' public
// functions and prints per-layer metrics instead.
//
// It is normally run through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload local-query --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run sets the cluster up; setup_s is the
// median, and the last cluster serves the measured window.
const setupRounds = 5

// warmUp runs the closed loop before the measured window opens.
const warmUp = 2 * time.Second

type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the inputs and op plan derive from")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 adds the in-process traced replay and prints per-layer metrics")
	sdpd := flag.String("sdpd", "", "sdpd binary built from the tree under test")
	work := flag.String("workdir", "", "scratch directory for daemon state and logs")
	source := flag.String("source", "unknown", "identity of the source tree (commit or content hash)")
	flag.Parse()
	if _, ok := specs[*workload]; !ok || *sdpd == "" || *work == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *sdpd, *work, *source)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(workload string, seed int64, window time.Duration, trace bool, bin, dir, source string) (bool, error) {
	fmt.Printf("workload %s seed %d window %s trace %v\n", workload, seed, window, trace)
	fmt.Printf("source %s, %s, nproc %d, clients %d closed-loop over loopback UDP (127.0.0.1)\n",
		source, runtime.Version(), runtime.NumCPU(), clients)
	began := time.Now()
	p, err := buildPlan(workload, seed)
	if err != nil {
		return false, err
	}
	fmt.Printf("plan and oracle built in %.1fs\n", time.Since(began).Seconds())
	var setups []float64
	var cl *cluster
	for i := 0; i < setupRounds; i++ {
		c, s, err := setUp(p, bin, dir)
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		if i < setupRounds-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	lr, err := runLoad(p, cl, warmUp, window)
	cl.stop()
	if err != nil {
		return false, err
	}
	e := summarize(lr)
	setup := median(setups)
	fmt.Printf("ops attempted %d, failed %d; kept %d of %d one-second windows by host steal (%.1f%% stolen in them, %.1f%% in all)\n",
		lr.attempted, lr.failed, e.kept, e.windows, 100*e.stealKept, 100*e.stealAll)
	fmt.Printf("kept windows hold %d queries and %d mutations\n", e.queries, e.publish)
	if lr.firstErr != "" {
		fmt.Printf("first failure: %s\n", lr.firstErr)
	}
	report := []metric{
		{"throughput_ops_s", e.throughput, "1/s"},
		{"query_p50_us", e.queryP50, "us"},
		{"query_p90_us", e.queryP90, "us"},
		{"daemon_cpu_us_per_op", e.cpuPerOp, "us"},
		{"daemon_rss_mb", e.rssMB, "MB"},
		{"setup_s", setup, "s"},
	}
	extra := []metric{
		{"query_p99_us", e.queryP99, "us"},
		{"failed_ops_frac", ratio(float64(lr.failed), float64(lr.attempted)), "ratio"},
	}
	if e.publish > 0 {
		extra = append(extra, metric{"publish_p50_us", e.publishP50, "us"}, metric{"publish_p99_us", e.publishP99, "us"})
	}
	printMetrics(report)
	printMetrics(extra)
	attempted, failed := lr.attempted, lr.failed
	out := report
	if trace {
		tr, err := runTraced(p, dir, e.queryP50)
		if err != nil {
			return false, fmt.Errorf("traced run: %w", err)
		}
		attempted += tr.attempted
		failed += tr.failed
		fmt.Printf("traced replay: %d ops, %d failed\n", tr.attempted, tr.failed)
		printMetrics(tr.metrics)
		printMetrics(tr.report)
		out = tr.metrics
	}
	return failed == 0, printResult(failed == 0, attempted, failed, out)
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-38s %14.3f %s\n", m.name, m.value, m.unit)
	}
}

func printResult(correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
