package main

import (
	"cmp"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// e2e is the end-to-end figures of one live run.
type e2e struct {
	throughput       float64 // median ops/s over the kept windows
	queryP50         float64 // µs, median of the kept windows' query p50s
	queryP90         float64 // and of their p90s
	queryP99         float64 // and of their p99s
	publishP50       float64 // µs over every mutation in the kept windows
	publishP99       float64
	queries, publish int
	cpuPerOp         float64 // daemon µs of CPU per completed op
	rssMB            float64
	kept, windows    int
	stealKept        float64 // mean host steal share of the kept windows
	stealAll         float64 // and of all windows
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 10 * time.Millisecond

// stealQuiet is the host steal share at or below which a window counts
// as undisturbed.
const stealQuiet = 0.02

// summarize reduces the measured span to the end-to-end figures, as
// medians over one-second windows. It keeps the windows in which the
// hypervisor stole at most stealQuiet of this machine's CPU time, or the
// least-stolen third of them if fewer qualify, so another guest's burst
// on the host does not count against the program.
func summarize(lr *loadResult) e2e {
	nwin := len(lr.winSteal)
	type window struct {
		ops      float64
		q, muts  []float64
		steal    float64
		cpuTicks int64
	}
	wins := make([]window, nwin)
	for i := range wins {
		wins[i].steal, wins[i].cpuTicks = lr.winSteal[i], lr.winCPU[i]
	}
	for _, s := range lr.samples {
		w := &wins[min(int(s.at/time.Second), nwin-1)]
		w.ops++
		if s.kind == opQuery {
			w.q = append(w.q, us(s.latency))
		} else {
			w.muts = append(w.muts, us(s.latency))
		}
	}
	r := e2e{windows: nwin, rssMB: lr.rssMB, stealAll: mean(lr.winSteal)}
	slices.SortStableFunc(wins, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	quiet := 0
	for quiet < nwin && wins[quiet].steal <= stealQuiet {
		quiet++
	}
	wins = wins[:max(quiet, (nwin+2)/3)]
	r.kept = len(wins)
	var ops, p50s, p90s, p99s, muts []float64
	var opSum float64
	var cpu int64
	for _, w := range wins {
		ops = append(ops, w.ops)
		opSum += w.ops
		cpu += w.cpuTicks
		r.stealKept += w.steal / float64(len(wins))
		r.queries += len(w.q)
		muts = append(muts, w.muts...)
		if len(w.q) > 0 {
			p50s = append(p50s, percentile(w.q, 0.5))
			p90s = append(p90s, percentile(w.q, 0.9))
			p99s = append(p99s, percentile(w.q, 0.99))
		}
	}
	r.publish = len(muts)
	r.throughput = median(ops)
	r.queryP50, r.queryP90, r.queryP99 = median(p50s), median(p90s), median(p99s)
	r.publishP99, r.publishP50 = percentile(muts, 0.99), percentile(muts, 0.5)
	r.cpuPerOp = ratio(us(time.Duration(cpu)*clockTick), opSum)
	return r
}
