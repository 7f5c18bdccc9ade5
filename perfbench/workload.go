package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"mendel/internal/core"
)

// setupRepeats is how many times a --trace 0 run sets its cluster up;
// setup_s is the median.
const setupRepeats = 3

// latencyRule is how a workload reduces its operations' latencies, in time
// order, to op_p50_ms and op_tail_ms.
type latencyRule struct {
	tailP   float64 // percentile reported as op_tail_ms
	windows int     // contiguous stretches of the run the tail is taken over
	// best reports the lowest window's p50 and tail percentile; otherwise
	// op_p50_ms is the whole run's median and op_tail_ms the median over
	// the windows.
	best bool
}

// setE2E fills the end-to-end metrics. lat are the measured operations'
// latencies in ms, in time order.
func setE2E(o *outcome, setups, perResidue, lat []float64, r latencyRule, throughput, recall float64) {
	m := o.metrics
	m["setup_s"] = median(setups)
	m["index_bytes_per_residue"] = median(perResidue)
	how := "median"
	if r.best {
		how = "lowest"
		m["op_p50_ms"] = bestWindowPercentile(lat, 50, r.windows)
		m["op_tail_ms"] = bestWindowPercentile(lat, r.tailP, r.windows)
	} else {
		m["op_p50_ms"] = median(lat)
		m["op_tail_ms"] = windowedPercentile(lat, r.tailP, r.windows)
	}
	m["throughput_per_s"] = throughput
	m["recall"] = recall
	fmt.Fprintf(os.Stderr, "latency: n=%d mean=%.3fms p50=%.3fms", len(lat), mean(lat), median(lat))
	for _, p := range []float64{90, 95, 99} {
		fmt.Fprintf(os.Stderr, " p%g=%.3fms(%.1f beyond)", p, percentile(lat, p), float64(len(lat))*(100-p)/100)
	}
	fmt.Fprintf(os.Stderr, "\nlatency: op_p50_ms=%.3fms op_tail_ms=%.3fms (p%g), the %s of %d windows\n",
		m["op_p50_ms"], m["op_tail_ms"], r.tailP, how, r.windows)
	if r.best {
		fmt.Fprintf(os.Stderr, "latency: window p50s %.2f, window p%g %.2f\n",
			windowPercentiles(lat, 50, r.windows), r.tailP, windowPercentiles(lat, r.tailP, r.windows))
	}
	if best, ok := tailPercentile(len(lat) / r.windows); ok {
		fmt.Fprintf(os.Stderr, "latency: with %d samples per window, p%g is the highest percentile with ten beyond it\n", len(lat)/r.windows, best)
	} else {
		fmt.Fprintf(os.Stderr, "latency: with %d samples per window, no percentile has ten beyond it\n", len(lat)/r.windows)
	}
}

// busyNS sums the nodes' local-search busy time.
func busyNS(c *core.Cluster) (int64, error) {
	stats, err := c.Stats(context.Background())
	if err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	var sum int64
	for _, s := range stats {
		sum += s.BusyNS
	}
	return sum, nil
}

// blockBalance records the most loaded node's block count over the mean
// (the Fig 5 balance).
func blockBalance(o *outcome, c *core.Cluster) error {
	counts, err := nodeBlocks(c)
	if err != nil {
		return err
	}
	var sum, most int
	for _, n := range counts {
		sum += n
		most = max(most, n)
	}
	if sum > 0 {
		o.metrics["node.blocks_max_over_mean"] = float64(most) * float64(len(counts)) / float64(sum)
	}
	return nil
}

// nodeBlocks returns each node's stored block count, by node address.
func nodeBlocks(c *core.Cluster) (map[string]int, error) {
	stats, err := c.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := map[string]int{}
	for _, s := range stats {
		out[s.Node] = s.Blocks
	}
	return out, nil
}

// spanPath is where a traced run writes its spans, under the checkout's
// build directory.
func spanPath(a runArgs) string {
	return fmt.Sprintf(".bench_build/spans/%s-seed%d.json", a.workload, a.seed)
}

// traceBlocks is how many blocks a --trace 1 run alternates between the
// decorators disabled and recording, so that drift over the run affects
// both sides of trace.overhead alike.
const traceBlocks = 4

// alternator switches a traced run between untraced and traced blocks. It
// sums the runtime counters' growth over the untraced blocks, and the
// nodes' busy time and the wall time over the traced ones.
type alternator struct {
	rec *recorder
	c   *core.Cluster

	traced bool
	r0     rtSnap
	busy0  int64
	t0     time.Time

	rt   rtSnap
	busy int64
	wall time.Duration
	err  error
}

func (a *alternator) start(traced bool) {
	a.traced = traced
	if !traced {
		a.r0 = readRuntime()
		return
	}
	a.busy0 = a.readBusy()
	a.t0 = time.Now()
	a.rec.enabled.Store(true)
}

func (a *alternator) stop() {
	if !a.traced {
		a.rt = a.rt.plus(readRuntime().minus(a.r0))
		return
	}
	a.rec.enabled.Store(false)
	a.wall += time.Since(a.t0)
	a.busy += a.readBusy() - a.busy0
}

// readBusy reads the nodes' busy time; runs that build a fresh cluster per
// operation have none to read.
func (a *alternator) readBusy() int64 {
	if a.c == nil {
		return 0
	}
	b, err := busyNS(a.c)
	if err != nil && a.err == nil {
		a.err = err
	}
	return b
}

// busyShare is the nodes' busy time over the traced blocks' wall time
// times GOMAXPROCS.
func (a *alternator) busyShare() float64 {
	if a.wall <= 0 {
		return 0
	}
	return float64(a.busy) / float64(a.wall.Nanoseconds()*int64(gomaxprocs()))
}
