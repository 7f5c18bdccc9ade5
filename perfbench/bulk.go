package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"mendel/internal/core"
	"mendel/internal/datagen"
	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// bulk-ingest scale: a fresh 20-node, 4-group cluster indexes 1600
// sequences of ~500 aa (≈800k residues) per iteration, with no queries in
// the timed part.
const (
	bulkNodes   = 20
	bulkSeqs    = 1600
	bulkMinIter = 3
	bulkProbes  = 20 // self-queries on the last cluster, after timing
)

// bulkRun indexes db into a fresh cluster. It returns the Index wall time,
// the live heap the cluster holds per residue, each node's block count and
// the cluster.
func bulkRun(db *seq.Set, rec *recorder) (time.Duration, float64, map[string]int, *core.Cluster, error) {
	before := liveHeap()
	c, err := newMemCluster(bulkNodes, rec)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	ctx := context.Background()
	var s span
	tracing := rec != nil && rec.enabled.Load()
	if tracing {
		ctx, s = rec.root(ctx, layerCore, "index")
	}
	t0 := time.Now()
	err = c.Index(ctx, db)
	d := time.Since(t0)
	if tracing {
		s.End = rec.now()
		s.Err = err != nil
		rec.add(s)
	}
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("index: %w", err)
	}
	perResidue := float64(liveHeap()-before) / float64(c.TotalResidues())
	counts, err := nodeBlocks(c)
	return d, perResidue, counts, c, err
}

// expectedBlocks is Σ BlockCount over the database: the blocks the cluster
// must hold once (one replica).
func expectedBlocks(db *seq.Set) int {
	cfg := clusterConfig()
	n := 0
	for _, s := range db.Seqs {
		n += invindex.BlockCount(s.Len(), cfg.BlockLen) * cfg.Replicas
	}
	return n
}

// checkPlacement checks one iteration's per-node block counts against Σ
// BlockCount and against the first iteration's counts.
func checkPlacement(o *outcome, counts, first map[string]int, want int) {
	total := 0
	for addr, n := range counts {
		total += n
		if first != nil {
			o.check(first[addr] == n, "node %s holds %d blocks, %d in the first iteration", addr, n, first[addr])
		}
	}
	o.check(total == want, "nodes hold %d blocks, Σ BlockCount is %d", total, want)
}

// homologWindow cuts a 96-aa window out of a random database sequence and
// substitutes 12% of its residues. It returns the query and the source
// sequence's name.
func homologWindow(rng *rand.Rand, g *datagen.Generator, db *seq.Set) ([]byte, string) {
	s := db.Seqs[rng.Intn(len(db.Seqs))]
	start := rng.Intn(s.Len() - 96 + 1)
	return g.Mutate(s.Data[start:start+96], 0.12, 0), s.Name
}

// probeRecall searches homolog windows of random sequences and returns the
// share whose hits include their source.
func probeRecall(o *outcome, c *core.Cluster, db *seq.Set, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	g := datagen.New(seq.Protein, seed)
	found := 0
	for i := 0; i < bulkProbes; i++ {
		q, src := homologWindow(rng, g, db)
		hits, err := c.Search(context.Background(), q, wire.DefaultParams())
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		if hasHit(hits, src) {
			found++
		}
	}
	return float64(found) / bulkProbes
}

func hasHit(hits []core.Hit, name string) bool {
	for _, h := range hits {
		if h.Name == name {
			return true
		}
	}
	return false
}

// bulkLoop runs fresh-cluster Index iterations for d (at least
// bulkMinIter), checking placement on each. It returns the Index latencies
// in ms, the per-residue heap of each, and the last cluster.
func bulkLoop(o *outcome, db *seq.Set, rec *recorder, d time.Duration, first map[string]int) ([]float64, []float64, *core.Cluster, error) {
	want := expectedBlocks(db)
	var lat, perResidue []float64
	var last *core.Cluster
	stop := time.Now().Add(d)
	for len(lat) < bulkMinIter || time.Now().Before(stop) {
		last = nil // let the previous cluster go before measuring the next
		dt, bpr, counts, c, err := bulkRun(db, rec)
		o.attempted++
		if err != nil {
			return nil, nil, nil, err
		}
		last = c
		checkPlacement(o, counts, first, want)
		lat = append(lat, ms(dt))
		perResidue = append(perResidue, bpr)
	}
	return lat, perResidue, last, nil
}

func runBulk(a runArgs) (*outcome, error) {
	o := newOutcome()
	var setups, perResidue []float64
	var db *seq.Set
	var first map[string]int
	var rec *recorder
	if a.trace {
		rec = newRecorder()
	}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if db, err = datagen.New(seq.Protein, a.seed).Database(bulkSeqs, 500, 50, "db"); err != nil {
			return nil, err
		}
		gen := time.Since(t0)
		dt, bpr, counts, _, err := bulkRun(db, rec)
		if err != nil {
			return nil, err
		}
		o.attempted++
		checkPlacement(o, counts, first, expectedBlocks(db))
		if first == nil {
			first = counts
		}
		setups = append(setups, (gen + dt).Seconds())
		perResidue = append(perResidue, bpr)
		if a.trace {
			break
		}
	}
	residues := 0
	for _, s := range db.Seqs {
		residues += s.Len()
	}
	if a.trace {
		return traceBulk(a, o, db, rec, first, residues)
	}
	lat, iterBytes, last, err := bulkLoop(o, db, nil, a.seconds, first)
	if err != nil {
		return nil, err
	}
	recall := probeRecall(o, last, db, a.seed)
	// Residues indexed per second of Index wall time, over all iterations.
	setE2E(o, setups, perResidue, lat, latencyRule{tailP: 90, windows: 1}, float64(residues)/(mean(lat)/1e3), recall)
	o.metrics["index_bytes_per_residue"] = median(iterBytes)
	return o, nil
}

func traceBulk(a runArgs, o *outcome, db *seq.Set, rec *recorder, first map[string]int, residues int) (*outcome, error) {
	want := expectedBlocks(db)
	alt := &alternator{rec: rec}
	var plain, traced []float64
	var last *core.Cluster
	stop := time.Now().Add(a.seconds)
	for i := 0; i < 2*bulkMinIter || time.Now().Before(stop); i++ {
		last = nil // let the previous cluster go before measuring the next
		alt.start(i%2 == 1)
		dt, _, counts, c, err := bulkRun(db, rec)
		alt.stop()
		o.attempted++
		if err != nil {
			return nil, err
		}
		last = c
		checkPlacement(o, counts, first, want)
		if i%2 == 1 {
			traced = append(traced, ms(dt))
		} else {
			plain = append(plain, ms(dt))
		}
	}
	runtimeMetrics(o, alt.rt, len(plain))
	t := newSpanTree(rec.snapshot())
	roots := t.roots(layerCore, "index")
	layerMetrics(o, t, roots, 0, residues*len(roots), core.DefaultSearchBudget)
	indexMetrics(o, t, roots)
	o.metrics["core.index_self_s"] = meanMS(roots, t.self) / 1e3
	if err := blockBalance(o, last); err != nil {
		return nil, err
	}
	o.metrics["trace.overhead"] = median(traced) - median(plain)
	o.metrics["self.unattributed_ms"] = mean(traced) - meanMS(roots, dur)
	printBreakdown("bulk-ingest Index", t.breakdown(roots), meanMS(roots, dur), o.metrics["self.unattributed_ms"])
	fmt.Fprintf(os.Stderr, "untraced Index p50=%.1fms traced p50=%.1fms iterations=%d+%d spans=%d\n",
		median(plain), median(traced), len(plain), len(traced), len(t.spans))
	return o, rec.dump(spanPath(a))
}
