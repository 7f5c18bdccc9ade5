package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mendel/internal/core"
	"mendel/internal/datagen"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// homolog-search scale: 300 background sequences of ~500 aa plus 40 planted
// families of 8 mutants of a 400-aa target, ≈277k residues, so every node's
// tree is larger than the 4096-evaluation search budget.
const (
	homologNodes      = 20
	homologBackground = 300
	homologFamilies   = 40
	homologMembers    = 8
	homologClients    = 2 // concurrent clients of the untimed recall pass
	// The timed closed loop has one client: one query's fan-out already
	// keeps both cores of a 2-vCPU host busy, and a second client only adds
	// queueing between the two that makes the latency swing from run to run.
	homologTimedClients = 1
	homologRecheck      = 8 // first-pass queries repeated after the timed phase
	recallFloor         = 0.5
)

// familyLevels are the planted families' similarity to their target,
// assigned round-robin: the Fig 6d sensitivity levels.
var familyLevels = []float64{0.9, 0.3, 0.25, 0.2}

type homologData struct {
	db      *seq.Set
	targets [][]byte
}

func makeHomologData(seed int64) (*homologData, error) {
	g := datagen.New(seq.Protein, seed)
	db, err := g.Database(homologBackground, 500, 50, "bg")
	if err != nil {
		return nil, err
	}
	d := &homologData{db: db}
	for f := 0; f < homologFamilies; f++ {
		target := g.Sequence(400)
		d.targets = append(d.targets, target)
		for m := 0; m < homologMembers; m++ {
			if _, err := db.Add(fmt.Sprintf("fam%02d_%d", f, m), g.MutateToSimilarity(target, familyLevels[f%len(familyLevels)])); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// familyOf returns the planted family a hit's sequence name belongs to, or
// -1 for a background sequence.
func familyOf(name string) int {
	if !strings.HasPrefix(name, "fam") || len(name) < 5 {
		return -1
	}
	f, err := strconv.Atoi(name[3:5])
	if err != nil {
		return -1
	}
	return f
}

// homologEnv is one indexed cluster with its data.
type homologEnv struct {
	data    *homologData
	cluster *core.Cluster
	rec     *recorder

	mu     sync.Mutex
	traces map[uint64]*core.Trace // by root span, traced phase only
}

// setupHomolog generates the data, starts the cluster and indexes it. It
// returns the set-up time (data generation, cluster start and Index) and
// the live heap the cluster holds per residue.
func setupHomolog(seed int64, rec *recorder) (*homologEnv, time.Duration, float64, error) {
	t0 := time.Now()
	data, err := makeHomologData(seed)
	if err != nil {
		return nil, 0, 0, err
	}
	gen := time.Since(t0)
	before := liveHeap()
	t1 := time.Now()
	c, err := newMemCluster(homologNodes, rec)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := c.Index(context.Background(), data.db); err != nil {
		return nil, 0, 0, fmt.Errorf("index: %w", err)
	}
	setup := gen + time.Since(t1)
	perResidue := float64(liveHeap()-before) / float64(c.TotalResidues())
	return &homologEnv{data: data, cluster: c, rec: rec, traces: map[uint64]*core.Trace{}}, setup, perResidue, nil
}

// search runs one query, as a recorded core-layer root span while the
// recorder is enabled.
func (e *homologEnv) search(q []byte) ([]core.Hit, error) {
	ctx := context.Background()
	if e.rec == nil || !e.rec.enabled.Load() {
		hits, _, err := e.cluster.SearchTrace(ctx, q, wire.DefaultParams())
		return hits, err
	}
	ctx, s := e.rec.root(ctx, layerCore, "search")
	hits, tr, err := e.cluster.SearchTrace(ctx, q, wire.DefaultParams())
	s.End = e.rec.now()
	s.Err = err != nil
	e.rec.add(s)
	if err == nil {
		e.mu.Lock()
		e.traces[s.ID] = tr
		e.mu.Unlock()
	}
	return hits, err
}

// hitKey renders a hit list for exact comparison.
func hitKey(hits []core.Hit) string {
	var b strings.Builder
	for _, h := range hits {
		a := h.Alignment
		fmt.Fprintf(&b, "%d:%d:%d-%d:%d-%d:%.4g;", h.Seq, a.Score, a.QStart, a.QEnd, a.SStart, a.SEnd, h.E)
	}
	return b.String()
}

// recallPass runs one 95%-identity query per family target from each of the
// two clients concurrently, in opposite orders. It checks that both
// clients got identical hit lists and returns the mean share of each
// family's planted members found, the first pass's hit lists and queries.
func (e *homologEnv) recallPass(o *outcome, seed int64) (float64, []string, [][]byte) {
	g := datagen.New(seq.Protein, seed^0x5eed)
	queries := make([][]byte, homologFamilies)
	for f := range queries {
		queries[f] = g.MutateToSimilarity(e.data.targets[f], 0.95)
	}
	keys := [homologClients][]string{}
	shares := make([]float64, homologFamilies)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < homologClients; c++ {
		keys[c] = make([]string, homologFamilies)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < homologFamilies; k++ {
				f := k
				if c == 1 {
					f = homologFamilies - 1 - k
				}
				hits, err := e.search(queries[f])
				mu.Lock()
				o.attempted++
				if err != nil {
					o.failed++
					mu.Unlock()
					continue
				}
				keys[c][f] = hitKey(hits)
				if c == 0 {
					found := map[seq.ID]bool{}
					for _, h := range hits {
						if familyOf(h.Name) == f {
							found[h.Seq] = true
						}
					}
					shares[f] = float64(len(found)) / homologMembers
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for f := range queries {
		o.check(keys[0][f] == keys[1][f], "family %d query: the two clients got different hit lists", f)
	}
	return mean(shares), keys[0], queries
}

// timedSearches runs the closed loop: each client sends fresh 95%-identity
// copies of family targets back to back for d.
func (e *homologEnv) timedSearches(o *outcome, seed int64, d time.Duration) []float64 {
	gens := make([]*datagen.Generator, homologTimedClients)
	for c := range gens {
		gens[c] = datagen.New(seq.Protein, seed*1000003+int64(c)+1)
	}
	counter := make([]int, homologTimedClients)
	lat, failed := closedLoop(homologTimedClients, d, func(c int) error {
		f := counter[c] % homologFamilies
		counter[c]++
		_, err := e.search(gens[c].MutateToSimilarity(e.data.targets[f], 0.95))
		return err
	})
	o.attempted += len(lat) + failed
	o.failed += failed
	return lat
}

// recheck repeats the first pass's first queries and checks the hit lists
// are unchanged.
func (e *homologEnv) recheck(o *outcome, queries [][]byte, keys []string) {
	for f := 0; f < homologRecheck; f++ {
		hits, err := e.search(queries[f])
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		o.check(hitKey(hits) == keys[f], "family %d query: hit list changed between passes", f)
	}
}

func runHomolog(a runArgs) (*outcome, error) {
	o := newOutcome()
	if a.trace {
		return traceHomolog(a, o)
	}
	var setups, perResidue []float64
	var env *homologEnv
	for i := 0; i < setupRepeats; i++ {
		env = nil // let the previous cluster go before measuring the next
		e, setup, bpr, err := setupHomolog(a.seed, nil)
		if err != nil {
			return nil, err
		}
		env = e
		setups = append(setups, setup.Seconds())
		perResidue = append(perResidue, bpr)
	}
	recall, keys, queries := env.recallPass(o, a.seed)
	o.check(recall >= recallFloor, "family_recall %.3f below the floor %.2f", recall, recallFloor)
	lat := env.timedSearches(o, a.seed, a.seconds)
	env.recheck(o, queries, keys)
	setE2E(o, setups, perResidue, lat, latencyRule{tailP: 95, windows: 3}, float64(len(lat))/a.seconds.Seconds(), recall)
	return o, nil
}

func traceHomolog(a runArgs, o *outcome) (*outcome, error) {
	rec := newRecorder()
	env, _, _, err := setupHomolog(a.seed, rec)
	if err != nil {
		return nil, err
	}
	recall, keys, queries := env.recallPass(o, a.seed)
	o.check(recall >= recallFloor, "family_recall %.3f below the floor %.2f", recall, recallFloor)
	alt := &alternator{rec: rec, c: env.cluster}
	var plain, traced []float64
	for b := 0; b < traceBlocks; b++ {
		alt.start(b%2 == 1)
		lat := env.timedSearches(o, a.seed+int64(b), a.seconds/traceBlocks)
		alt.stop()
		if b%2 == 1 {
			traced = append(traced, lat...)
		} else {
			plain = append(plain, lat...)
		}
	}
	if alt.err != nil {
		return nil, alt.err
	}
	runtimeMetrics(o, alt.rt, len(plain))
	env.recheck(o, queries, keys)

	t := newSpanTree(rec.snapshot())
	roots := t.roots(layerCore, "search")
	for _, r := range roots {
		tr := env.traces[r.ID]
		// Counter cross-check: the group searches the node decorators saw
		// must account for every vp-tree visit the coordinator counted.
		var seen int64
		t.walk(r, func(s *span, _ int) {
			if s.Layer == layerNode && s.Name == "GroupSearch" {
				seen += s.Visits
			}
		})
		o.check(seen == tr.TreeVisits, "search span %d: node decorators saw %d visits, Trace.TreeVisits=%d", r.ID, seen, tr.TreeVisits)
	}
	crossCheckLocal(o, t)
	layerMetrics(o, t, roots, len(roots), 0, core.DefaultSearchBudget)
	traceMetrics(o, t, roots, env.traces)
	o.metrics["node.busy_share"] = alt.busyShare()
	if err := blockBalance(o, env.cluster); err != nil {
		return nil, err
	}
	o.metrics["trace.overhead"] = median(traced) - median(plain)
	o.metrics["self.unattributed_ms"] = mean(traced) - meanMS(roots, dur)
	printBreakdown("homolog-search Search", t.breakdown(roots), meanMS(roots, dur), o.metrics["self.unattributed_ms"])
	fmt.Fprintf(os.Stderr, "family_recall=%.4f untraced p50=%.3fms traced p50=%.3fms spans=%d\n",
		recall, median(plain), median(traced), len(t.spans))
	return o, rec.dump(spanPath(a))
}

// crossCheckLocal checks that every LocalSearch a node decorator sent was
// handled by exactly one node decorator reporting the same visits.
func crossCheckLocal(o *outcome, t *spanTree) {
	for i := range t.spans {
		c := &t.spans[i]
		if c.Layer != layerTransport || c.Name != "LocalSearch" || c.Err {
			continue
		}
		hs := t.children[c.ID]
		if len(hs) != 1 {
			o.check(false, "LocalSearch span %d: %d handler spans for one call", c.ID, len(hs))
			continue
		}
		o.check(hs[0].Visits == c.Visits, "LocalSearch span %d: caller saw %d visits, handler %d", c.ID, c.Visits, hs[0].Visits)
	}
}
