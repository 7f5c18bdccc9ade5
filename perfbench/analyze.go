package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"

	"mendel/internal/core"
)

// tracedMsgs are the messages whose RPC counts and transport overhead are
// reported per operation.
var tracedMsgs = []string{"GroupSearch", "GroupSearchBatch", "LocalSearch", "FetchRegion", "IndexBlocks", "SketchFetch"}

var (
	searchMsgs = map[string]bool{"GroupSearch": true, "GroupSearchBatch": true, "LocalSearch": true, "FetchRegion": true}
	ingestMsgs = map[string]bool{"Bootstrap": true, "IndexBlocks": true, "BuildIndex": true, "StoreSequences": true, "SketchFetch": true}
)

// spanTree indexes recorded spans by parent, and coalesced batch RPCs by
// the requests they serve.
type spanTree struct {
	spans    []span
	children map[uint64][]*span
	batchOf  map[uint64][]*span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[uint64][]*span{}, batchOf: map[uint64][]*span{}}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
		for _, req := range s.Batch {
			t.batchOf[req] = append(t.batchOf[req], s)
		}
	}
	return t
}

// roots returns the top-level spans of one layer and name, in start order.
func (t *spanTree) roots(layer, name string) []*span {
	var out []*span
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 && s.Batch == nil && s.Layer == layer && s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// direct returns the spans a span directly caused: its children and, for a
// request root, the coalesced batches that carried its work.
func (t *spanTree) direct(s *span) []*span {
	out := append([]*span(nil), t.children[s.ID]...)
	if s.Parent == 0 {
		out = append(out, t.batchOf[s.ID]...)
	}
	return out
}

// walk calls fn on every span below root with its depth (root's direct
// spans are at depth 1).
func (t *spanTree) walk(root *span, fn func(s *span, depth int)) {
	var rec func(s *span, depth int)
	rec = func(s *span, depth int) {
		for _, c := range t.direct(s) {
			fn(c, depth)
			rec(c, depth+1)
		}
	}
	rec(root, 1)
}

func (t *spanTree) self(s *span) int64 {
	var ivs []interval
	for _, c := range t.direct(s) {
		ivs = append(ivs, c.iv())
	}
	return selfTime(s.Start, s.End, ivs)
}

// breakdown is the mean split of root spans' wall time among layers.
func (t *spanTree) breakdown(roots []*span) map[string]float64 {
	sum := map[string]int64{}
	for _, r := range roots {
		var spans []layered
		t.walk(r, func(s *span, depth int) {
			spans = append(spans, layered{interval: s.iv(), layer: s.Layer, depth: depth})
		})
		for l, ns := range attribute(r.Start, r.End, r.Layer, spans) {
			sum[l] += ns
		}
	}
	out := map[string]float64{}
	for l, ns := range sum {
		out[l] = float64(ns) / 1e6 / float64(len(roots))
	}
	return out
}

func meanMS(xs []*span, f func(*span) int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, s := range xs {
		sum += f(s)
	}
	return float64(sum) / 1e6 / float64(len(xs))
}

func dur(s *span) int64 { return s.End - s.Start }

// layerMetrics fills the span-derived per-layer metrics. roots are the
// operations whose wall time is broken down by layer; searches and residues
// scale the per-query and per-residue ratios. RPC counts are per search, or
// per root when the workload runs no searches.
func layerMetrics(o *outcome, t *spanTree, roots []*span, searches int, residues int, budget int) {
	m := o.metrics
	if len(roots) == 0 {
		return
	}
	ops := float64(searches)
	if ops == 0 {
		ops = float64(len(roots))
	}
	for l, v := range t.breakdown(roots) {
		m["self."+l+"_ms"] = v
	}
	var callers []*span
	byName := map[string][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Layer == layerTransport {
			callers = append(callers, s)
		}
		byName[s.Layer+"."+s.Name] = append(byName[s.Layer+"."+s.Name], s)
	}
	var searchBytes, ingestBytes int64
	overhead := map[string][]int64{}
	for _, c := range callers {
		if c.Err {
			m["transport.errors"]++
		}
		if searchMsgs[c.Name] {
			searchBytes += c.Bytes
		}
		if ingestMsgs[c.Name] {
			ingestBytes += c.Bytes
		}
		for _, h := range t.children[c.ID] {
			if h.Layer == layerNode {
				overhead[c.Name] = append(overhead[c.Name], dur(c)-dur(h))
			}
		}
	}
	for _, msg := range tracedMsgs {
		m["transport.rpcs_per_query."+msg] = float64(len(byName["transport."+msg])) / ops
		if xs := overhead[msg]; len(xs) > 0 {
			var sum int64
			for _, x := range xs {
				sum += x
			}
			m["transport.overhead_ms."+msg] = float64(sum) / 1e6 / float64(len(xs))
		}
	}
	if searches > 0 {
		m["wire.bytes_per_query"] = float64(searchBytes) / float64(searches)
	}
	if residues > 0 {
		m["wire.bytes_per_ingested_residue"] = float64(ingestBytes) / float64(residues)
	}
	var batchItems []float64
	for _, c := range byName["transport.GroupSearchBatch"] {
		if c.Node == "" {
			batchItems = append(batchItems, float64(c.Items))
		}
	}
	m["core.coalesce_batch_items"] = mean(batchItems)

	m["node.local_search_ms"] = meanMS(byName["node.LocalSearch"], dur)
	m["node.fetch_region_ms"] = meanMS(byName["node.FetchRegion"], dur)
	m["node.index_blocks_ms"] = meanMS(byName["node.IndexBlocks"], dur)
	entries := append(append([]*span(nil), byName["node.GroupSearch"]...), byName["node.GroupSearchBatch"]...)
	m["node.group_search_self_ms"] = meanMS(entries, t.self)

	// vp-tree work, from the search replies the decorators saw. A group
	// entry point answers its own share without an RPC, so its share is
	// the entry's reply minus the member replies it collected.
	var lookups, exhausted, visits, knnNs, extendNs int64
	addLookups := func(l, v int64) {
		lookups += l
		if budget > 0 && v == l*int64(budget) {
			exhausted += l
		}
	}
	for _, e := range entries {
		ownVisits, ownLookups := e.Visits, int64(e.Offsets)
		for _, c := range t.children[e.ID] {
			if c.Name == "LocalSearch" && !c.Err {
				addLookups(int64(c.Offsets), c.Visits)
				ownVisits -= c.Visits
			}
		}
		addLookups(ownLookups, ownVisits)
		visits += e.Visits
		knnNs += e.KNNNs
		extendNs += e.ExtendNs
	}
	if lookups > 0 {
		m["vptree.visits_per_lookup"] = float64(visits) / float64(lookups)
		m["vptree.budget_exhausted_share"] = float64(exhausted) / float64(lookups)
	}
	if visits > 0 {
		m["vptree.knn_ns_per_visit"] = float64(knnNs) / float64(visits)
	}
	if searches > 0 {
		m["node.ungapped_ms_per_query"] = float64(extendNs) / 1e6 / float64(searches)
	}
}

// indexMetrics fills the per-Index metrics from index operation roots
// (Cluster.Index calls or gateway ingests).
func indexMetrics(o *outcome, t *spanTree, roots []*span) {
	if len(roots) == 0 {
		return
	}
	var refresh, buildMax []float64
	for _, r := range roots {
		var sketch []interval
		var slowest int64
		t.walk(r, func(s *span, _ int) {
			switch {
			case s.Layer == layerTransport && s.Name == "SketchFetch" && s.Node == "":
				sketch = append(sketch, s.iv())
			case s.Layer == layerNode && s.Name == "BuildIndex":
				slowest = max(slowest, dur(s))
			}
		})
		refresh = append(refresh, float64(coveredWithin(r.Start, r.End, sketch))/1e6)
		buildMax = append(buildMax, float64(slowest)/1e6)
	}
	o.metrics["sketch.refresh_ms"] = mean(refresh)
	o.metrics["node.build_index_ms_max"] = mean(buildMax)
}

// traceMetrics fills the core.* and sketch.* metrics of search roots from
// the Trace each search returned and from the spans under it.
func traceMetrics(o *outcome, t *spanTree, roots []*span, traces map[uint64]*core.Trace) {
	if len(roots) == 0 {
		return
	}
	var windows, anchors, gapped, skipped float64
	for _, r := range roots {
		tr := traces[r.ID]
		windows += float64(tr.SubQueries)
		anchors += float64(tr.AnchorsReturned)
		gapped += float64(tr.GappedCandidates)
		skipped += float64(tr.GroupsSkipped)
	}
	n := float64(len(roots))
	o.metrics["core.self_ms"] = meanMS(roots, t.self)
	o.metrics["core.windows_per_query"] = windows / n
	o.metrics["core.groups_per_window"] = groupsPerWindow(t, roots, windows)
	o.metrics["core.anchors_per_query"] = anchors / n
	o.metrics["core.gapped_per_query"] = gapped / n
	o.metrics["sketch.groups_skipped_per_query"] = skipped / n
}

// groupsPerWindow is Σ GroupSearch offsets (each a window routed to one
// group) over Σ windows, from the coordinator's outgoing group searches,
// direct or coalesced.
func groupsPerWindow(t *spanTree, roots []*span, windows float64) float64 {
	if windows == 0 {
		return 0
	}
	var offsets int
	for _, r := range roots {
		for _, s := range t.children[r.ID] {
			if s.Layer == layerTransport && s.Name == "GroupSearch" {
				offsets += s.Offsets
			}
		}
		for _, b := range t.batchOf[r.ID] {
			for i, req := range b.Batch {
				if req == r.ID {
					offsets += b.BatchOff[i]
				}
			}
		}
	}
	return float64(offsets) / windows
}

// rtSnap is a reading of the process's allocation and GC counters.
type rtSnap struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	snap := rtSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = samples[1].Value.Float64()
	}
	return snap
}

func (a rtSnap) minus(b rtSnap) rtSnap {
	return rtSnap{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtSnap) plus(b rtSnap) rtSnap {
	return rtSnap{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// runtimeMetrics fills runtime.* from the counter growth d over ops
// operations.
func runtimeMetrics(o *outcome, d rtSnap, ops int) {
	if ops == 0 {
		return
	}
	o.metrics["runtime.allocs_per_op"] = float64(d.mallocs) / float64(ops)
	o.metrics["runtime.alloc_bytes_per_op"] = float64(d.bytes) / float64(ops)
	if d.totalCPU > 0 {
		o.metrics["runtime.gc_cpu_share"] = d.gcCPU / d.totalCPU
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// printBreakdown writes one row per layer of a mean per-operation
// breakdown, followed by the unattributed remainder.
func printBreakdown(title string, b map[string]float64, total, unattributed float64) {
	fmt.Fprintf(os.Stderr, "%s (mean ms per op, total %.3f):\n", title, total)
	layers := make([]string, 0, len(b))
	for l := range b {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  %-14s %9.3f\n", l, b[l])
	}
	fmt.Fprintf(os.Stderr, "  %-14s %9.3f\n", "unattributed", unattributed)
	fmt.Fprintln(os.Stderr, strings.Repeat("-", 26))
}
