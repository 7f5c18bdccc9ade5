package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"mendel/internal/core"
	"mendel/internal/datagen"
	"mendel/internal/gateway"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// serve-mixed scale and load: 12 TCP nodes in 4 groups holding 200×400 aa,
// behind the gateway; an open loop of 60 arrivals per second over two
// connections, every 20th an ingest of one new 300-aa sequence, the rest
// 96-aa searches, half homologs (12% substitutions) and half foreign.
const (
	serveNodes       = 12
	serveSeqs        = 200
	serveRate        = 60
	serveConns       = 2
	serveIngestEvery = 20
	serveWarmup      = 40
	serveDirectEvery = 10 // traced runs send every 10th search in-process
	// Set-up here is a fraction of a second, so more repeats steady its
	// median at little cost.
	serveSetupRepeats = 5
)

// serveOp is one scheduled arrival.
type serveOp struct {
	ingest   bool
	direct   bool // in-process SearchTrace on the same cluster instead of HTTP
	body     []byte
	query    []byte
	source   string // homolog searches: the sequence the query was cut from
	residues int    // ingests: residues added
	found    bool   // homolog searches: the source was among the hits
}

// makeServeOps builds n arrivals; first numbers the ingested sequences.
func makeServeOps(rng *rand.Rand, g *datagen.Generator, db *seq.Set, n, first int, direct bool) []serveOp {
	ops := make([]serveOp, n)
	searches := 0
	for i := range ops {
		op := &ops[i]
		if (first+i+1)%serveIngestEvery == 0 {
			data := g.Sequence(300)
			op.ingest, op.residues = true, len(data)
			op.body, _ = json.Marshal(gateway.IngestRequest{Sequences: []gateway.IngestSequence{{Name: fmt.Sprintf("ingest%06d", first+i), Data: string(data)}}})
			continue
		}
		if searches%2 == 0 {
			op.query, op.source = homologWindow(rng, g, db)
		} else {
			op.query = g.Sequence(96)
		}
		op.direct = direct && searches%serveDirectEvery == serveDirectEvery-1
		searches++
		op.body, _ = json.Marshal(gateway.SearchRequest{Query: string(op.query)})
	}
	return ops
}

type serveEnv struct {
	tc     *tcpCluster
	rec    *recorder
	client *http.Client
	mu     sync.Mutex
	traces map[uint64]*core.Trace // direct searches by root span, traced phase only
}

// setupServe generates the data, starts the nodes, indexes and starts the
// gateway. It returns the set-up time and the live heap per residue.
func setupServe(seed int64, rec *recorder) (*serveEnv, *seq.Set, time.Duration, float64, error) {
	t0 := time.Now()
	db, err := datagen.New(seq.Protein, seed).Database(serveSeqs, 400, 40, "db")
	if err != nil {
		return nil, nil, 0, 0, err
	}
	gen := time.Since(t0)
	before := liveHeap()
	t1 := time.Now()
	tc, err := newTCPCluster(serveNodes, rec)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := tc.cluster.Index(context.Background(), db); err != nil {
		tc.close()
		return nil, nil, 0, 0, fmt.Errorf("index: %w", err)
	}
	if err := tc.serve(rec); err != nil {
		tc.close()
		return nil, nil, 0, 0, err
	}
	setup := gen + time.Since(t1)
	perResidue := float64(liveHeap()-before) / float64(tc.cluster.TotalResidues())
	env := &serveEnv{
		tc:     tc,
		rec:    rec,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}},
		traces: map[uint64]*core.Trace{},
	}
	return env, db, setup, perResidue, nil
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.tc.close()
}

func (e *serveEnv) post(path string, body []byte) (int, []byte, error) {
	resp, err := e.client.Post(e.tc.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (e *serveEnv) residues() (int, error) {
	resp, err := e.client.Get(e.tc.url + "/v1/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st gateway.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("status: %w", err)
	}
	return st.Residues, nil
}

// do performs one arrival and records its status and, for a homolog
// search, whether its source sequence was among the hits.
func (e *serveEnv) do(op *serveOp) error {
	if op.direct {
		return e.direct(op)
	}
	path := "/v1/search"
	if op.ingest {
		path = "/v1/ingest"
	}
	status, body, err := e.post(path, op.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	if op.ingest {
		return nil
	}
	var sr gateway.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("search response: %w", err)
	}
	for _, h := range sr.Hits {
		op.found = op.found || h.Name == op.source
	}
	return nil
}

// direct runs a search in-process on the served cluster, as a recorded
// core-layer root span while the recorder is enabled.
func (e *serveEnv) direct(op *serveOp) error {
	ctx := context.Background()
	tracing := e.rec != nil && e.rec.enabled.Load()
	var s span
	if tracing {
		ctx, s = e.rec.root(ctx, layerCore, "search")
		e.rec.noteQuery(string(op.query), s.ID)
	}
	hits, tr, err := e.tc.cluster.SearchTrace(ctx, op.query, wire.DefaultParams())
	if tracing {
		s.End = e.rec.now()
		s.Err = err != nil
		e.rec.add(s)
	}
	if err != nil {
		return err
	}
	op.found = hasHit(hits, op.source)
	if tracing {
		e.mu.Lock()
		e.traces[s.ID] = tr
		e.mu.Unlock()
	}
	return nil
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	searchLat, ingestLat, late []float64
	sent, ok, failed           int
	homologs, found, ingested  int
	span                       time.Duration // first due time to last completion
}

func (e *serveEnv) runPhase(o *outcome, name string, ops []serveOp) phaseStats {
	samples := openLoop(len(ops), time.Second/serveRate, serveConns, func(i int) error { return e.do(&ops[i]) })
	var ps phaseStats
	for _, s := range samples {
		ps.span = max(ps.span, s.done.Sub(samples[0].due))
	}
	for i, s := range samples {
		op := &ops[i]
		ps.sent++
		ps.late = append(ps.late, ms(s.late()))
		if s.err != nil {
			ps.failed++
			fmt.Fprintf(os.Stderr, "%s: arrival %d failed: %v\n", name, i, s.err)
			continue
		}
		ps.ok++
		switch {
		case op.ingest:
			ps.ingestLat = append(ps.ingestLat, ms(s.latency()))
			ps.ingested += op.residues
		case !op.direct:
			ps.searchLat = append(ps.searchLat, ms(s.latency()))
		}
		if op.source != "" {
			ps.homologs++
			if op.found {
				ps.found++
			}
		}
	}
	o.attempted += ps.sent
	o.failed += ps.failed
	fmt.Fprintf(os.Stderr, "phase %-8s sent=%d ok=%d failed=%d late_p99=%.3fms search_p50=%.3fms ingest_p50=%.3fms\n",
		name, ps.sent, ps.ok, ps.failed, percentile(ps.late, 99), median(ps.searchLat), median(ps.ingestLat))
	return ps
}

// runLoad runs the warm-up and the given phases, checks that the cluster's
// residue count grew by exactly the residues ingested and that every homolog
// search reported its source, and returns the phases' statistics. hook, if
// set, is called before each measured phase p and with p = len(sizes) after
// the last.
func (e *serveEnv) runLoad(o *outcome, seed int64, db *seq.Set, sizes []int, names []string, direct bool, hook func(p int)) ([]phaseStats, float64, error) {
	rng := rand.New(rand.NewSource(seed))
	g := datagen.New(seq.Protein, seed+1)
	start, err := e.residues()
	if err != nil {
		return nil, 0, err
	}
	ingested, homologs, found := 0, 0, 0
	first := 0
	var out []phaseStats
	for p, n := range append([]int{serveWarmup}, sizes...) {
		ops := makeServeOps(rng, g, db, n, first, direct)
		first += n
		name := "warmup"
		if p > 0 {
			name = names[p-1]
			if hook != nil {
				hook(p - 1)
			}
		}
		ps := e.runPhase(o, name, ops)
		ingested += ps.ingested
		homologs += ps.homologs
		found += ps.found
		if p > 0 {
			out = append(out, ps)
		}
	}
	if hook != nil {
		hook(len(sizes))
	}
	end, err := e.residues()
	if err != nil {
		return nil, 0, err
	}
	o.check(end-start == ingested, "status residues grew by %d, %d were ingested", end-start, ingested)
	o.check(found == homologs, "%d of %d homolog searches did not report their source sequence", homologs-found, homologs)
	return out, float64(found) / float64(max(homologs, 1)), nil
}

func runServe(a runArgs) (*outcome, error) {
	o := newOutcome()
	if a.trace {
		return traceServe(a, o)
	}
	var setups, perResidue []float64
	var env *serveEnv
	var db *seq.Set
	for i := 0; i < serveSetupRepeats; i++ {
		if env != nil {
			env.close()
			env = nil // let the previous cluster go before measuring the next
		}
		e, d, setup, bpr, err := setupServe(a.seed, nil)
		if err != nil {
			return nil, err
		}
		env, db = e, d
		setups = append(setups, setup.Seconds())
		perResidue = append(perResidue, bpr)
	}
	defer env.close()
	n := int(a.seconds.Seconds() * serveRate)
	phases, recall, err := env.runLoad(o, a.seed, db, []int{n}, []string{"measure"}, false, nil)
	if err != nil {
		return nil, err
	}
	ps := phases[0]
	setE2E(o, setups, perResidue, ps.searchLat, latencyRule{tailP: 90, windows: 10, best: true}, float64(len(ps.searchLat))/ps.span.Seconds(), recall)
	fmt.Fprintf(os.Stderr, "ingest: n=%d p50=%.3fms\n", len(ps.ingestLat), median(ps.ingestLat))
	return o, nil
}

func traceServe(a runArgs, o *outcome) (*outcome, error) {
	rec := newRecorder()
	env, db, _, _, err := setupServe(a.seed, rec)
	if err != nil {
		return nil, err
	}
	defer env.close()
	n := int(a.seconds.Seconds() * serveRate / traceBlocks)
	alt := &alternator{rec: rec, c: env.tc.cluster}
	sizes := make([]int, traceBlocks)
	names := make([]string, traceBlocks)
	for b := range sizes {
		sizes[b], names[b] = n, "untraced"
		if b%2 == 1 {
			names[b] = "traced"
		}
	}
	phases, _, err := env.runLoad(o, a.seed, db, sizes, names, true, func(p int) {
		if p > 0 {
			alt.stop()
		}
		if p < traceBlocks {
			alt.start(p%2 == 1)
		}
	})
	if err != nil {
		return nil, err
	}
	if alt.err != nil {
		return nil, alt.err
	}
	var plain, traced phaseStats
	for b, ps := range phases {
		side := &plain
		if b%2 == 1 {
			side = &traced
		}
		side.sent += ps.sent
		side.ingested += ps.ingested
		side.searchLat = append(side.searchLat, ps.searchLat...)
		side.ingestLat = append(side.ingestLat, ps.ingestLat...)
		side.late = append(side.late, ps.late...)
	}
	runtimeMetrics(o, alt.rt, plain.sent)

	t := newSpanTree(rec.snapshot())
	gw := t.roots(layerGateway, "search")
	ingests := t.roots(layerGateway, "ingest")
	direct := t.roots(layerCore, "search")
	layerMetrics(o, t, gw, len(gw)+len(direct), traced.ingested, core.DefaultSearchBudget)
	indexMetrics(o, t, ingests)
	traceMetrics(o, t, direct, env.traces)
	m := o.metrics
	m["gateway.handle_ms"] = meanMS(gw, dur)
	m["gateway.self_ms"] = meanMS(gw, t.self)
	for _, r := range append(gw, ingests...) {
		if r.Status == http.StatusTooManyRequests || r.Status == http.StatusGatewayTimeout {
			m["gateway.refused"]++
		}
	}
	m["node.busy_share"] = alt.busyShare()
	if err := blockBalance(o, env.tc.cluster); err != nil {
		return nil, err
	}
	m["loadgen.late_ms_p99"] = percentile(plain.late, 99)
	m["loadgen.ingest_p50_ms"] = median(plain.ingestLat)
	m["trace.overhead"] = median(traced.searchLat) - median(plain.searchLat)
	m["self.unattributed_ms"] = mean(traced.searchLat) - meanMS(gw, dur)

	// The gap between a search through the gateway and the same search sent
	// in-process, on the same cluster under the same load, by layer.
	gwB := t.breakdown(gw)
	dB := t.breakdown(direct)
	printBreakdown("serve-mixed /v1/search through the gateway", gwB, meanMS(gw, dur), m["self.unattributed_ms"])
	printBreakdown("serve-mixed direct SearchTrace", dB, meanMS(direct, dur), 0)
	fmt.Fprintf(os.Stderr, "gateway search p50=%.3fms (from due time) vs direct SearchTrace p50=%.3fms; mean gap by layer:\n",
		median(traced.searchLat), percentileSpans(direct, 50))
	for _, l := range []string{layerGateway, layerCore, layerTransport, layerNode} {
		fmt.Fprintf(os.Stderr, "  %-14s %+9.3f\n", l, gwB[l]-dB[l])
	}
	fmt.Fprintf(os.Stderr, "  %-14s %+9.3f\n", "unattributed", m["self.unattributed_ms"])
	return o, rec.dump(spanPath(a))
}

func percentileSpans(xs []*span, p float64) float64 {
	ds := make([]float64, len(xs))
	for i, s := range xs {
		ds[i] = float64(dur(s)) / 1e6
	}
	return percentile(ds, p)
}
