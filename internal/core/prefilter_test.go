package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"mendel/internal/seq"
)

// The query mix spans the prefilter's interesting regimes: short queries
// (one window, where eps-branching routes to groups that hold nothing
// relevant — the main skip source), longer excerpts, and foreign random
// queries matching nothing.
func TestPrefilterBloomExactRecall(t *testing.T) {
	ip := newTestCluster(t, 8, 4)
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	db := buildTestDB(rng, 60, 300)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}

	var queries [][]byte
	for i, ln := range []int{16, 16, 24, 40, 130} {
		s := db.Seqs[(i*13)%len(db.Seqs)]
		start := (i * 37) % (len(s.Data) - ln)
		queries = append(queries, s.Data[start:start+ln])
	}
	for i := 0; i < 5; i++ {
		queries = append(queries, randProtein(rng, 16+8*i))
	}
	// Mutated homologs probe the riskiest regime: heavily substituted
	// windows can lose every intact k-mer while the vp-tree still finds
	// their origin block by metric distance.
	for i, rate := range []float64{0.1, 0.15, 0.2, 0.3} {
		s := db.Seqs[(7*i+3)%len(db.Seqs)]
		queries = append(queries, mutateSubs(rng, s.Data[60:180], rate))
	}

	p := defaultTestParams()
	baseline := make([][]Hit, len(queries))
	for i, q := range queries {
		hits, err := ip.Search(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = hits
	}

	// The bloom prefilter's contract is exact recall: identical hits, in
	// identical order, with identical scores — not merely the same top hit.
	ip.SetPrefilterMode(PrefilterBloom)
	skipped, guarded := 0, 0
	for i, q := range queries {
		hits, trace, err := ip.SearchTrace(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hits, baseline[i]) {
			t.Errorf("query %d (%d residues): filtered hits diverge from unfiltered baseline", i, len(q))
		}
		skipped += trace.GroupsSkipped
		guarded += trace.PrefilterGuard
	}
	t.Logf("bloom prefilter: %d groups skipped, %d guard activations over %d queries", skipped, guarded, len(queries))
	if skipped == 0 {
		t.Error("bloom prefilter never skipped a group on the seeded corpus")
	}
}

func TestParsePrefilterMode(t *testing.T) {
	for _, m := range []PrefilterMode{PrefilterOff, PrefilterBloom} {
		if got, err := ParsePrefilterMode(m.String()); err != nil || got != m {
			t.Errorf("ParsePrefilterMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	// The sampled minhash mode is gone: its drops had no disjointness
	// proof behind them, and bloom skips every group it could.
	if _, err := ParsePrefilterMode("minhash"); err == nil {
		t.Error(`ParsePrefilterMode("minhash") accepted a removed mode`)
	}
}

// TestManifestDropsRetiredGroupSketch loads a manifest whose group 0
// sketch is in the retired version-1 encoding (Bloom plus bottom-k): the
// load succeeds, group 0 is left contactable, and bloom hits still equal
// unfiltered hits.
func TestManifestDropsRetiredGroupSketch(t *testing.T) {
	ip := newTestCluster(t, 4, 2)
	rng := rand.New(rand.NewSource(15))
	ctx := context.Background()
	db := buildTestDB(rng, 20, 300)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ip.SaveManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := gob.NewDecoder(&buf).Decode(&m); err != nil {
		t.Fatal(err)
	}
	m.GroupSketches[0] = []byte{1, byte(seq.Protein), 5, 64, 8, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadManifest(&buf, ip.Net)
	if err != nil {
		t.Fatalf("manifest with a retired group sketch rejected: %v", err)
	}
	if restored.GroupSketchComplete(0) || restored.GroupSketchBytes(0) != nil {
		t.Error("retired group 0 sketch still marked usable")
	}
	if !restored.GroupSketchComplete(1) {
		t.Error("group 1 sketch lost on load")
	}
	for _, q := range [][]byte{db.Seqs[5].Data[20:140], randProtein(rng, 24)} {
		want, err := restored.Search(ctx, q, defaultTestParams())
		if err != nil {
			t.Fatal(err)
		}
		restored.SetPrefilterMode(PrefilterBloom)
		got, err := restored.Search(ctx, q, defaultTestParams())
		restored.SetPrefilterMode(PrefilterOff)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d-residue query: bloom hits diverge after loading a retired sketch", len(q))
		}
	}
}

func TestPrefilterDisabledBySketchConfig(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 500
	cfg.SketchK = -1 // sketching disabled cluster-wide
	ip, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	ctx := context.Background()
	db := buildTestDB(rng, 20, 300)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	ip.SetPrefilterMode(PrefilterBloom)
	q := db.Seqs[3].Data[50:150]
	hits, trace, err := ip.SearchTrace(ctx, q, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("search with sketching disabled found nothing")
	}
	if trace.GroupsSkipped != 0 {
		t.Fatalf("prefilter skipped %d groups with sketching disabled", trace.GroupsSkipped)
	}
	if _, err := ip.Similarity(q, 5); err == nil {
		t.Error("Similarity succeeded with sketching disabled")
	}
}

func TestSimilarityRanksExactExcerptFirst(t *testing.T) {
	ip := newTestCluster(t, 8, 4)
	rng := rand.New(rand.NewSource(14))
	ctx := context.Background()
	db := buildTestDB(rng, 30, 300)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	q := db.Seqs[21].Data[:200]
	hits, err := ip.Similarity(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 21 {
		t.Fatalf("similarity top hit = %+v, want seq 21", hits)
	}
	if hits[0].Jaccard <= 0.5 {
		t.Fatalf("2/3-overlap excerpt estimated at Jaccard %.3f", hits[0].Jaccard)
	}
}
