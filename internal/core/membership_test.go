package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mendel/internal/node"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

func TestAddNodeJoinsAndReceivesNewBlocks(t *testing.T) {
	ip := newTestCluster(t, 4, 2)
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()

	first := buildTestDB(rng, 15, 300)
	if err := ip.Index(ctx, first); err != nil {
		t.Fatal(err)
	}

	// Join a fresh node to group 0 at runtime.
	joiner := node.New("node-new", ip.Net)
	ip.Net.Register("node-new", joiner)
	if err := ip.AddNode(ctx, 0, "node-new"); err != nil {
		t.Fatal(err)
	}

	// Old data is still fully searchable.
	hits, err := ip.Search(ctx, first.Seqs[8].Data[40:160], defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 8 {
		t.Fatalf("pre-join data lost: %+v", hits)
	}

	// New data lands partly on the joiner.
	second := buildTestDB(rng, 15, 300)
	if err := ip.Index(ctx, second); err != nil {
		t.Fatal(err)
	}
	resp, err := joiner.Handle(ctx, wire.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	stats := resp.(wire.StatsResult)
	if stats.Blocks == 0 {
		t.Fatal("joined node received no blocks from post-join indexing")
	}

	// Post-join data is searchable, including what the joiner holds.
	hits, err = ip.Search(ctx, second.Seqs[4].Data[40:160], defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 19 { // 15 + 4
		t.Fatalf("post-join data not found: %+v", hits)
	}

	// The joiner was bootstrapped with the cluster's sketch shape, so after
	// the post-join refresh every group's merged sketch covers all members
	// and the bloom prefilter may prune again — with hits unchanged.
	for g := 0; g < 2; g++ {
		if !ip.GroupSketchComplete(g) {
			t.Errorf("group %d sketch incomplete after the join", g)
		}
	}
	queries := [][]byte{
		first.Seqs[8].Data[40:160],
		second.Seqs[4].Data[40:160],
		second.Seqs[11].Data[10:26],
		randProtein(rng, 24),
	}
	for i, q := range queries {
		ip.SetPrefilterMode(PrefilterOff)
		want, err := ip.Search(ctx, q, defaultTestParams())
		if err != nil {
			t.Fatal(err)
		}
		ip.SetPrefilterMode(PrefilterBloom)
		got, err := ip.Search(ctx, q, defaultTestParams())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: bloom prefilter hits diverge from unfiltered hits after the join", i)
		}
	}
}

func TestAddNodeValidation(t *testing.T) {
	ip := newTestCluster(t, 4, 2)
	ctx := context.Background()
	if err := ip.AddNode(ctx, 0, "x"); err != ErrNotIndexed {
		t.Fatalf("pre-index join err = %v", err)
	}
	rng := rand.New(rand.NewSource(92))
	if err := ip.Index(ctx, buildTestDB(rng, 5, 250)); err != nil {
		t.Fatal(err)
	}
	if err := ip.AddNode(ctx, 99, "x"); err == nil {
		t.Error("out-of-range group accepted")
	}
	// Unreachable joiner: bootstrap must fail and topology stay intact.
	before := ip.Topology().NumNodes()
	if err := ip.AddNode(ctx, 0, "ghost"); err == nil {
		t.Error("unreachable joiner accepted")
	}
	if ip.Topology().NumNodes() != before {
		t.Error("failed join mutated topology")
	}
}

func TestRemoveNodeGraceful(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 400
	cfg.Replicas = 2
	ip, err := NewInProcess(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	ctx := context.Background()
	db := buildTestDB(rng, 15, 300)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	victim := ip.Nodes[1].Addr()
	if err := ip.RemoveNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if ip.Topology().NumNodes() != 5 {
		t.Fatalf("nodes = %d", ip.Topology().NumNodes())
	}
	// With R=2 the removed node's data survives on its replicas.
	hits, err := ip.Search(ctx, db.Seqs[9].Data[50:170], defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 9 {
		t.Fatalf("recall lost after graceful removal: %+v", hits)
	}
	if err := ip.RemoveNode(ctx, "nope"); err == nil {
		t.Error("unknown node removal accepted")
	}
}

func TestUpdateTopologyValidation(t *testing.T) {
	_, nodes, _ := testNodePair(t)
	// Node not in new topology.
	if _, err := nodes[0].Handle(context.Background(), wire.UpdateTopology{Groups: [][]string{{"other"}}}); err == nil {
		t.Error("exclusion accepted")
	}
	if _, err := nodes[0].Handle(context.Background(), wire.UpdateTopology{Groups: nil}); err == nil {
		t.Error("empty topology accepted")
	}
}

// testNodePair builds two bootstrapped nodes for message-level tests.
func testNodePair(t *testing.T) (*InProcess, []*node.Node, *seq.Set) {
	t.Helper()
	ip := newTestCluster(t, 2, 1)
	rng := rand.New(rand.NewSource(94))
	db := buildTestDB(rng, 5, 250)
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	return ip, ip.Nodes, db
}
