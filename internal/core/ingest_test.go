package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mendel/internal/node"
	"mendel/internal/seq"
	"mendel/internal/transport"
)

// newIngestCluster builds an 8-node/4-group protein cluster with the given
// ingest worker count and replication factor, over the same deterministic
// configuration.
func newIngestCluster(t *testing.T, workers, replicas int) *InProcess {
	t.Helper()
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 4
	cfg.SampleSize = 500
	cfg.IngestWorkers = workers
	cfg.Replicas = replicas
	ip, err := NewInProcess(cfg, 8, transport.WithEncodeCheck())
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

// TestIngestSerialParallelEquivalence is the contract of the staged ingest
// protocol: every IngestWorkers count must place every block on the same
// node and build identical local vp-trees, so queries answer identically.
// Placement is content-hashed and trees are built from the sorted staged
// set, so neither may depend on the worker count or RPC arrival order. The
// down-replica case extends the contract to hinted handoff: a node that is
// unreachable while a second batch is indexed parks the same hints at every
// worker count, and after it heals and the health monitor replays them the
// clusters are again identical. Run under -race this also exercises the
// sender/worker synchronization.
func TestIngestSerialParallelEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		replicas int
		downNode bool
	}{
		{"healthy", 1, false},
		{"down-replica", 2, true},
	}
	workerCounts := []int{1, 2, 8}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			// Every cluster ingests identical databases, from identical
			// seeds; queries are drawn from a copy of the same data.
			sets := func() []*seq.Set {
				out := []*seq.Set{buildTestDB(rand.New(rand.NewSource(42)), 40, 400)}
				if tc.downNode {
					out = append(out, buildTestDB(rand.New(rand.NewSource(43)), 20, 400))
				}
				return out
			}
			clusters := make([]*InProcess, len(workerCounts))
			hints := make([]int64, len(workerCounts))
			for i, w := range workerCounts {
				ip := newIngestCluster(t, w, tc.replicas)
				db := sets()
				if err := ip.Index(ctx, db[0]); err != nil {
					t.Fatal(err)
				}
				if tc.downNode {
					victim := ip.Topology().GroupNodes(1)[1]
					ip.Net.Fail(victim)
					if err := ip.Index(ctx, db[1]); err != nil {
						t.Fatalf("workers=%d: ingest with a down replica: %v", w, err)
					}
					hints[i] = ip.HintsPending()
					if hints[i] == 0 {
						t.Fatalf("workers=%d: no hints parked for the down replica", w)
					}
					ip.Net.Heal(victim)
					NewHealthMonitor(ip.Cluster, HealthConfig{}).ProbeOnce(ctx)
					if pending := ip.HintsPending(); pending != 0 {
						t.Fatalf("workers=%d: %d hints still pending after recovery", w, pending)
					}
				}
				clusters[i] = ip
			}
			for i, w := range workerCounts[1:] {
				if hints[i+1] != hints[0] {
					t.Errorf("workers=%d parked %d hints, workers=%d parked %d",
						w, hints[i+1], workerCounts[0], hints[0])
				}
			}

			// Block placement and tree construction must match node for
			// node.
			ref, err := clusters[0].Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range workerCounts[1:] {
				got, err := clusters[i+1].Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: stats length %d vs %d", w, len(got), len(ref))
				}
				for n := range ref {
					if ref[n].Node != got[n].Node ||
						ref[n].Blocks != got[n].Blocks ||
						ref[n].Residues != got[n].Residues ||
						ref[n].Sequences != got[n].Sequences ||
						ref[n].TreeSize != got[n].TreeSize {
						t.Errorf("node %s diverged: workers=%d {blocks %d residues %d seqs %d tree %d} workers=%d {blocks %d residues %d seqs %d tree %d}",
							ref[n].Node, workerCounts[0], ref[n].Blocks, ref[n].Residues, ref[n].Sequences, ref[n].TreeSize,
							w, got[n].Blocks, got[n].Residues, got[n].Sequences, got[n].TreeSize)
					}
				}
			}

			// Queries — exact fragments and mutated homologs, from every
			// ingested batch — must answer identically, hit for hit.
			var sources []*seq.Sequence
			for _, db := range sets() {
				sources = append(sources, db.Seqs...)
			}
			rng := rand.New(rand.NewSource(99))
			params := defaultTestParams()
			for trial := 0; trial < 6; trial++ {
				src := sources[rng.Intn(len(sources))]
				start := rng.Intn(src.Len() - 120)
				query := append([]byte(nil), src.Data[start:start+120]...)
				if trial%2 == 1 {
					query = mutateSubs(rng, query, 0.1)
				}
				want, err := clusters[0].Search(ctx, query, params)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range workerCounts[1:] {
					got, err := clusters[i+1].Search(ctx, query, params)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("trial %d: workers=%d and workers=%d returned different hits:\n%v\nvs\n%v",
							trial, workerCounts[0], w, want, got)
					}
				}
			}
		})
	}
}

// TestIngestConcurrentAddNode races AddNode against Index. The pipeline
// reads the topology once, so a join that commits mid-ingest can neither
// route a block to a node that has no sender (which would block Index
// forever) nor drop the batch being indexed.
func TestIngestConcurrentAddNode(t *testing.T) {
	ctx := context.Background()
	ip := newIngestCluster(t, 2, 1)
	if err := ip.Index(ctx, buildTestDB(rand.New(rand.NewSource(50)), 10, 300)); err != nil {
		t.Fatal(err)
	}
	params := defaultTestParams()
	for round := 0; round < 20; round++ {
		base := seq.ID(ip.NumSequences())
		batch := buildTestDB(rand.New(rand.NewSource(int64(51+round))), 10, 300)
		addr := fmt.Sprintf("node-join-%02d", round)
		ip.Net.Register(addr, node.New(addr, ip.Net))

		done := make(chan error, 2)
		go func() { done <- ip.Index(ctx, batch) }()
		go func() { done <- ip.AddNode(ctx, round%4, addr) }()
		timeout := time.After(10 * time.Second)
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			case <-timeout:
				t.Fatalf("round %d: Index or AddNode did not return within 10s", round)
			}
		}

		// The batch indexed across the join is searchable.
		const pick = 4
		hits, err := ip.Search(ctx, batch.Seqs[pick].Data[50:170], params)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, h := range hits {
			found = found || h.Seq == base+pick
		}
		if !found {
			t.Fatalf("round %d: exact fragment of sequence %d not found (%d hits)", round, base+pick, len(hits))
		}
	}
}

// TestIngestParallelGrowsDatabase re-indexes a second set into an existing
// parallel cluster — Index must be repeatable, and hits from both batches
// must be found.
func TestIngestParallelGrowsDatabase(t *testing.T) {
	ctx := context.Background()
	ip := newIngestCluster(t, 4, 1)

	first := buildTestDB(rand.New(rand.NewSource(7)), 20, 300)
	second := buildTestDB(rand.New(rand.NewSource(8)), 20, 300)
	if err := ip.Index(ctx, first); err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(ctx, second); err != nil {
		t.Fatal(err)
	}
	if got, want := ip.TotalResidues(), 40*300; got != want {
		t.Fatalf("total residues = %d, want %d", got, want)
	}

	// Global IDs: the first batch occupies [0,20), the second [20,40).
	params := defaultTestParams()
	cases := []struct {
		src *seq.Sequence
		gid seq.ID
	}{
		{first.Seqs[3], 3},
		{second.Seqs[5], 25},
	}
	for _, tc := range cases {
		query := tc.src.Data[50:170]
		hits, err := ip.Search(ctx, query, params)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, h := range hits {
			if h.Seq == tc.gid {
				found = true
			}
		}
		if !found {
			t.Fatalf("exact fragment of global sequence %d not found after growth (%d hits)", tc.gid, len(hits))
		}
	}
}
