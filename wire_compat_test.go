package mendel

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// startWireCluster spins four real TCP storage nodes (two groups, two
// replicas) with the node-side wire config wcNode, indexes db through a
// coordinator using wcCoord, and returns the coordinator.
func startWireCluster(t *testing.T, db *Set, wcNode, wcCoord WireConfig) *Cluster {
	t.Helper()
	var addrs []string
	for i := 0; i < 4; i++ {
		s, err := ServeNodeWire("127.0.0.1:0", DefaultResilienceConfig(), wcNode)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		addrs = append(addrs, s.Addr())
	}
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	cfg.Replicas = 2
	groups := [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}}
	cluster, _, err := NewTCPClusterWire(cfg, groups, DefaultResilienceConfig(), wcCoord)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	return cluster
}

// repairSummary renders the stable fields of a repair report (everything
// but wall-clock duration) for cross-scenario comparison.
func repairSummary(r *RepairReport) string {
	return fmt.Sprintf("groups=%v blocks=%d seqs=%d unrepairable=%d pusherrs=%d unreachable=%v",
		r.Groups, r.BlocksMoved, r.SequencesMoved, r.Unrepairable, r.PushErrors, r.Unreachable)
}

// TestWireCodecMixedVersionCompat runs identical index/search/repair
// workloads over real TCP with plain and flate-compressed block-transfer
// frames, and requires bit-identical search hits and identical repair
// outcomes: compression must be invisible above the framing.
func TestWireCodecMixedVersionCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildSet(t, rng, 12, 300)
	queries := [][]byte{
		db.Seqs[5].Data[40:160],
		db.Seqs[9].Data[0:120],
	}

	scenarios := []struct {
		name        string
		node, coord WireConfig
	}{
		{"binary-both", WireConfig{}, WireConfig{}},
		{"binary-compressed", WireConfig{Compress: true}, WireConfig{Compress: true}},
	}

	var wantHits [][]Hit
	var wantRepair string
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cluster := startWireCluster(t, db, sc.node, sc.coord)
			var hits [][]Hit
			for _, q := range queries {
				h, err := cluster.Search(context.Background(), q, DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				hits = append(hits, h)
			}
			rep, err := cluster.Repair(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				wantHits, wantRepair = hits, repairSummary(rep)
				if len(hits[0]) == 0 {
					t.Fatal("reference scenario found no hits")
				}
				return
			}
			if !reflect.DeepEqual(hits, wantHits) {
				t.Errorf("hits diverge from %s:\n  got:  %+v\n  want: %+v",
					scenarios[0].name, hits, wantHits)
			}
			if got := repairSummary(rep); got != wantRepair {
				t.Errorf("repair report diverges: got %q want %q", got, wantRepair)
			}
		})
	}
}
