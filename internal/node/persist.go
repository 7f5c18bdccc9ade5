package node

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"mendel/internal/invindex"
	"mendel/internal/metric"
	"mendel/internal/seq"
	"mendel/internal/vptree"
	"mendel/internal/wire"
)

// snapshot is the gob wire form of a node's durable state: the bootstrap
// parameters plus every stored block and repository sequence. The local
// vp-tree is rebuilt on load (a balanced bulk build is cheaper than
// serializing tree structure, and guarantees a well-formed index).
type snapshot struct {
	Booted       bool
	Kind         seq.Kind
	Metric       string
	BlockLen     int
	Margin       int
	SearchBudget int
	Groups       [][]string
	HashTree     []byte
	Blocks       []wire.Block
	SeqIDs       []seq.ID
	SeqNames     []string
	SeqData      [][]byte
	// Sketch parameters (zero in snapshots written before the sketch
	// tier existed; the reloaded node then simply does not sketch). The
	// sketch itself is not serialized: LoadFrom re-derives it from the
	// stored blocks, which is deterministic and keeps the snapshot format
	// independent of the sketch encoding.
	SketchK         int
	SketchBloomBits int
}

// SaveTo writes the node's durable state. Together with the coordinator's
// manifest this makes a whole cluster restartable without re-ingestion —
// the paper's "save pre-indexed data" extension (§VII-B), node side.
func (n *Node) SaveTo(w io.Writer) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	snap := snapshot{
		Booted:       n.booted,
		Kind:         n.kind,
		BlockLen:     n.blockLen,
		Margin:       n.margin,
		SearchBudget: n.searchBudget,
	}
	if n.booted {
		snap.Metric = n.met.Name()
		groups := make([][]string, n.topo.Groups())
		for g := range groups {
			groups[g] = n.topo.GroupNodes(g)
		}
		snap.Groups = groups
		if n.hashTree != nil {
			enc, err := n.hashTree.MarshalBinary()
			if err != nil {
				return err
			}
			snap.HashTree = enc
		}
		snap.Blocks = make([]wire.Block, 0, len(n.blocks))
		for _, b := range n.blocks {
			snap.Blocks = append(snap.Blocks, b)
		}
		for id, s := range n.seqs {
			snap.SeqIDs = append(snap.SeqIDs, id)
			snap.SeqNames = append(snap.SeqNames, s.name)
			snap.SeqData = append(snap.SeqData, s.data)
		}
		if n.sketch != nil {
			p := n.sketch.Params()
			snap.SketchK = p.K
			snap.SketchBloomBits = p.BloomBits
		}
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadFrom restores a node's state from a snapshot, replacing everything
// and rebuilding the local vp-tree. The node's address must still appear in
// the saved topology.
func (n *Node) LoadFrom(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("node %s: decoding snapshot: %w", n.addr, err)
	}
	if !snap.Booted {
		return nil // empty snapshot: nothing to restore
	}
	boot := wire.Bootstrap{
		HashTree:        snap.HashTree,
		Metric:          snap.Metric,
		BlockLen:        snap.BlockLen,
		Margin:          snap.Margin,
		Groups:          snap.Groups,
		Kind:            snap.Kind,
		SearchBudget:    snap.SearchBudget,
		SketchK:         snap.SketchK,
		SketchBloomBits: snap.SketchBloomBits,
	}
	if _, err := n.bootstrap(boot); err != nil {
		return err
	}
	met, err := metric.ByName(snap.Metric)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	items := make([]vptree.Item, 0, len(snap.Blocks))
	for _, b := range snap.Blocks {
		ref := invindex.PackRef(b.Seq, b.Start)
		n.blocks[ref] = b
		n.residues += len(b.Content)
		if n.sketch != nil {
			n.sketch.Add(b.Content)
		}
		items = append(items, vptree.Item{Key: b.Content, Ref: ref})
	}
	// Snapshots serialize the block map in arbitrary order; sorting by ref
	// makes the rebuilt tree identical across save/load cycles.
	sort.Slice(items, func(i, j int) bool { return items[i].Ref < items[j].Ref })
	n.tree = vptree.Build(met, 0, 1, items)
	for i, id := range snap.SeqIDs {
		n.seqs[id] = storedSeq{name: snap.SeqNames[i], data: snap.SeqData[i]}
	}
	return nil
}
