package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/vphash"
	"mendel/internal/wire"
)

// indexBatchBlocks is the number of blocks accumulated per node before an
// IndexBlocks message is flushed; batches keep the local vp-trees on the
// fast InsertBatch path (§III-D).
const indexBatchBlocks = 4096

// Index ingests a sequence set into the cluster following §V-A:
//
//  1. on the first call, a sample of inverted index blocks seeds the
//     vp-prefix hash tree, which is then shipped to every node in a
//     Bootstrap message together with the topology;
//  2. full sequences are placed on their repository shards (consulted later
//     for gapped extension);
//  3. every sequence is fragmented into stride-1 blocks, each hashed first
//     to a group (vp-prefix tree) and then to a node within the group
//     (flat SHA-1 ring), and shipped in batches.
//
// Sequence IDs are remapped onto a cluster-global dense ID space so Index
// may be called repeatedly to grow the database.
func (c *Cluster) Index(ctx context.Context, set *seq.Set) error {
	if set.Kind != c.cfg.Kind {
		return fmt.Errorf("core: indexing %v data into a %v cluster", set.Kind, c.cfg.Kind)
	}
	if set.Len() == 0 {
		return fmt.Errorf("core: empty sequence set")
	}
	blockCfg := invindex.Config{BlockLen: c.cfg.BlockLen, Margin: c.cfg.Margin}
	if err := blockCfg.Validate(); err != nil {
		return err
	}

	c.mu.Lock()
	if c.hashTree == nil {
		tree, err := c.buildHashTree(set, blockCfg)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		c.hashTree = tree
		c.mu.Unlock()
		if err := c.bootstrapNodes(ctx); err != nil {
			return err
		}
		c.mu.Lock()
	}
	base := c.nextID
	c.nextID += seq.ID(set.Len())
	for _, s := range set.Seqs {
		gid := base + s.ID
		c.names[gid] = s.Name
		c.lengths[gid] = s.Len()
		c.totalResidues += s.Len()
	}
	tree := c.hashTree
	c.mu.Unlock()

	if err := c.storeSequences(ctx, set, base); err != nil {
		return err
	}
	if err := c.dispatchBlocks(ctx, set, base, blockCfg, tree); err != nil {
		return err
	}
	// Sketch maintenance: per-sequence MinHash signatures for the
	// alignment-free Similarity mode, then a pull of the nodes' merged
	// group sketches so the prefilter sees the new data. Both are no-ops
	// when sketching is disabled.
	c.updateSeqSketches(set, base)
	c.refreshSketches(ctx)
	return nil
}

// buildHashTree samples block contents evenly across the set and builds the
// vp-prefix tree (§V-A2). Callers hold c.mu.
func (c *Cluster) buildHashTree(set *seq.Set, blockCfg invindex.Config) (*vphash.Tree, error) {
	total := 0
	for _, s := range set.Seqs {
		total += invindex.BlockCount(s.Len(), blockCfg.BlockLen)
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no sequence long enough for %d-residue blocks", blockCfg.BlockLen)
	}
	stride := total / c.cfg.SampleSize
	if stride < 1 {
		stride = 1
	}
	var sample [][]byte
	count := 0
	for _, s := range set.Seqs {
		for start := 0; start+blockCfg.BlockLen <= s.Len(); start++ {
			if count%stride == 0 {
				sample = append(sample, s.Window(start, blockCfg.BlockLen))
			}
			count++
		}
	}
	depth := c.cfg.DepthThreshold
	if depth == 0 {
		depth = vphash.HalfDepth(len(sample))
	}
	return vphash.Build(c.met, sample, depth, c.cfg.Groups, c.cfg.Seed)
}

// bootstrapNodes ships the shared cluster state to every node. Individual
// unreachable nodes do not fail the bootstrap — the health monitor
// re-bootstraps them on recovery (Pong.Booted tells it to) — but a cluster
// where nobody answers, or a live node that rejects the state, does.
func (c *Cluster) bootstrapNodes(ctx context.Context) error {
	boot, err := c.bootstrapMsg(c.groupsSnapshot())
	if err != nil {
		return err
	}
	nodes := c.topology().AllNodes()
	_, errs := transport.BroadcastAll(ctx, c.caller, nodes, boot)
	reached := 0
	for i, e := range errs {
		switch {
		case e == nil:
			reached++
		case errors.Is(e, transport.ErrUnreachable):
			// Recovered later by the health monitor.
		default:
			return fmt.Errorf("core: bootstrap %s: %w", nodes[i], e)
		}
	}
	if reached == 0 {
		return fmt.Errorf("core: bootstrap: no node reachable")
	}
	return nil
}

// bootstrapMsg assembles the Bootstrap message carrying the shared cluster
// state under the given group lists: the current ones at first ingest and
// when the health monitor re-bootstraps a node that restarted empty, the
// successor topology when AddNode joins a node. It is the only place a
// Bootstrap is built, so every booted node gets the same sketch shape.
func (c *Cluster) bootstrapMsg(groups [][]string) (wire.Bootstrap, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.hashTree == nil {
		return wire.Bootstrap{}, ErrNotIndexed
	}
	enc, err := c.hashTree.MarshalBinary()
	if err != nil {
		return wire.Bootstrap{}, err
	}
	sp := c.cfg.sketchParams()
	return wire.Bootstrap{
		HashTree:        enc,
		Metric:          c.met.Name(),
		BlockLen:        c.cfg.BlockLen,
		Margin:          c.cfg.Margin,
		Groups:          groups,
		Kind:            c.cfg.Kind,
		SearchBudget:    c.cfg.searchBudget(),
		SketchK:         sp.K,
		SketchBloomBits: sp.BloomBits,
	}, nil
}

// storeSequences places each sequence on its repository shard. Shards are
// independent, so the per-node StoreSequences calls run concurrently. An
// unreachable shard does not fail the ingest: its write set is parked as a
// hint and replayed when the health monitor sees the node return (with
// Replicas >= 2 the surviving copies keep queries at full recall meanwhile).
func (c *Cluster) storeSequences(ctx context.Context, set *seq.Set, base seq.ID) error {
	byNode := make(map[string]*wire.StoreSequences)
	// The ring is mutated in place by AddNode/RemoveNode under c.mu.
	c.mu.RLock()
	for _, s := range set.Seqs {
		gid := base + s.ID
		for _, node := range c.seqRing.LookupN(seqKey(gid), c.cfg.replicas()) {
			msg := byNode[node]
			if msg == nil {
				msg = &wire.StoreSequences{}
				byNode[node] = msg
			}
			msg.IDs = append(msg.IDs, gid)
			msg.Names = append(msg.Names, s.Name)
			msg.Data = append(msg.Data, s.Data)
		}
	}
	c.mu.RUnlock()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for node, msg := range byNode {
		wg.Add(1)
		go func(node string, msg *wire.StoreSequences) {
			defer wg.Done()
			if _, err := c.caller.Call(ctx, node, *msg); err != nil {
				if errors.Is(err, transport.ErrUnreachable) {
					c.hintSequences(node, *msg)
					return
				}
				errOnce.Do(func() { firstErr = fmt.Errorf("core: storing sequences on %s: %w", node, err) })
			}
		}(node, msg)
	}
	wg.Wait()
	return firstErr
}

// hintSequences parks an undeliverable StoreSequences as a hinted handoff.
func (c *Cluster) hintSequences(node string, msg wire.StoreSequences) {
	c.hints.addSequences(node, msg)
	c.reg.Counter("hints_queued").Add(int64(len(msg.IDs)))
}

// hintBlocks parks undeliverable blocks as a hinted handoff.
func (c *Cluster) hintBlocks(node string, blocks []wire.Block) {
	c.hints.addBlocks(node, blocks)
	c.reg.Counter("hints_queued").Add(int64(len(blocks)))
}

// dispatchBlocks fragments, hashes and ships every block (see shipBlocks),
// then broadcasts BuildIndex so each node folds its staged blocks into the
// local vp-tree with one bulk median-split build. Nodes sort the staged set
// before building, so the trees are byte-identical at every worker count
// (asserted by TestIngestSerialParallelEquivalence).
//
// One topology snapshot serves the whole dispatch: it places every block,
// names the per-node senders and addresses the BuildIndex broadcast. A
// membership change that commits mid-ingest therefore cannot route a block
// to a node without a sender; the new layout applies from the next Index.
func (c *Cluster) dispatchBlocks(ctx context.Context, set *seq.Set, base seq.ID, blockCfg invindex.Config, tree *vphash.Tree) error {
	topo := c.topology()
	if err := c.shipBlocks(ctx, set, base, blockCfg, tree, topo); err != nil {
		return err
	}
	// A node that went down mid-ingest must not fail the build for everyone
	// else: its staged blocks are parked as hints, and the recovery sequence
	// always ends with a BuildIndex, so nothing is lost — only deferred.
	nodes := topo.AllNodes()
	_, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.BuildIndex{})
	for i, e := range errs {
		if e != nil && !errors.Is(e, transport.ErrUnreachable) {
			return fmt.Errorf("core: building local index on %s: %w", nodes[i], e)
		}
	}
	return nil
}

// shipBlocks is the ingest pipeline: a pool of Config.IngestWorkers
// fragmentation workers pulls whole sequences from a feed, fragments them
// into blocks and hashes each through both DHT tiers (vp-prefix tree, then
// the group's SHA-1 ring), accumulating worker-local per-node batches; full
// batches are handed to one sender goroutine per node, which serializes that
// node's IndexBlocks RPCs. Fragmenting/hashing (CPU) thus overlaps with RPC
// encode/transfer, even with a single worker, and no two goroutines ever
// write to the same node concurrently. The first error cancels the
// pipeline; block placement is a pure function of content, so the worker
// count never changes where a block lands.
func (c *Cluster) shipBlocks(ctx context.Context, set *seq.Set, base seq.ID, blockCfg invindex.Config, tree *vphash.Tree, topo *dht.Topology) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	workers := c.cfg.ingestWorkers()
	nodes := topo.AllNodes()
	sendCh := make(map[string]chan []wire.Block, len(nodes))
	var senders sync.WaitGroup
	for _, node := range nodes {
		ch := make(chan []wire.Block, workers)
		sendCh[node] = ch
		senders.Add(1)
		go func(node string, ch <-chan []wire.Block) {
			defer senders.Done()
			for blocks := range ch {
				if ctx.Err() != nil {
					continue // failed: drain so workers never block
				}
				if _, err := c.caller.Call(ctx, node, wire.IndexBlocks{Blocks: blocks, Stage: true}); err != nil {
					if errors.Is(err, transport.ErrUnreachable) {
						// Hinted handoff: park the batch for replay on
						// recovery instead of failing the ingest (§VII-B
						// fault tolerance). The sender goroutine owns this
						// node's batches, so hints preserve delivery order
						// per node.
						c.hintBlocks(node, blocks)
						continue
					}
					fail(fmt.Errorf("core: indexing blocks on %s: %w", node, err))
				}
			}
		}(node, ch)
	}

	replicas := c.cfg.replicas()
	seqCh := make(chan *seq.Sequence)
	var frags sync.WaitGroup
	for w := 0; w < workers; w++ {
		frags.Add(1)
		go func() {
			defer frags.Done()
			pending := make(map[string][]wire.Block)
			emit := func(node string, blocks []wire.Block) {
				select {
				case sendCh[node] <- blocks:
				case <-ctx.Done():
				}
			}
			for s := range seqCh {
				if ctx.Err() != nil {
					continue // drain the feed after a failure
				}
				gid := base + s.ID
				for _, b := range invindex.Blocks(s, blockCfg) {
					group := tree.Group(b.Content) // tier 1: similarity
					// Tier 2: flat SHA-1 ring within the group, with optional
					// replication to the next distinct ring members.
					for _, node := range topo.ReplicasFor(group, b.Content, replicas) {
						pending[node] = append(pending[node], wire.Block{
							Seq:     gid,
							Start:   b.Start,
							Content: b.Content,
							Context: b.Context,
							CtxOff:  b.CtxOff,
						})
						if len(pending[node]) >= indexBatchBlocks {
							emit(node, pending[node])
							pending[node] = nil
						}
					}
				}
			}
			for node, blocks := range pending {
				if len(blocks) > 0 {
					emit(node, blocks)
				}
			}
		}()
	}

feed:
	for _, s := range set.Seqs {
		select {
		case seqCh <- s:
		case <-ctx.Done():
			break feed
		}
	}
	close(seqCh)
	frags.Wait()
	for _, ch := range sendCh {
		close(ch)
	}
	senders.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
