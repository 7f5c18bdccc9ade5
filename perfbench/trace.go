package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mendel/internal/obs"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// traceTag marks trace contexts minted by the benchmark. The decorators
// carry their span identity across every transport in an unsampled
// obs.TraceContext: TraceLo holds the request id and SpanID the caller-side
// span, so the handler on the far side of a TCP socket can name its parent.
// Unsampled contexts make the program record nothing of its own.
const traceTag = 0x6d656e64656c6221

// Span layers.
const (
	layerGateway   = "gateway"
	layerCore      = "core"
	layerTransport = "transport"
	layerNode      = "node"
)

// span is one recorded interval at a layer boundary. Times are nanoseconds
// since the recorder's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Err    bool   `json:"err,omitempty"`
	Status int    `json:"status,omitempty"`

	// Work counters read from the messages crossing the boundary.
	Visits   int64    `json:"visits,omitempty"`
	KNNNs    int64    `json:"knn_ns,omitempty"`
	ExtendNs int64    `json:"extend_ns,omitempty"`
	Offsets  int      `json:"offsets,omitempty"`
	Items    int      `json:"items,omitempty"`
	Bytes    int64    `json:"bytes,omitempty"`
	Batch    []uint64 `json:"batch,omitempty"`     // requests a coalesced batch serves
	BatchOff []int    `json:"batch_off,omitempty"` // window offsets of each of them
}

func (s *span) iv() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory while enabled. Decorators built over a
// disabled recorder pass calls straight through.
type recorder struct {
	epoch   time.Time
	enabled atomic.Bool
	nextID  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	byQuery map[string]uint64 // query residues -> request id, to link coalesced batches
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byQuery: map[string]uint64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// noteQuery links later coalesced GroupSearchBatch items carrying query to
// request req.
func (r *recorder) noteQuery(query string, req uint64) {
	r.mu.Lock()
	r.byQuery[query] = req
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes every span as JSON to path.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// begin opens a span as a child of the benchmark trace context in ctx and
// returns ctx carrying the new span as parent for whatever it calls.
func (r *recorder) begin(ctx context.Context, layer, name, node string) (context.Context, span) {
	s := span{ID: r.nextID.Add(1), Layer: layer, Name: name, Node: node}
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.TraceHi == traceTag {
		s.Parent, s.Req = tc.SpanID, tc.TraceLo
	}
	req := s.Req
	if req == 0 {
		req = s.ID
	}
	ctx = obs.ContextWithTrace(ctx, obs.TraceContext{TraceHi: traceTag, TraceLo: req, SpanID: s.ID})
	s.Start = r.now()
	return ctx, s
}

// root opens a top-level span (one benchmark operation) with its own
// request id.
func (r *recorder) root(ctx context.Context, layer, name string) (context.Context, span) {
	s := span{ID: r.nextID.Add(1), Layer: layer, Name: name}
	s.Req = s.ID
	ctx = obs.ContextWithTrace(ctx, obs.TraceContext{TraceHi: traceTag, TraceLo: s.ID, SpanID: s.ID})
	s.Start = r.now()
	return ctx, s
}

func msgName(m any) string { return reflect.TypeOf(m).Name() }

// readCounters copies the work counters a message carries into s.
func readCounters(s *span, m any) {
	switch v := m.(type) {
	case wire.LocalSearch:
		s.Offsets = len(v.Offsets)
	case wire.GroupSearch:
		s.Offsets = len(v.Offsets)
	case wire.GroupSearchBatch:
		s.Items = len(v.Items)
		for _, it := range v.Items {
			s.Offsets += len(it.Offsets)
		}
	case wire.LocalSearchResult:
		s.Visits, s.KNNNs, s.ExtendNs = v.Visits, v.KNNNs, v.ExtendNs
	case wire.GroupSearchResult:
		s.Visits, s.KNNNs, s.ExtendNs = v.Visits, v.KNNNs, v.ExtendNs
	case wire.GroupSearchBatchResult:
		for _, it := range v.Items {
			s.Visits += it.Visits
			s.KNNNs += it.KNNNs
			s.ExtendNs += it.ExtendNs
		}
	}
}

// hotBytes is the size of m under the binary wire codec, or 0 for messages
// that ride gob.
func hotBytes(m any) int64 {
	buf := wire.GetFrame()
	defer wire.PutFrame(buf)
	b, ok := wire.AppendHot(*buf, m)
	*buf = b
	if !ok {
		return 0
	}
	return int64(len(b))
}

// tracedCaller decorates a transport.Caller: one transport-layer span per
// call, from the caller's side, so it covers framing, codec, socket and
// queueing as well as the remote handler.
type tracedCaller struct {
	inner transport.Caller
	rec   *recorder
	node  string // "" for the coordinator
}

func (c *tracedCaller) Call(ctx context.Context, addr string, req any) (any, error) {
	if !c.rec.enabled.Load() {
		return c.inner.Call(ctx, addr, req)
	}
	ctx, s := c.rec.begin(ctx, layerTransport, msgName(req), c.node)
	if b, ok := req.(wire.GroupSearchBatch); ok {
		c.rec.mu.Lock()
		for _, it := range b.Items {
			if id, ok := c.rec.byQuery[string(it.Query)]; ok {
				s.Batch = append(s.Batch, id)
				s.BatchOff = append(s.BatchOff, len(it.Offsets))
			}
		}
		c.rec.mu.Unlock()
	}
	resp, err := c.inner.Call(ctx, addr, req)
	s.End = c.rec.now()
	s.Err = err != nil
	readCounters(&s, req)
	if err == nil {
		readCounters(&s, resp)
		s.Bytes = hotBytes(req) + hotBytes(resp)
	}
	c.rec.add(s)
	return resp, err
}

// tracedHandler decorates a node's transport.Handler: one node-layer span
// per handled request.
type tracedHandler struct {
	inner transport.Handler
	rec   *recorder
	node  string
}

func (h *tracedHandler) Handle(ctx context.Context, req any) (any, error) {
	if !h.rec.enabled.Load() {
		return h.inner.Handle(ctx, req)
	}
	ctx, s := h.rec.begin(ctx, layerNode, msgName(req), h.node)
	resp, err := h.inner.Handle(ctx, req)
	s.End = h.rec.now()
	s.Err = err != nil
	readCounters(&s, req)
	if err == nil {
		readCounters(&s, resp)
	}
	h.rec.add(s)
	return resp, err
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedHTTP decorates one gateway route: a gateway-layer root span per
// request. Search bodies are peeked so that coalesced batch items can be
// linked back to the request that issued them.
type tracedHTTP struct {
	inner http.Handler
	rec   *recorder
	name  string
}

func (h *tracedHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.enabled.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	ctx, s := h.rec.root(r.Context(), layerGateway, h.name)
	if h.name == "search" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
			return
		}
		var q struct {
			Query string `json:"query"`
		}
		if json.Unmarshal(body, &q) == nil {
			h.rec.noteQuery(q.Query, s.ID)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.inner.ServeHTTP(sw, r.WithContext(ctx))
	s.End = h.rec.now()
	s.Status = sw.status
	s.Err = sw.status != http.StatusOK
	h.rec.add(s)
}
