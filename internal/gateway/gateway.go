package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mendel/internal/core"
	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// Config tunes the gateway. Zero values select the defaults.
type Config struct {
	// MaxInFlight bounds the number of queries running concurrently
	// against the cluster (default 16).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue; requests arriving beyond
	// it are shed with 429 + Retry-After (default 64).
	MaxQueue int
	// Deadline is the per-request budget covering both queue wait and
	// query execution; exceeding it answers 504 (default 30s).
	Deadline time.Duration
	// TenantRate enables per-tenant token-bucket quotas at this many
	// queries per second per tenant (keyed by the X-Mendel-Tenant header,
	// "default" when absent). Zero disables quotas.
	TenantRate float64
	// TenantBurst is the bucket capacity when quotas are enabled
	// (default 8).
	TenantBurst int
	// MaxHits caps the hits returned per query (default 50); requests may
	// ask for fewer via max_hits.
	MaxHits int
	// Params are the search parameters applied to every query; the zero
	// value selects wire.DefaultParams().
	Params wire.Params
	// Clock overrides the quota clock for tests; nil uses time.Now.
	Clock func() time.Time
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 16
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 8
	}
	if cfg.MaxHits <= 0 {
		cfg.MaxHits = 50
	}
	if cfg.Params.Step == 0 {
		cfg.Params = wire.DefaultParams()
	}
	return cfg
}

// Gateway serves concurrent similarity queries over one shared
// core.Cluster. Create with New, mount Routes onto an obs mux (or any
// http.ServeMux), and serve.
type Gateway struct {
	cluster *core.Cluster
	cfg     Config
	reg     *obs.Registry
	adm     *admission
	quotas  *quotaTable
	// ingestMu serializes Index calls, which the cluster requires; queries
	// keep flowing during an ingest.
	ingestMu sync.Mutex
}

// New builds a gateway over cluster. reg receives the gw_* metrics and may
// be nil (metrics off). The cluster must already be indexed or concurrently
// being indexed; ErrNotIndexed maps to 503 until then.
func New(cluster *core.Cluster, cfg Config, reg *obs.Registry) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cluster: cluster,
		cfg:     cfg,
		reg:     reg,
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
	}
	if cfg.TenantRate > 0 {
		g.quotas = newQuotaTable(cfg.TenantRate, cfg.TenantBurst, cfg.Clock)
	}
	if reg != nil {
		reg.SetGaugeFunc("gw_inflight", g.adm.inflightNow)
		reg.SetGaugeFunc("gw_queue_depth", g.adm.queueDepth)
	}
	return g
}

// Routes returns the gateway's API surface for mounting onto the obs mux:
//
//	POST /v1/search      run one query
//	POST /v1/similarity  rank sequences by alignment-free MinHash Jaccard
//	POST /v1/ingest      add sequences to the index
//	GET  /v1/status      gateway and cluster status
func (g *Gateway) Routes() []obs.Route {
	return []obs.Route{
		{Pattern: "/v1/search", Handler: http.HandlerFunc(g.handleSearch)},
		{Pattern: "/v1/similarity", Handler: http.HandlerFunc(g.handleSimilarity)},
		{Pattern: "/v1/ingest", Handler: http.HandlerFunc(g.handleIngest)},
		{Pattern: "/v1/status", Handler: http.HandlerFunc(g.handleStatus)},
	}
}

// SearchRequest is the POST /v1/search body.
type SearchRequest struct {
	// Query is the residue string to search (protein or DNA per the
	// cluster's configured kind).
	Query string `json:"query"`
	// MaxHits optionally lowers the per-query hit cap below Config.MaxHits.
	MaxHits int `json:"max_hits,omitempty"`
}

// SearchHit is one reported alignment in a SearchResponse.
type SearchHit struct {
	Seq    uint32  `json:"seq"`
	Name   string  `json:"name"`
	Strand string  `json:"strand"`
	Bits   float64 `json:"bits"`
	E      float64 `json:"e"`
	Score  int     `json:"score"`
	QStart int     `json:"q_start"`
	QEnd   int     `json:"q_end"`
	SStart int     `json:"s_start"`
	SEnd   int     `json:"s_end"`
	Cigar  string  `json:"cigar"`
}

// SearchResponse is the POST /v1/search reply.
type SearchResponse struct {
	Hits      []SearchHit `json:"hits"`
	Partial   bool        `json:"partial,omitempty"`
	TraceID   string      `json:"trace_id,omitempty"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// errorBody is the JSON error payload on every non-2xx answer.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes caps every JSON request body the gateway decodes. The
// repo's own clients send one query or one ~300-residue sequence per
// request (a few KiB); 1 MiB leaves orders of magnitude of headroom for
// real queries and batches while bounding what one request can make the
// gateway buffer and parse.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, answering 413 when the body
// exceeds maxBodyBytes and 400 when it is malformed. It reports whether v
// was filled; on false the response has been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
	}
	return false
}

func (g *Gateway) count(name string) {
	if g.reg != nil {
		g.reg.Counter(name).Inc()
	}
}

// retryAfter estimates how long a shed client should back off: one deadline
// per full queue drain, floored at a second.
func (g *Gateway) retryAfter() string {
	secs := int(g.cfg.Deadline.Seconds() / 4)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Mendel-Tenant"); t != "" {
		return t
	}
	return "default"
}

func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	g.count("gw_requests_total")
	var req SearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty query"})
		return
	}
	query := []byte(req.Query)
	if err := seq.AlphabetFor(g.cluster.Config().Kind).Normalize(query); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Quota before admission: a throttled tenant must not occupy queue
	// slots other tenants could use.
	tenant := tenantOf(r)
	if !g.quotas.allow(tenant) {
		g.count("gw_tenant_throttled_total")
		w.Header().Set("Retry-After", g.retryAfter())
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "tenant quota exhausted"})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Deadline)
	defer cancel()
	if err := g.adm.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			g.count("gw_shed_total")
			w.Header().Set("Retry-After", g.retryAfter())
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "admission queue full"})
		case errors.Is(err, context.DeadlineExceeded):
			g.count("gw_deadline_total")
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded while queued"})
		default: // client went away
			g.count("gw_canceled_total")
			writeJSON(w, 499, errorBody{Error: "client closed request"})
		}
		return
	}
	defer g.adm.release()

	start := time.Now()
	hits, trace, err := g.cluster.SearchTrace(ctx, query, g.cfg.Params)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			g.count("gw_deadline_total")
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded"})
		case errors.Is(err, context.Canceled):
			g.count("gw_canceled_total")
			writeJSON(w, 499, errorBody{Error: "client closed request"})
		case errors.Is(err, core.ErrNotIndexed):
			g.count("gw_errors_total")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "cluster has no indexed data"})
		default:
			g.count("gw_errors_total")
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	if g.reg != nil {
		g.reg.Histogram("gw_search_ns").Observe(elapsed.Nanoseconds())
	}
	maxHits := g.cfg.MaxHits
	if req.MaxHits > 0 && req.MaxHits < maxHits {
		maxHits = req.MaxHits
	}
	if len(hits) > maxHits {
		hits = hits[:maxHits]
	}
	resp := SearchResponse{
		Hits:      make([]SearchHit, len(hits)),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	if trace != nil {
		resp.Partial = trace.Partial
		resp.TraceID = trace.TraceID
	}
	for i, h := range hits {
		resp.Hits[i] = SearchHit{
			Seq:    uint32(h.Seq),
			Name:   h.Name,
			Strand: string(h.Strand),
			Bits:   h.Bits,
			E:      h.E,
			Score:  h.Alignment.Score,
			QStart: h.Alignment.QStart,
			QEnd:   h.Alignment.QEnd,
			SStart: h.Alignment.SStart,
			SEnd:   h.Alignment.SEnd,
			Cigar:  h.Alignment.CIGAR(),
		}
	}
	g.count("gw_search_ok_total")
	writeJSON(w, http.StatusOK, resp)
}

// SimilarityRequest is the POST /v1/similarity body.
type SimilarityRequest struct {
	// Query is the residue string to rank against (protein or DNA per the
	// cluster's configured kind).
	Query string `json:"query"`
	// Top optionally lowers the number of ranked sequences returned below
	// Config.MaxHits.
	Top int `json:"top,omitempty"`
}

// SimilarityEntry is one ranked sequence in a SimilarityResponse.
type SimilarityEntry struct {
	Seq     uint32  `json:"seq"`
	Name    string  `json:"name"`
	Jaccard float64 `json:"jaccard"`
}

// SimilarityResponse is the POST /v1/similarity reply.
type SimilarityResponse struct {
	Hits      []SimilarityEntry `json:"hits"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

// handleSimilarity answers alignment-free MinHash ranking requests. The
// computation is coordinator-local (per-sequence signatures from the
// manifest; no node fan-out), but it still honors tenant quotas and
// admission so a ranking storm cannot starve alignment queries.
func (g *Gateway) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	g.count("gw_requests_total")
	var req SimilarityRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty query"})
		return
	}

	tenant := tenantOf(r)
	if !g.quotas.allow(tenant) {
		g.count("gw_tenant_throttled_total")
		w.Header().Set("Retry-After", g.retryAfter())
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "tenant quota exhausted"})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Deadline)
	defer cancel()
	if err := g.adm.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			g.count("gw_shed_total")
			w.Header().Set("Retry-After", g.retryAfter())
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "admission queue full"})
		case errors.Is(err, context.DeadlineExceeded):
			g.count("gw_deadline_total")
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded while queued"})
		default: // client went away
			g.count("gw_canceled_total")
			writeJSON(w, 499, errorBody{Error: "client closed request"})
		}
		return
	}
	defer g.adm.release()

	top := g.cfg.MaxHits
	if req.Top > 0 && req.Top < top {
		top = req.Top
	}
	start := time.Now()
	hits, err := g.cluster.Similarity([]byte(req.Query), top)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, core.ErrNotIndexed):
			g.count("gw_errors_total")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "cluster has no indexed data"})
		default:
			g.count("gw_errors_total")
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	if g.reg != nil {
		g.reg.Histogram("gw_similarity_ns").Observe(elapsed.Nanoseconds())
	}
	resp := SimilarityResponse{
		Hits:      make([]SimilarityEntry, len(hits)),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	for i, h := range hits {
		resp.Hits[i] = SimilarityEntry{Seq: uint32(h.Seq), Name: h.Name, Jaccard: h.Jaccard}
	}
	g.count("gw_similarity_ok_total")
	writeJSON(w, http.StatusOK, resp)
}

// IngestRequest is the POST /v1/ingest body.
type IngestRequest struct {
	Sequences []IngestSequence `json:"sequences"`
}

// IngestSequence is one reference sequence to index.
type IngestSequence struct {
	Name string `json:"name"`
	Data string `json:"data"`
}

// IngestResponse is the POST /v1/ingest reply.
type IngestResponse struct {
	Indexed   int     `json:"indexed"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	g.count("gw_ingests_total")
	var req IngestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Sequences) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "no sequences"})
		return
	}
	set := seq.NewSet(g.cluster.Config().Kind)
	for _, s := range req.Sequences {
		if _, err := set.Add(s.Name, []byte(s.Data)); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
	}
	start := time.Now()
	// The cluster requires Index calls to be serialized; queries keep
	// running concurrently with the ingest.
	g.ingestMu.Lock()
	err := g.cluster.Index(r.Context(), set)
	g.ingestMu.Unlock()
	if err != nil {
		g.count("gw_errors_total")
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	g.count("gw_ingest_ok_total")
	writeJSON(w, http.StatusOK, IngestResponse{
		Indexed:   set.Len(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// StatusResponse is the GET /v1/status reply.
type StatusResponse struct {
	InFlight    int64  `json:"inflight"`
	QueueDepth  int64  `json:"queue_depth"`
	MaxInFlight int    `json:"max_inflight"`
	MaxQueue    int    `json:"max_queue"`
	Sequences   int    `json:"sequences"`
	Residues    int    `json:"residues"`
	Groups      int    `json:"groups"`
	Nodes       int    `json:"nodes"`
	Kind        string `json:"kind"`
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	topo := g.cluster.Topology()
	writeJSON(w, http.StatusOK, StatusResponse{
		InFlight:    g.adm.inflightNow(),
		QueueDepth:  g.adm.queueDepth(),
		MaxInFlight: g.cfg.MaxInFlight,
		MaxQueue:    g.cfg.MaxQueue,
		Sequences:   g.cluster.NumSequences(),
		Residues:    g.cluster.TotalResidues(),
		Groups:      topo.Groups(),
		Nodes:       len(topo.AllNodes()),
		Kind:        fmt.Sprint(g.cluster.Config().Kind),
	})
}
