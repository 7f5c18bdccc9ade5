package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mendel/internal/core"
	"mendel/internal/datagen"
	"mendel/internal/obs"
	"mendel/internal/seq"
)

// PerfResult is the machine-readable performance snapshot behind
// `mendel-bench perf -json` and the BENCH_*.json artifacts the CI
// benchmark gate archives. All times are nanoseconds.
type PerfResult struct {
	// Environment: perf numbers are meaningless without the core count
	// they were measured on.
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu,omitempty"`

	// Workload dimensions.
	Nodes       int `json:"nodes"`
	Groups      int `json:"groups"`
	DBSequences int `json:"db_sequences"`
	SeqLen      int `json:"seq_len"`
	Blocks      int `json:"blocks"` // inverted-index blocks placed per ingest

	// Ingest: the one pipeline run with IngestWorkers=1 ("serial") vs the
	// default of one worker per core ("parallel"); same database, same
	// placement, identical resulting trees. At GOMAXPROCS=1 both columns
	// are the same configuration. The field names predate the single
	// pipeline and are kept so the JSON schema does not change.
	IngestSerialNsPerOp     int64   `json:"ingest_serial_ns_per_op"`
	IngestParallelNsPerOp   int64   `json:"ingest_parallel_ns_per_op"`
	IngestSerialBlocksSec   float64 `json:"ingest_serial_blocks_per_sec"`
	IngestParallelBlocksSec float64 `json:"ingest_parallel_blocks_per_sec"`
	IngestSpeedup           float64 `json:"ingest_speedup"`

	// Query hot path (coordinator Search, end to end).
	QueryNsPerOp     int64 `json:"query_ns_per_op"`
	QueryAllocsPerOp int64 `json:"query_allocs_per_op"`
	QueryBytesPerOp  int64 `json:"query_bytes_per_op"`
	QueryP50Ns       int64 `json:"query_p50_ns"`
	QueryP95Ns       int64 `json:"query_p95_ns"`
	QuerySamples     int64 `json:"query_samples"`
}

// RunPerf measures the ingest and query hot paths at the given scale. Ingest
// is timed with one worker and with the default pool so the emitted JSON
// carries the speedup; the
// query loop runs under testing.Benchmark for ns/op and allocs/op, while an
// attached obs registry supplies the latency quantiles the paper-style
// tables cannot (a mean hides tail latency).
func RunPerf(s Scale) (*PerfResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	db, gen, err := makeDB(s)
	if err != nil {
		return nil, err
	}
	res := &PerfResult{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Nodes:       s.Nodes,
		Groups:      s.Groups,
		DBSequences: s.DBSequences,
		SeqLen:      s.SeqLen,
	}

	ingest := func(workers int) (int64, error) {
		var indexErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.DefaultConfig(db.Kind)
				cfg.Groups = s.Groups
				cfg.Seed = s.Seed
				cfg.IngestWorkers = workers
				ip, err := core.NewInProcess(cfg, s.Nodes)
				if err != nil {
					indexErr = err
					return
				}
				b.StartTimer()
				if err := ip.Index(context.Background(), db); err != nil {
					indexErr = err
					return
				}
				b.StopTimer()
				if res.Blocks == 0 {
					stats, err := ip.Stats(context.Background())
					if err != nil {
						indexErr = err
						return
					}
					for _, st := range stats {
						res.Blocks += st.Blocks
					}
				}
			}
		})
		return r.NsPerOp(), indexErr
	}

	if res.IngestSerialNsPerOp, err = ingest(1); err != nil {
		return nil, fmt.Errorf("bench: one-worker ingest: %w", err)
	}
	if res.IngestParallelNsPerOp, err = ingest(0); err != nil {
		return nil, fmt.Errorf("bench: default-pool ingest: %w", err)
	}
	res.IngestSerialBlocksSec = float64(res.Blocks) / (float64(res.IngestSerialNsPerOp) / 1e9)
	res.IngestParallelBlocksSec = float64(res.Blocks) / (float64(res.IngestParallelNsPerOp) / 1e9)
	if res.IngestParallelNsPerOp > 0 {
		res.IngestSpeedup = float64(res.IngestSerialNsPerOp) / float64(res.IngestParallelNsPerOp)
	}

	// Query path: one cluster, a homolog workload, coordinator-side p50/p95
	// from the search_ns histogram.
	ip, err := newCluster(s, db)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	ip.Observe(reg, nil)
	queries, err := perfQueries(gen, db, s)
	if err != nil {
		return nil, err
	}
	params := proteinParams()
	var searchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ip.Search(context.Background(), queries[i%len(queries)], params); err != nil {
				searchErr = err
				return
			}
		}
	})
	if searchErr != nil {
		return nil, fmt.Errorf("bench: query: %w", searchErr)
	}
	res.QueryNsPerOp = r.NsPerOp()
	res.QueryAllocsPerOp = r.AllocsPerOp()
	res.QueryBytesPerOp = r.AllocedBytesPerOp()
	h := reg.Histogram("search_ns")
	res.QueryP50Ns = h.Quantile(0.50)
	res.QueryP95Ns = h.Quantile(0.95)
	res.QuerySamples = int64(r.N)
	return res, nil
}

// perfQueries derives a fixed homolog query set from the database: 120-long
// fragments mutated to ~90% identity, the workload Fig. 6a uses.
func perfQueries(gen *datagen.Generator, db *seq.Set, s Scale) ([][]byte, error) {
	n := s.QueriesPerPoint
	if n < 4 {
		n = 4
	}
	return gen.QuerySet(db, n, 120, 0.1, 0.01)
}

// JSON renders the result for the BENCH_*.json artifact.
func (r *PerfResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render prints the human-readable table.
func (r *PerfResult) Render() string {
	rows := [][]string{
		{"ingest serial", fmt.Sprintf("%.1f blocks/s", r.IngestSerialBlocksSec), fmt.Sprintf("%d ns/op", r.IngestSerialNsPerOp)},
		{"ingest parallel", fmt.Sprintf("%.1f blocks/s", r.IngestParallelBlocksSec), fmt.Sprintf("%d ns/op", r.IngestParallelNsPerOp)},
		{"ingest speedup", fmt.Sprintf("%.2fx", r.IngestSpeedup), fmt.Sprintf("GOMAXPROCS=%d", r.GOMAXPROCS)},
		{"query", fmt.Sprintf("%d allocs/op", r.QueryAllocsPerOp), fmt.Sprintf("%d ns/op", r.QueryNsPerOp)},
		{"query p50/p95", time.Duration(r.QueryP50Ns).Round(time.Microsecond).String(), time.Duration(r.QueryP95Ns).Round(time.Microsecond).String()},
	}
	return fmt.Sprintf("Perf hot paths (%d nodes, %d groups, %d blocks)\n%s",
		r.Nodes, r.Groups, r.Blocks, table([]string{"path", "throughput", "latency"}, rows))
}
