// Command perfbench is the repository benchmark. It runs one workload
// against a Mendel cluster built from this checkout, checks the outputs,
// and prints one JSON result line.
//
//	bash perfbench/run.sh --workload homolog-search --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no decorator in the path. With --trace 1 the same cluster is built with
// span-recording decorators around every transport.Caller, node
// transport.Handler and gateway route; half the run is measured with them
// disabled and half with them recording, and the result carries the
// per-layer metrics. Metric names and units come from BENCHMARK.json in
// the working directory. A human-readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// runArgs are the benchmark's command-line arguments.
type runArgs struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload run produced: metric values by name, the
// operations attempted and failed, and every correctness check that failed.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	checks    []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// check records a failed correctness check unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runArgs) (*outcome, error){
	"homolog-search": runHomolog,
	"serve-mixed":    runServe,
	"bulk-ingest":    runBulk,
}

func main() {
	var a runArgs
	var secs, trace int
	flag.StringVar(&a.workload, "workload", "", "workload name: homolog-search, serve-mixed or bulk-ingest")
	flag.Int64Var(&a.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&secs, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	flag.Parse()
	a.seconds = time.Duration(secs) * time.Second
	a.trace = trace == 1
	if err := run(a); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(a runArgs) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	w, ok := workloads[a.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	if a.seconds < 2*time.Second {
		return fmt.Errorf("--seconds must be at least 2")
	}
	fmt.Fprintf(os.Stderr, "env: workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d nproc=%d go=%s %s/%s\n",
		a.workload, a.seed, int(a.seconds.Seconds()), a.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	o, err := w(a)
	if err != nil {
		return err
	}
	specs := bf.EndToEnd
	if a.trace {
		specs = bf.PerLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   len(o.checks) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed + len(o.checks),
		Metrics:   map[string]metricOut{},
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metricOut{Value: o.metrics[s.Name], Unit: s.Unit}
	}
	printReport(specs, o)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d failed operations, failed checks: %s", o.failed, strings.Join(o.checks, "; "))
	}
	return nil
}

func printReport(specs []metricSpec, o *outcome) {
	fmt.Fprintf(os.Stderr, "attempted=%d failed=%d checks_failed=%d\n", o.attempted, o.failed, len(o.checks))
	for _, c := range o.checks {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", c)
	}
	names := make([]string, 0, len(specs))
	units := map[string]string{}
	for _, s := range specs {
		names = append(names, s.Name)
		units[s.Name] = s.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", n, o.metrics[n], units[n])
	}
}
