// Command perfbench is the repository's benchmark. It builds one of three
// workloads from a seed, drives it through the public APIs
// (transport.Node on an in-process wire.MemNet cluster, or the hieras
// facade with the experiments batch pool), checks every answer, and
// prints the metrics named in BENCHMARK.json as the last line of its
// output:
//
//	perfbench --workload lookup_classic --seed 1 --seconds 5 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer, prints a per-layer table
// with self times, writes the spans under .bench_build/perfbench, and
// prints the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists must match
// BENCHMARK.json (the package tests check it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_ratio", "ratio"},
	{"heap_mb", "MB"},
}

func perLayer() []metricDef {
	defs := []metricDef{
		{"transport.api.lookup_p50_ms", "ms"}, {"transport.api.lookup_p99_ms", "ms"},
		{"transport.api.get_p50_ms", "ms"}, {"transport.api.get_p99_ms", "ms"},
		{"transport.api.put_p50_ms", "ms"}, {"transport.api.put_p99_ms", "ms"},
		{"transport.api.delete_p50_ms", "ms"}, {"transport.api.delete_p99_ms", "ms"},
		{"transport.lookup.hops", "count"}, {"transport.lookup.rpcs", "count"},
		{"transport.lookup.self_us", "us"}, {"transport.lookup.rpc_wait_us", "us"},
		{"transport.lookup.lower_hop_share", "ratio"},
		{"transport.walk_retries", "count"}, {"transport.walk_restarts", "count"},
		{"transport.server.requests_per_op", "count"},
		{"transport.setup.join_s", "s"}, {"transport.setup.stabilize_s", "s"},
		{"transport.setup.stabilize_rounds", "count"}, {"transport.setup.fingers_s", "s"},
		{"transport.maint.round_p50_ms", "ms"}, {"transport.maint.round_p99_ms", "ms"},
		{"transport.maint.rpcs_per_round", "count"}, {"transport.maint.late_p99_ms", "ms"},
		{"transport.maint.find_neighbors_share", "ratio"},
	}
	for _, t := range append(append([]string(nil), rpcTypes...), "other") {
		defs = append(defs,
			metricDef{"wire.rpc." + t + ".per_op", "count"},
			metricDef{"wire.rpc." + t + ".p50_us", "us"},
			metricDef{"wire.rpc." + t + ".p99_us", "us"})
	}
	defs = append(defs,
		metricDef{"wire.bytes_out_per_op", "B"}, metricDef{"wire.dials", "count"},
		metricDef{"wire.retries", "count"}, metricDef{"wire.rpc_errors", "count"},
		metricDef{"routes.onehop_hit_ratio", "ratio"}, metricDef{"routes.onehop_stale", "count"},
		metricDef{"routes.gossip_bytes_per_round", "B"}, metricDef{"routes.gossip_byte_share", "ratio"})
	for _, op := range []string{"put", "get", "delete"} {
		defs = append(defs,
			metricDef{"replica." + op + ".resolve_us", "us"},
			metricDef{"replica." + op + ".quorum_us", "us"},
			metricDef{"replica." + op + ".self_us", "us"})
	}
	return append(defs,
		metricDef{"replica.read_repairs", "count"}, metricDef{"replica.quorum_failures", "count"},
		metricDef{"replica.antientropy.bytes_per_round", "B"}, metricDef{"replica.setup.preload_s", "s"},
		metricDef{"core.route_us", "us"}, metricDef{"chord.route_us", "us"},
		metricDef{"core.hops", "count"}, metricDef{"core.lower_hop_share", "ratio"},
		metricDef{"core.route_latency_ratio", "ratio"}, metricDef{"core.route_hop_ratio", "ratio"},
		metricDef{"experiments.pool.busy_share", "ratio"}, metricDef{"experiments.pool.block_p50_ms", "ms"},
		metricDef{"runtime.allocs_per_op", "count"}, metricDef{"runtime.alloc_bytes_per_op", "B"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.untraced_ops_per_s", "ops/s"}, metricDef{"trace.traced_ops_per_s", "ops/s"},
		metricDef{"trace.overhead_ratio", "ratio"}, metricDef{"trace.orphan_rpc_share", "ratio"},
		metricDef{"trace.spans", "count"},
	)
}

// runConfig is one run's parameters. The zero-valued size overrides keep
// the workload sizes fixed in the workload definitions; only the package
// tests shrink them.
type runConfig struct {
	workload  string
	seed      int64
	window    time.Duration
	warmup    time.Duration
	trace     bool
	setupReps int
	maintTick time.Duration
	// plant makes the run produce one known wrong answer, to show that
	// the check guarding it fires. Only the package tests set it.
	plant string

	nodeCount, keyCount, simNodeCount, simRequestCount int
}

func override(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func (c runConfig) nodes(def int) int       { return override(c.nodeCount, def) }
func (c runConfig) keys(def int) int        { return override(c.keyCount, def) }
func (c runConfig) simNodes(def int) int    { return override(c.simNodeCount, def) }
func (c runConfig) simRequests(def int) int { return override(c.simRequestCount, def) }

// tracedWindow is the length of a traced run's traced window: half the
// measured window, which keeps the spans of a run in memory small.
func (c runConfig) tracedWindow() time.Duration { return c.window / 2 }

// maxRounds caps set-up stabilization for the planted ring check.
func (c runConfig) maxRounds() int {
	if c.plant == "ring" {
		return 1
	}
	return 0
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"lookup_classic":  lookupClassic,
	"kv_onehop_mixed": kvOneHopMixed,
	"paper_sim":       paperSim,
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	spans             []span
	// tables are per-layer span tables, each under a title.
	tables []spanTable
}

type spanTable struct {
	title string
	rows  []layerRow
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fromWindow(w *windowResult) {
	o.attempted += w.attempted
	o.failed += w.failed
	o.e2e["ops_per_s"] = w.opsPerSec()
	o.e2e["latency_p50_ms"] = w.latency(0.5)
	o.e2e["latency_p99_ms"] = w.latency(0.99)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final line: the end-to-end metrics, or with trace
// the per-layer metrics (a layer the workload leaves idle reports 0).
func (o *outcome) result(trace bool) resultOut {
	o.e2e["success_ratio"] = 1 - ratio(float64(o.failed), float64(o.attempted))
	defs, vals := endToEnd, o.e2e
	if trace {
		defs, vals = perLayer(), o.layer
	}
	r := resultOut{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// host is the fingerprint printed with every result.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
}

func fingerprint(cfg runConfig) host {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Nproc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpu, Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
}

// run executes one workload and writes its report to out. A wrong
// answer still prints a result, with correct false, and returns the
// error; any other failure prints no result.
func run(cfg runConfig, traceDir string, out io.Writer) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	h := fingerprint(cfg)
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host %s\n", hj)
	o, err := wl(cfg)
	if err != nil {
		if !isWrong(err) {
			return err
		}
		line, _ := json.Marshal(resultOut{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricOut{}})
		fmt.Fprintf(out, "%v\n%s\n", err, line)
		return err
	}
	if cfg.trace {
		for _, t := range o.tables {
			writeTable(out, cfg.workload+", "+t.title, t.rows)
		}
		path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, h, o.spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(o.spans), path)
	}
	line, err := json.Marshal(o.result(cfg.trace))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "lookup_classic | kv_onehop_mixed | paper_sim")
		seed     = flag.Int64("seed", 1, "workload seed: fixes every generated input")
		seconds  = flag.Int("seconds", 5, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		warmup:    time.Second,
		trace:     *trace == 1,
		setupReps: 3,
		maintTick: 200 * time.Millisecond,
	}
	if err := run(cfg, filepath.Join(".bench_build", "perfbench"), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
