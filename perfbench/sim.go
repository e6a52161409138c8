package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	hieras "repro"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// simWorkers is the batch pool's worker count, fixed so the workload
// does not change with the host. It equals nproc on the reference host.
const simWorkers = 2

// simSummary is the part of a comparison the checks compare. For a fixed
// overlay and batch seed it is identical on every run.
type simSummary struct {
	hierasHops, chordHops    float64
	hierasLatMs, chordLatMs  float64
	latencyRatio, hopRatio   float64
	lowerHopShare            float64
	hierasP50Ms, hierasP99Ms float64
	chordP50Ms, chordP99Ms   float64
}

// simWindow is one measured stretch of comparison batches.
type simWindow struct {
	rates         []float64 // requests per second, one per batch
	sums          []simSummary
	busy, blockMs float64 // pool busy share and median block time
	mem           runtime.MemStats
}

func summarize(c *experiments.Comparison) simSummary {
	return simSummary{
		hierasHops: c.Hieras.Hops.Mean(), chordHops: c.Chord.Hops.Mean(),
		hierasLatMs: c.Hieras.Latency.Mean(), chordLatMs: c.Chord.Latency.Mean(),
		latencyRatio: c.LatencyRatio(), hopRatio: c.HopRatio(), lowerHopShare: c.LowerHopShare(),
		hierasP50Ms: c.HierasLatQ.Quantile(0.5), hierasP99Ms: c.HierasLatQ.Quantile(0.99),
		chordP50Ms: c.ChordLatQ.Quantile(0.5), chordP99Ms: c.ChordLatQ.Quantile(0.99),
	}
}

// checkBands holds a batch to the paper-claim bands the repository
// already asserts: the hierarchy costs at most a modest hop premium over
// Chord, and wins on latency on the transit-stub model.
func checkBands(b int, s simSummary) error {
	if s.hopRatio < 0.9 || s.hopRatio > 1.5 {
		return wrongf("batch %d: hop ratio %.4f outside [0.9, 1.5]", b, s.hopRatio)
	}
	if s.latencyRatio >= 1 {
		return wrongf("batch %d: latency ratio %.4f, HIERAS must beat Chord on TS", b, s.latencyRatio)
	}
	return nil
}

// batchSeed gives batch b its own request stream, drawn from the run seed.
func batchSeed(seed int64, b int) int64 { return seed*7_919 + int64(b) + 1 }

// worldSeed fixes the simulated internetwork and overlay. The world is
// part of the workload, like the live clusters' node names; the run seed
// draws the requests routed through it.
const worldSeed = 2003

// paperSim: the paper's §4 configuration at full scale — a 10,000-node
// transit-stub system, 4 landmarks, depth 2 — compared against Chord in
// batches of the paper's 100,000 requests on an instrumented pool.
func paperSim(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	opts := hieras.Options{Model: experiments.ModelTS, Nodes: cfg.simNodes(10_000), Landmarks: 4, Depth: 2,
		Seed: worldSeed, Workers: simWorkers}
	var tr *tracer
	reps := cfg.setupReps
	if cfg.trace {
		tr = newTracer()
		tr.on.Store(true)
		reps = 1
	}
	var sys *hieras.System
	var setups []float64
	for r := 0; r < reps; r++ {
		sys = nil
		runtime.GC()
		t0 := time.Now()
		_, sp := tr.begin(context.Background(), "hieras.New")
		var err error
		sys, err = hieras.New(opts)
		tr.end(sp, err)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	if tr != nil {
		tr.on.Store(false)
	}

	reg := metrics.NewRegistry()
	pool := experiments.NewPool(simWorkers)
	pool.Instrument(reg)
	requests := cfg.simRequests(100_000)
	batch := func(ctx context.Context, b int) (simSummary, error) {
		sc := experiments.Scenario{Model: opts.Model, Nodes: opts.Nodes, Landmarks: opts.Landmarks, Depth: opts.Depth,
			Requests: requests, Seed: batchSeed(cfg.seed, b), Workers: simWorkers, Pool: pool}
		ctx, sp := tr.begin(ctx, "experiments.CompareContext")
		cmp, err := experiments.CompareContext(ctx, sys.Overlay(), sc)
		tr.end(sp, err)
		if err != nil {
			return simSummary{}, err
		}
		s := summarize(cmp)
		if cfg.plant == "sim-band" {
			s.latencyRatio = 1 / s.latencyRatio
		}
		return s, checkBands(b, s)
	}

	ctx := context.Background()
	warm, err := batch(ctx, 0)
	if err != nil {
		return nil, err
	}
	next := 1
	// window runs batches for d and returns what it measured.
	window := func(d time.Duration) (*simWindow, error) {
		before, err := scrape(reg)
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w := &simWindow{}
		start := time.Now()
		for time.Since(start) < d {
			t := time.Now()
			s, err := batch(ctx, next)
			if err != nil {
				return nil, err
			}
			next++
			w.rates = append(w.rates, float64(requests)/time.Since(t).Seconds())
			w.sums = append(w.sums, s)
		}
		elapsed := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		after, err := scrape(reg)
		if err != nil {
			return nil, err
		}
		pd := after.minus(before)
		w.busy = pd["pool_block_seconds_sum"] / (simWorkers * elapsed)
		w.blockMs = pd.histQuantile("pool_block_seconds", 0.5) * 1e3
		w.mem = memDelta(m0, m1)
		return w, nil
	}

	w, err := window(cfg.window)
	if err != nil {
		return nil, err
	}
	o.e2e["heap_mb"] = heapAfterGC()
	o.attempted = len(w.rates) * requests
	o.e2e["ops_per_s"] = median(w.rates)
	lat, err := modeledLatencies(sys, cfg.seed, requests)
	if err != nil {
		return nil, err
	}
	o.e2e["latency_p50_ms"] = quantile(lat, 0.5)
	o.e2e["latency_p99_ms"] = quantile(lat, 0.99)
	var hops, lower, latR, hopR []float64
	for _, s := range w.sums {
		hops = append(hops, s.hierasHops)
		lower = append(lower, s.lowerHopShare)
		latR = append(latR, s.latencyRatio)
		hopR = append(hopR, s.hopRatio)
	}
	o.layer["core.hops"] = mean(hops)
	o.layer["core.lower_hop_share"] = mean(lower)
	o.layer["core.route_latency_ratio"] = mean(latR)
	o.layer["core.route_hop_ratio"] = mean(hopR)
	o.layer["experiments.pool.busy_share"] = w.busy
	o.layer["experiments.pool.block_p50_ms"] = w.blockMs
	o.runtimeLayer(w.mem, float64(o.attempted))

	if tr != nil {
		mark := tr.mark()
		tr.on.Store(true)
		tw, err := window(cfg.tracedWindow())
		if err != nil {
			return nil, err
		}
		routeUs, chordUs, err := sampleRoutes(tr, sys, cfg.seed)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		o.attempted += len(tw.rates) * requests
		o.layer["core.route_us"] = routeUs
		o.layer["chord.route_us"] = chordUs
		o.layer["trace.untraced_ops_per_s"] = median(w.rates)
		o.layer["trace.traced_ops_per_s"] = median(tw.rates)
		o.layer["trace.overhead_ratio"] = ratio(median(tw.rates), median(w.rates))
		o.spans = tr.all()
		o.layer["trace.spans"] = float64(len(o.spans))
		o.tables = []spanTable{{"set-up", analyze(o.spans[:mark]).table()}, {"traced window", analyze(o.spans[mark:]).table()}}
	}

	// The warm-up batch, run again, must give an identical summary.
	again := 0
	if cfg.plant == "sim-repeat" {
		again = next
	}
	rep, err := batch(ctx, again)
	if err != nil {
		return nil, err
	}
	if rep != warm {
		return nil, wrongf("batch 0 repeated gives a different summary: %+v, first %+v", rep, warm)
	}
	return o, nil
}

// modeledLatencies routes one request stream of the given size through
// HIERAS and returns each lookup's latency in the simulated underlay, in
// ms: the lookup latency a user of the modeled overlay waits, which is
// what the paper measures. The comparison batches keep only sketches of
// it, whose quantiles snap to bucket bounds.
func modeledLatencies(sys *hieras.System, seed int64, requests int) ([]float64, error) {
	gen, err := workload.NewUniform(batchSeed(seed, -2), sys.N())
	if err != nil {
		return nil, err
	}
	o := sys.Overlay()
	lat := make([]float64, requests)
	for i := range lat {
		r := gen.Next()
		lat[i] = o.Route(r.Origin, r.Key).Latency
	}
	return lat, nil
}

// simSample is how many requests the traced run times one call at a time.
const simSample = 2_000

// sampleRoutes times a sample of single HIERAS and Chord routing calls,
// each under its own span, and returns their mean durations in µs.
func sampleRoutes(tr *tracer, sys *hieras.System, seed int64) (routeUs, chordUs float64, err error) {
	gen, err := workload.NewUniform(batchSeed(seed, -1), sys.N())
	if err != nil {
		return 0, 0, err
	}
	o := sys.Overlay()
	var rt, ct int64
	for i := 0; i < simSample; i++ {
		r := gen.Next()
		_, sp := tr.begin(context.Background(), "core.Route")
		o.Route(r.Origin, r.Key)
		tr.end(sp, nil)
		rt += sp.dur()
		_, sp = tr.begin(context.Background(), "chord.ChordRoute")
		o.ChordRoute(r.Origin, r.Key)
		tr.end(sp, nil)
		ct += sp.dur()
	}
	return float64(rt) / 1e3 / simSample, float64(ct) / 1e3 / simSample, nil
}
