package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/transport"
)

// rpcTypes are the message types reported one by one; every other type
// is summed as "other".
var rpcTypes = []string{"find_closest", "get_neighbors", "store_put", "store_get",
	"digest", "sync_pull", "route_gossip", "ping", "notify"}

// liveWorkload is one live-cluster workload: how to build and preload
// the cluster, the client operation, and the checks that close the run.
type liveWorkload struct {
	spec clusterSpec
	// maintTick, when non-zero, runs StabilizeOnce on one node per tick,
	// round-robin, for the whole measured part of the run.
	maintTick time.Duration
	// preload, when set, loads a converged cluster's data; it counts as
	// set-up. op then builds the client operation outside set-up time.
	preload func(c *cluster, tr *tracer) error
	op      func(c *cluster, tr *tracer) opFunc
	// predict checks the window's counter deltas against the workload's
	// predictions (which layers it must leave idle).
	predict func(d series) error
	// finish, when set, runs the end-of-run checks.
	finish func(c *cluster) error
	// reset, when set, runs just before the untraced measured window;
	// perOp runs just after it and adds the workload's per-operation
	// layer metrics.
	reset func()
	perOp func(o *outcome, w *windowResult)
}

// maintRound is one scheduled maintenance call.
type maintRound struct {
	start      time.Time
	late, took time.Duration
}

// maintenance calls StabilizeOnce on one node per tick, round-robin, on a
// fixed schedule: round k is due at start + k·tick, and a round that
// starts after its due time records how late it ran.
type maintenance struct {
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	mu     sync.Mutex
	rounds []maintRound
	err    error // the first StabilizeOnce error
}

func startMaintenance(c *cluster, tick time.Duration, tr *tracer) *maintenance {
	m := &maintenance{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t0 := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * tick)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-m.stop:
					return
				}
			}
			select {
			case <-m.stop:
				return
			default:
			}
			nd := c.nodes[k%len(c.nodes)]
			start := time.Now()
			err := tr.call(nd.Addr(), "transport.StabilizeOnce", nd.StabilizeOnce)
			m.mu.Lock()
			m.rounds = append(m.rounds, maintRound{start: start, late: start.Sub(due), took: time.Since(start)})
			if err != nil && m.err == nil {
				m.err = fmt.Errorf("StabilizeOnce on %s: %w", nd.Addr(), err)
			}
			m.mu.Unlock()
		}
	}()
	return m
}

// halt stops the schedule, waits for the running round, and returns the
// first error any round returned.
func (m *maintenance) halt() error {
	if m == nil {
		return nil
	}
	m.once.Do(func() { close(m.stop) })
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// between returns the rounds that started in [a, b).
func (m *maintenance) between(a, b time.Time) []maintRound {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []maintRound
	for _, r := range m.rounds {
		if !r.start.Before(a) && r.start.Before(b) {
			out = append(out, r)
		}
	}
	return out
}

// measured is one window with the counters and runtime statistics
// around it.
type measured struct {
	w       *windowResult
	delta   series
	handled int64
	dials   int64
	mem     runtime.MemStats // delta of the cumulative fields
	rounds  []maintRound
}

func handledSum(c *cluster) int64 {
	var t int64
	for _, nd := range c.nodes {
		t += nd.Handled()
	}
	return t
}

func measureWindow(ctx context.Context, c *cluster, d time.Duration, rngs []*rand.Rand, op opFunc, m *maintenance) (*measured, error) {
	before, err := scrapeNodes(c.nodes)
	if err != nil {
		return nil, err
	}
	h0, dials0 := handledSum(c), c.dials.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	w, err := runWindow(ctx, d, rngs, op)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	after, err := scrapeNodes(c.nodes)
	if err != nil {
		return nil, err
	}
	out := &measured{w: w, delta: after.minus(before), handled: handledSum(c) - h0,
		dials: c.dials.Load() - dials0, rounds: m.between(start, end)}
	out.mem = memDelta(m0, m1)
	return out, nil
}

// memDelta is the change in the cumulative MemStats fields the runtime
// layer reports.
func memDelta(m0, m1 runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		Mallocs:      m1.Mallocs - m0.Mallocs,
		TotalAlloc:   m1.TotalAlloc - m0.TotalAlloc,
		NumGC:        m1.NumGC - m0.NumGC,
		PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// heapAfterGC is the heap in use, in MB, after a forced collection.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// runLive runs a live workload: set-up (several times in an untraced
// run, timing each), a warm-up, the measured window, the checks, and in
// a traced run a second, traced window.
func runLive(cfg runConfig, lw liveWorkload) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	var h hooks
	reps := cfg.setupReps
	if cfg.trace {
		tr = newTracer()
		tr.on.Store(true)
		h = hooks{wrap: tr.wrap, call: tr.call}
		reps = 1
	}
	var (
		c        *cluster
		setups   []float64
		preloadS float64
	)
	for r := 0; r < reps; r++ {
		if c != nil {
			c.close()
			c = nil
		}
		runtime.GC() // the previous cluster's garbage is not this set-up's work
		t0 := time.Now()
		var err error
		if c, err = startCluster(lw.spec, h); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := c.checkRings(); err != nil {
			c.close()
			return nil, wrongf("after set-up: %v", err)
		}
		t1 := time.Now()
		if lw.preload != nil {
			if err := lw.preload(c, tr); err != nil {
				c.close()
				return nil, err
			}
		}
		preloadS = time.Since(t1).Seconds()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()
	setupMark := 0
	if tr != nil {
		tr.on.Store(false)
		setupMark = tr.mark()
	}
	op := lw.op(c, tr)

	o.e2e["setup_s"] = median(setups)
	o.layer["transport.setup.join_s"] = c.times.join.Seconds()
	o.layer["transport.setup.stabilize_s"] = c.times.stabilize.Seconds()
	o.layer["transport.setup.stabilize_rounds"] = float64(c.times.rounds)
	o.layer["transport.setup.fingers_s"] = c.times.fingers.Seconds()
	if lw.preload != nil {
		o.layer["replica.setup.preload_s"] = preloadS
	}

	var m *maintenance
	if lw.maintTick > 0 {
		m = startMaintenance(c, lw.maintTick, tr)
	}
	defer func() { _ = m.halt() }() // an early return already carries its own error
	ctx := context.Background()
	rngs := clientRNGs(cfg.seed, 1)
	if _, err := runWindow(ctx, cfg.warmup, rngs, op); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if lw.reset != nil {
		lw.reset()
	}
	mw, err := measureWindow(ctx, c, cfg.window, rngs, op, m)
	if err != nil {
		return nil, err
	}
	o.e2e["heap_mb"] = heapAfterGC()
	if err := lw.predict(mw.delta); err != nil {
		return nil, err
	}
	o.fromWindow(mw.w)
	o.layerCounters(mw)
	lw.perOp(o, mw.w)

	var tw *measured
	mark := 0
	if tr != nil {
		mark = tr.mark()
		tr.on.Store(true)
		tw, err = measureWindow(ctx, c, cfg.tracedWindow(), rngs, op, m)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
	}
	if err := m.halt(); err != nil {
		return nil, fmt.Errorf("maintenance: %w", err)
	}
	if tw != nil {
		o.attempted += tw.w.attempted
		o.failed += tw.w.failed
		o.layerSpans(tr, setupMark, mark)
		o.layer["trace.untraced_ops_per_s"] = mw.w.opsPerSec()
		o.layer["trace.traced_ops_per_s"] = tw.w.opsPerSec()
		o.layer["trace.overhead_ratio"] = ratio(tw.w.opsPerSec(), mw.w.opsPerSec())
	}
	if lw.finish != nil {
		if err := lw.finish(c); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// layerCounters fills the per-layer metrics read from node counters, the
// dial counter, the maintenance log and runtime.MemStats.
func (o *outcome) layerCounters(mw *measured) {
	d, ops := mw.delta, float64(mw.w.attempted)
	named := 0.0
	for _, t := range rpcTypes {
		n := d[`rpc_requests_total{type="`+t+`"}`]
		named += n
		o.layer["wire.rpc."+t+".per_op"] = ratio(n, ops)
	}
	o.layer["wire.rpc.other.per_op"] = ratio(d.sum("rpc_requests_total")-named, ops)
	o.layer["wire.bytes_out_per_op"] = ratio(d["rpc_bytes_out_total"], ops)
	o.layer["wire.dials"] = float64(mw.dials)
	o.layer["wire.retries"] = d.sum("wire_retries_total")
	o.layer["wire.rpc_errors"] = d.sum("rpc_errors_total")
	o.layer["transport.walk_retries"] = d["walk_retries_total"]
	o.layer["transport.walk_restarts"] = d["walk_restarts_total"]
	o.layer["transport.server.requests_per_op"] = ratio(float64(mw.handled), ops)
	o.layer["routes.onehop_hit_ratio"] = ratio(d["onehop_hits_total"], d["lookups_total"])
	o.layer["routes.onehop_stale"] = d["onehop_stale_total"]
	o.layer["replica.read_repairs"] = d["read_repairs_total"]
	o.layer["replica.quorum_failures"] = d.sum("quorum_failures_total")
	if n := len(mw.rounds); n > 0 {
		var took, late []float64
		for _, r := range mw.rounds {
			took = append(took, float64(r.took)/1e6)
			late = append(late, float64(r.late)/1e6)
		}
		o.layer["transport.maint.round_p50_ms"] = quantile(took, 0.5)
		o.layer["transport.maint.round_p99_ms"] = quantile(took, 0.99)
		o.layer["transport.maint.late_p99_ms"] = quantile(late, 0.99)
		o.layer["routes.gossip_bytes_per_round"] = d["route_gossip_bytes_total"] / float64(n)
		o.layer["replica.antientropy.bytes_per_round"] = d["antientropy_bytes_total"] / float64(n)
	}
	o.layer["routes.gossip_byte_share"] = ratio(d["route_gossip_bytes_total"], d["rpc_bytes_out_total"])
	o.runtimeLayer(mw.mem, ops)
}

func (o *outcome) runtimeLayer(mem runtime.MemStats, ops float64) {
	o.layer["runtime.allocs_per_op"] = ratio(float64(mem.Mallocs), ops)
	o.layer["runtime.alloc_bytes_per_op"] = ratio(float64(mem.TotalAlloc), ops)
	o.layer["runtime.gc_cycles"] = float64(mem.NumGC)
	o.layer["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs) / 1e6
}

// layerSpans fills the per-layer metrics computed from the spans of the
// traced window (those recorded after mark) and keeps every span, with
// per-layer tables of set-up (the spans before setupMark) and of the
// traced window, for the report.
func (o *outcome) layerSpans(tr *tracer, setupMark, mark int) {
	all := tr.all()
	win := analyze(all[mark:])
	rpcDur := map[string][]float64{}
	rpcs, orphans := 0, 0
	maintFN, allFN := 0, 0
	maintRPCs, maintRounds := 0, 0
	type opAgg struct{ n, rpcs, self, covered, resolve, quorum float64 }
	ops := map[string]*opAgg{}
	for _, s := range win.spans {
		switch {
		case isRPC(s.Name):
			t := strings.TrimPrefix(s.Name, "wire.")
			if !slices.Contains(rpcTypes, t) {
				t = "other"
			}
			rpcDur[t] = append(rpcDur[t], float64(s.dur())/1e3)
			root := win.roots[s.Req]
			if root == "transport.StabilizeOnce" {
				maintRPCs++
			}
			if t == "find_closest" || t == "get_neighbors" {
				allFN++
				if root == "transport.StabilizeOnce" {
					maintFN++
				}
			}
		case s.Name == "transport.StabilizeOnce":
			maintRounds++
		default:
			a := ops[s.Name]
			if a == nil {
				a = &opAgg{}
				ops[s.Name] = a
			}
			kids := win.kids[s.ID]
			a.n++
			a.rpcs += float64(len(kids))
			a.self += float64(win.self(s)) / 1e3
			a.covered += float64(win.covered[s.ID]) / 1e3
			a.resolve += float64(win.union(kids, func(n string) bool {
				return n == "wire.find_closest" || n == "wire.get_neighbors"
			})) / 1e3
			a.quorum += float64(win.union(kids, func(n string) bool { return strings.HasPrefix(n, "wire.store_") })) / 1e3
		}
	}
	for _, s := range all {
		if isRPC(s.Name) {
			rpcs++
			if s.Parent == 0 {
				orphans++
			}
		}
	}
	for _, t := range append(append([]string(nil), rpcTypes...), "other") {
		o.layer["wire.rpc."+t+".p50_us"] = quantile(rpcDur[t], 0.5)
		o.layer["wire.rpc."+t+".p99_us"] = quantile(rpcDur[t], 0.99)
	}
	if a := ops["transport.Lookup"]; a != nil {
		o.layer["transport.lookup.rpcs"] = a.rpcs / a.n
		o.layer["transport.lookup.self_us"] = a.self / a.n
		o.layer["transport.lookup.rpc_wait_us"] = a.covered / a.n
	}
	for _, op := range []string{"put", "get", "delete"} {
		a := ops["transport."+strings.ToUpper(op[:1])+op[1:]]
		if a == nil {
			continue
		}
		o.layer["replica."+op+".resolve_us"] = a.resolve / a.n
		o.layer["replica."+op+".quorum_us"] = a.quorum / a.n
		o.layer["replica."+op+".self_us"] = a.self / a.n
	}
	o.layer["transport.maint.rpcs_per_round"] = ratio(float64(maintRPCs), float64(maintRounds))
	o.layer["transport.maint.find_neighbors_share"] = ratio(float64(maintFN), float64(allFN))
	o.layer["trace.orphan_rpc_share"] = ratio(float64(orphans), float64(rpcs))
	o.layer["trace.spans"] = float64(len(all))
	o.spans = all
	o.tables = []spanTable{{"set-up", analyze(all[:setupMark]).table()}, {"traced window", win.table()}}
}

// lookupClassic: 64 nodes, classic routing, no maintenance. Each client
// looks up uniform keys from uniform origins; every owner is checked
// against the oracle successor.
func lookupClassic(cfg runConfig) (*outcome, error) {
	var names []id.ID
	var owners []int
	var hops, lower atomic.Int64
	var stray atomic.Bool
	stray.Store(true)
	lw := liveWorkload{
		spec: clusterSpec{nodes: cfg.nodes(64), routeMode: transport.RouteClassic, maxRounds: cfg.maxRounds()},
		op: func(c *cluster, tr *tracer) opFunc {
			keys := cfg.keys(100_000)
			names, owners = make([]id.ID, keys), make([]int, keys)
			for k := range names {
				names[k] = transport.LiveKeyID(fmt.Sprintf("key-%d", k))
				owners[k] = c.owner(names[k])
			}
			return func(ctx context.Context, client int, rng *rand.Rand) (string, error) {
				origin := c.nodes[rng.Intn(len(c.nodes))]
				k := rng.Intn(len(names))
				if cfg.plant == "classic-bypass" && stray.CompareAndSwap(false, true) {
					// A stray write: the prediction check must notice it.
					if err := origin.Put(ctx, "stray", []byte("x")); err != nil {
						return "lookup", err
					}
				}
				ctx, sp := tr.begin(ctx, "transport.Lookup")
				res, err := origin.Lookup(ctx, names[k])
				tr.end(sp, err)
				if err != nil {
					return "lookup", err
				}
				hops.Add(int64(res.Hops))
				for _, h := range res.LayerHops[1:] {
					lower.Add(int64(h))
				}
				want := c.nodes[owners[k]].Addr()
				got := res.Owner.Addr
				if cfg.plant == "lookup-owner" {
					got = c.nodes[(owners[k]+1)%len(c.nodes)].Addr()
				}
				if got != want {
					return "lookup", wrongf("lookup key-%d from %s: owner %s, oracle successor %s", k, origin.Addr(), got, want)
				}
				return "lookup", nil
			}
		},
		predict: func(d series) error {
			for _, t := range []string{"store_put", "store_get", "digest", "sync_pull", "route_gossip"} {
				if n := d[`rpc_requests_total{type="`+t+`"}`]; n != 0 {
					return wrongf("prediction: lookup_classic must send no %s RPCs, sent %.0f", t, n)
				}
			}
			return nil
		},
		reset: func() { hops.Store(0); lower.Store(0); stray.Store(false) },
		perOp: func(o *outcome, w *windowResult) {
			o.layer["transport.api.lookup_p50_ms"] = w.kindQuantile("lookup", 0.5)
			o.layer["transport.api.lookup_p99_ms"] = w.kindQuantile("lookup", 0.99)
			o.layer["transport.lookup.hops"] = ratio(float64(hops.Load()), float64(w.attempted))
			o.layer["transport.lookup.lower_hop_share"] = ratio(float64(lower.Load()), float64(hops.Load()))
		},
	}
	return runLive(cfg, lw)
}

// kvValueBytes is the size of every stored value.
const kvValueBytes = 64

// kvModel is the client-side record of what every key must read back.
// Client c only touches vals[c] and unknown[c], so no lock is needed.
type kvModel struct {
	keys    [clients][]string
	vals    [clients][][]byte // nil: deleted
	unknown [clients][]bool   // a failed write left the value undetermined
}

func newValue(rng *rand.Rand) []byte {
	v := make([]byte, kvValueBytes)
	rng.Read(v)
	return v
}

func notFound(err error) bool { return err != nil && strings.Contains(err.Error(), "not found") }

// kvOneHopMixed: 32 nodes, one-hop routing, factor-3 replication with
// W=2 and R=2 (R+W>N, so a get has one exact expected value). Each client
// owns a disjoint set of keys, preloaded during set-up; the mix is 60%
// get, 30% put, 10% delete, and a deleted key's next operation is a put.
// StabilizeOnce runs on one node per tick throughout.
func kvOneHopMixed(cfg runConfig) (*outcome, error) {
	var model *kvModel
	var planted atomic.Bool
	mode := transport.RouteOneHop
	if cfg.plant == "kv-bypass" {
		mode = transport.RouteClassic
	}
	lw := liveWorkload{
		spec: clusterSpec{nodes: cfg.nodes(32), routeMode: mode,
			repl:       replica.Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2},
			dropGossip: cfg.plant == "routes-table", maxRounds: cfg.maxRounds()},
		maintTick: cfg.maintTick,
		preload: func(c *cluster, tr *tracer) error {
			perClient := cfg.keys(5_000)
			model = &kvModel{}
			rngs := clientRNGs(cfg.seed, 2)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				model.keys[cl] = make([]string, perClient)
				model.vals[cl] = make([][]byte, perClient)
				model.unknown[cl] = make([]bool, perClient)
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					rng := rngs[cl]
					for i := range model.keys[cl] {
						key := fmt.Sprintf("c%d-key-%d", cl, i)
						v := newValue(rng)
						nd := c.nodes[rng.Intn(len(c.nodes))]
						ctx, sp := tr.begin(context.Background(), "preload.Put")
						err := nd.Put(ctx, key, v)
						tr.end(sp, err)
						if err != nil {
							errs[cl] = fmt.Errorf("preload %s: %w", key, err)
							return
						}
						model.keys[cl][i], model.vals[cl][i] = key, v
					}
				}(cl)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		},
		op: func(c *cluster, tr *tracer) opFunc {
			return func(ctx context.Context, cl int, rng *rand.Rand) (string, error) {
				i := rng.Intn(len(model.keys[cl]))
				key := model.keys[cl][i]
				origin := c.nodes[rng.Intn(len(c.nodes))]
				kind := "put"
				if model.vals[cl][i] != nil {
					switch r := rng.Float64(); {
					case r < 0.6:
						kind = "get"
					case r < 0.9:
						kind = "put"
					default:
						kind = "delete"
					}
				}
				ctx, sp := tr.begin(ctx, "transport."+strings.ToUpper(kind[:1])+kind[1:])
				switch kind {
				case "get":
					v, err := origin.Get(ctx, key)
					tr.end(sp, err)
					if model.unknown[cl][i] {
						return kind, err
					}
					if notFound(err) {
						return kind, wrongf("get %s from %s: not found, last acked value has %d bytes", key, origin.Addr(), len(model.vals[cl][i]))
					}
					if err != nil {
						return kind, err
					}
					if cfg.plant == "get-value" && planted.CompareAndSwap(false, true) {
						v = append([]byte{v[0] ^ 1}, v[1:]...)
					}
					if !bytes.Equal(v, model.vals[cl][i]) {
						return kind, wrongf("get %s from %s: value differs from the last acked put", key, origin.Addr())
					}
					return kind, nil
				case "put":
					v := newValue(rng)
					err := origin.Put(ctx, key, v)
					tr.end(sp, err)
					model.unknown[cl][i] = err != nil
					if err == nil {
						model.vals[cl][i] = v
					}
					return kind, err
				default:
					err := origin.Delete(ctx, key)
					tr.end(sp, err)
					model.unknown[cl][i] = err != nil
					if err == nil {
						model.vals[cl][i] = nil
					}
					return kind, err
				}
			}
		},
		predict: func(d series) error {
			if r := ratio(d["onehop_hits_total"], d["lookups_total"]); r < 0.99 {
				return wrongf("prediction: kv_onehop_mixed one-hop hit ratio %.4f, want >= 0.99", r)
			}
			return nil
		},
		finish: func(c *cluster) error {
			var deleted []string
			for cl := range model.keys {
				for i, v := range model.vals[cl] {
					if v == nil && !model.unknown[cl][i] {
						deleted = append(deleted, model.keys[cl][i])
					}
				}
			}
			sort.Strings(deleted)
			if cfg.plant == "deleted-resurrect" && len(deleted) > 0 {
				if err := c.nodes[0].Put(context.Background(), deleted[0], []byte("resurrected")); err != nil {
					return err
				}
			}
			for j, key := range deleted {
				nd := c.nodes[j%len(c.nodes)]
				v, err := nd.Get(context.Background(), key)
				if err == nil {
					return wrongf("deleted key %s reads back %d bytes from %s", key, len(v), nd.Addr())
				}
				if !notFound(err) {
					return fmt.Errorf("end check of deleted key %s: %w", key, err)
				}
			}
			return nil
		},
		perOp: func(o *outcome, w *windowResult) {
			for _, k := range []string{"get", "put", "delete"} {
				o.layer["transport.api."+k+"_p50_ms"] = w.kindQuantile(k, 0.5)
				o.layer["transport.api."+k+"_p99_ms"] = w.kindQuantile(k, 0.99)
			}
		},
	}
	return runLive(cfg, lw)
}
