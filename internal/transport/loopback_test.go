package transport

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/id"
	"repro/internal/wire"
)

// memSpec shapes an in-process cluster for memCluster.
type memSpec struct {
	n, depth int
	mode     string // route mode; "" = classic
	// wrap is every node's Config.WrapCaller (nil = none).
	wrap func(self string, inner wire.Caller) wire.Caller
	// dials, when non-nil, records every outgoing dial as "src>dst".
	dials *dialLog
}

// dialLog records dials by (source, target).
type dialLog struct {
	mu   sync.Mutex
	seen map[string]int
}

func (d *dialLog) count(src, dst string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seen[src+">"+dst]
}

// memCluster starts spec.n nodes named m0, m1, ... on one MemNet in two
// coarse clusters (one landmark each), each split into two sub-clusters
// 10–20 away from the landmark against 0–5: both halves share a layer-2
// ring and part at depth 3. It joins them all through m0, stabilizes to
// a fixpoint and builds every finger table. MemNet names make node IDs,
// and so every route, identical on every run.
func memCluster(tb testing.TB, spec memSpec) []*Node {
	tb.Helper()
	coord := func(i int) [2]float64 {
		base := [2]float64{0, 0}
		if i%2 == 1 {
			base = [2]float64{600, 600}
		}
		if (i/2)%2 == 1 {
			base[0] += 12
		}
		base[1] += float64(i % 5)
		return base
	}
	mem := wire.NewMemNet()
	landmarks := []string{"m0", "m1"}
	nodes := make([]*Node, 0, spec.n)
	tb.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})
	for i := 0; i < spec.n; i++ {
		name := fmt.Sprintf("m%d", i)
		ln, err := mem.Listen(name)
		if err != nil {
			tb.Fatal(err)
		}
		dial := mem.Dial
		if d := spec.dials; d != nil {
			dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				d.mu.Lock()
				d.seen[name+">"+addr]++
				d.mu.Unlock()
				return mem.Dial(addr, timeout)
			}
		}
		nd, err := Start("", Config{
			Depth: spec.depth, Coord: coord(i), Landmarks: landmarks,
			CallTimeout: 5 * time.Second, RouteMode: spec.mode,
			// Fast retries and no breaker: a breaker's cooldown runs on the
			// wall clock, which would make fault replays timing-dependent.
			Retry:      wire.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond},
			Breaker:    wire.BreakerPolicy{Threshold: -1},
			WrapCaller: spec.wrap, Listener: ln, Dial: dial,
		})
		if err != nil {
			tb.Fatalf("Start %s: %v", name, err)
		}
		nodes = append(nodes, nd)
	}
	if err := nodes[0].CreateNetwork(); err != nil {
		tb.Fatal(err)
	}
	for _, nd := range nodes[1:] {
		if err := nd.Join("m0"); err != nil {
			tb.Fatalf("Join %s: %v", nd.Addr(), err)
		}
	}
	prev := make([]Snapshot, len(nodes))
	for rounds, converged := 0, false; !converged; rounds++ {
		if rounds == 12 {
			tb.Fatal("no stabilization fixpoint within 12 rounds")
		}
		converged = true
		for _, nd := range nodes {
			if err := nd.StabilizeOnce(); err != nil {
				tb.Fatal(err)
			}
		}
		for i, nd := range nodes {
			s := nd.Snapshot()
			converged = converged && reflect.DeepEqual(s, prev[i])
			prev[i] = s
		}
	}
	for _, nd := range nodes {
		if err := nd.BuildAllFingers(); err != nil {
			tb.Fatal(err)
		}
	}
	return nodes
}

// handledBy sums Handled over the nodes other than skip.
func handledBy(nodes []*Node, skip *Node) int64 {
	var sum int64
	for _, nd := range nodes {
		if nd != skip {
			sum += nd.Handled()
		}
	}
	return sum
}

// TestLookupOneRemoteRPCPerHop checks converged depth-2 and depth-3
// clusters from every origin: each lookup names the oracle owner, its
// per-layer hops sum to its hops, it sends at most one remote exchange
// per hop (the origin's own step and every ring climb are free), and no
// node dials itself for a lookup.
func TestLookupOneRemoteRPCPerHop(t *testing.T) {
	for _, depth := range []int{2, 3} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			dials := &dialLog{seen: map[string]int{}}
			nodes := memCluster(t, memSpec{n: 16, depth: depth, dials: dials})
			rings := map[string]bool{}
			for _, nd := range nodes {
				rings[fmt.Sprint(nd.RingNames())] = true
			}
			if want := 1 << (depth - 1); len(rings) != want {
				t.Fatalf("%d distinct lowest rings, want %d", len(rings), want)
			}
			selfDials := make([]int, len(nodes))
			for i, nd := range nodes {
				// Set-up's landmark probes dial directly, outside the call chain.
				selfDials[i] = dials.count(nd.Addr(), nd.Addr())
			}
			var hops, remote, climbs int64
			for _, origin := range nodes {
				for k := 0; k < 40; k++ {
					key := id.HashString(fmt.Sprintf("oracle-%d", k))
					owner := trueOwner(nodes, key)
					before, ownerBefore := handledBy(nodes, origin), owner.Handled()
					res, err := origin.Lookup(context.Background(), key)
					if err != nil {
						t.Fatalf("lookup %d from %s: %v", k, origin.Addr(), err)
					}
					if res.Owner.Addr != owner.Addr() {
						t.Fatalf("lookup %d from %s: owner %s, oracle %s", k, origin.Addr(), res.Owner.Addr, owner.Addr())
					}
					sum := 0
					for _, h := range res.LayerHops {
						sum += h
					}
					if len(res.LayerHops) != depth || sum != res.Hops {
						t.Fatalf("lookup %d from %s: LayerHops %v, Hops %d", k, origin.Addr(), res.LayerHops, res.Hops)
					}
					// A walk that ends in the global ring's Done never asks the
					// owner: its last hop is free, too.
					budget := int64(res.Hops)
					if owner.Handled() == ownerBefore {
						budget--
					}
					ex := handledBy(nodes, origin) - before
					if ex > budget {
						t.Fatalf("lookup %d from %s: %d remote exchanges for %d hops, want at most %d", k, origin.Addr(), ex, res.Hops, budget)
					}
					hops += int64(res.Hops)
					remote += ex
				}
				climbs += int64(origin.nm.ringClimbs.Value())
			}
			for i, nd := range nodes {
				if n := dials.count(nd.Addr(), nd.Addr()) - selfDials[i]; n != 0 {
					t.Errorf("%s dialed itself %d times during lookups", nd.Addr(), n)
				}
			}
			if climbs == 0 || hops == 0 {
				t.Fatalf("no ring climbs (%d) or hops (%d): the walk never left the lowest ring", climbs, hops)
			}
			t.Logf("%d lookups: %d hops, %d remote exchanges, %d ring climbs", 16*40, hops, remote, climbs)
		})
	}
}

// TestFindClosestClimbsInsideDoneStep plants a depth-3 node whose layer-3
// and layer-2 rings both end at it for the key, while the global ring
// forwards: one hierarchical step asked at layer 3 must answer the
// global forward with Layer 1. Asked without Hierarchical (a join walk)
// the same state answers layer 3's Done, unclimbed.
func TestFindClosestClimbsInsideDoneStep(t *testing.T) {
	mem := wire.NewMemNet()
	ln, err := mem.Listen("self")
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Start("", Config{Depth: 3, Listener: ln, Dial: mem.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	s := nd.ID()
	peer := func(name string, at id.ID) wire.Peer { return wire.Peer{Addr: name, ID: [20]byte(at)} }
	key := id.AddPow2(s, 150)
	near, nearer := peer("g1", id.AddPow2(s, 100)), peer("g2", id.AddPow2(s, 120))
	nd.mu.Lock()
	// Global ring: the predecessor sits far behind (this node does not own
	// the key) and both successors precede the key, so layer 1 forwards to
	// the closer one.
	nd.layers[0].pred = peer("gp", id.AddPow2(s, 159))
	nd.layers[0].succ = []wire.Peer{near, nearer}
	// Layers 2 and 3: the first successor already passes the key.
	nd.layers[1].succ = []wire.Peer{peer("r2", id.AddPow2(s, 152))}
	nd.layers[2].succ = []wire.Peer{peer("r3", id.AddPow2(s, 151))}
	climbed := nd.findClosestLocked(wire.Request{Type: wire.TFindClosest, Layer: 3, Key: [20]byte(key), Hierarchical: true})
	joinStep := nd.findClosestLocked(wire.Request{Type: wire.TFindClosest, Layer: 3, Key: [20]byte(key)})
	nd.mu.Unlock()

	if !climbed.OK || climbed.Done || climbed.Owner || climbed.Layer != 1 || climbed.Next != nearer {
		t.Errorf("hierarchical step at layer 3: %+v, want a layer-1 forward to g2", climbed)
	}
	if !joinStep.OK || !joinStep.Done || joinStep.Layer != 3 || joinStep.Next.Addr != "r3" {
		t.Errorf("join-walk step at layer 3: %+v, want layer 3's Done naming r3", joinStep)
	}

	// With the global successor past the key too, the climb ends in the
	// global ring's Done.
	nd.mu.Lock()
	nd.layers[0].succ = []wire.Peer{peer("g3", id.AddPow2(s, 155))}
	final := nd.findClosestLocked(wire.Request{Type: wire.TFindClosest, Layer: 3, Key: [20]byte(key), Hierarchical: true})
	nd.mu.Unlock()
	if !final.Done || final.Owner || final.Layer != 1 || final.Next.Addr != "g3" {
		t.Errorf("climb to the global Done: %+v, want Done in layer 1 naming g3", final)
	}
}

// TestSelfCallLoopback pins the in-process self call: the handler stores
// its own copy of a Put's value, the call is still seen above the
// short-circuit (WrapCaller, client metrics) and counted as served
// (Handled, server metrics) without a dial, and after Close a self call
// fails exactly as a call to a closed peer does.
func TestSelfCallLoopback(t *testing.T) {
	mem := wire.NewMemNet()
	ln, err := mem.Listen("solo")
	if err != nil {
		t.Fatal(err)
	}
	var dialed, wrapped []string
	nd, err := Start("", Config{Depth: 1, Listener: ln, Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
		dialed = append(dialed, addr)
		return mem.Dial(addr, timeout)
	}, WrapCaller: func(self string, inner wire.Caller) wire.Caller {
		return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
			wrapped = append(wrapped, addr)
			return inner.Call(ctx, addr, req)
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	val := []byte("original")
	if _, putErr := nd.call(context.Background(), nd.Addr(), wire.Request{
		Type: wire.TStorePut, Items: []wire.StoreItem{{Key: "k", Value: val, Version: 1, Writer: "w#1"}},
	}); putErr != nil {
		t.Fatal(putErr)
	}
	copy(val, "MUTATED!")
	if it, ok := nd.store.Get("k"); !ok || string(it.Value) != "original" {
		t.Errorf("stored item %q after the caller reused its buffer, want %q", it.Value, "original")
	}
	if nd.Handled() != 1 {
		t.Errorf("Handled = %d after one self call, want 1", nd.Handled())
	}
	if got := counterValue(t, nd, `rpc_server_requests_total{type="store_put"}`); got != 1 {
		t.Errorf("server store_put count %v, want 1", got)
	}
	if len(dialed) != 0 {
		t.Errorf("self call dialed %v", dialed)
	}
	// The short-circuit sits under WrapCaller and the client metrics:
	// both still see the call.
	if len(wrapped) != 1 || wrapped[0] != "solo" {
		t.Errorf("WrapCaller saw %v, want the one self call", wrapped)
	}
	if got := counterValue(t, nd, `rpc_requests_total{type="store_put"}`); got != 1 {
		t.Errorf("client store_put count %v, want 1", got)
	}

	if closeErr := nd.Close(); closeErr != nil {
		t.Fatal(closeErr)
	}
	_, err = nd.call(context.Background(), nd.Addr(), wire.Request{Type: wire.TPing})
	var ne *wire.NetError
	if !errors.As(err, &ne) || ne.Op != "dial" || ne.Sent || !errors.Is(err, wire.ErrConnRefused) {
		t.Errorf("self call after Close: err = %v, want a not-sent dial NetError wrapping ErrConnRefused", err)
	}
}

// TestOneHopSelfOwnedHitIsFree: a one-hop hit on a key the origin owns
// itself is verified in process and reports no hop, matching the sim
// façade's accounting; a hit on another node's key costs exactly one.
func TestOneHopSelfOwnedHitIsFree(t *testing.T) {
	nodes := memCluster(t, memSpec{n: 6, depth: 2, mode: RouteOneHop})
	for r := 0; r < 3; r++ {
		for _, nd := range nodes {
			if err := nd.RouteGossipOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var self, other int
	for k := 0; k < 60; k++ {
		key := id.HashString(fmt.Sprintf("onehop-%d", k))
		owner := trueOwner(nodes, key)
		for _, origin := range []*Node{owner, nodes[(k+1)%len(nodes)]} {
			hits := origin.nm.onehopHits.Value()
			hopCount := origin.nm.hops[0].Value()
			res, err := origin.Lookup(context.Background(), key)
			if err != nil {
				t.Fatal(err)
			}
			if origin.nm.onehopHits.Value() != hits+1 {
				t.Fatalf("lookup %d from %s was not a one-hop hit", k, origin.Addr())
			}
			if res.Owner.Addr != owner.Addr() {
				t.Fatalf("lookup %d from %s: owner %s, want %s", k, origin.Addr(), res.Owner.Addr, owner.Addr())
			}
			want := 1
			if origin == owner {
				want = 0
				self++
			} else {
				other++
			}
			if res.Hops != want || res.LayerHops[0] != want || int(origin.nm.hops[0].Value()-hopCount) != want {
				t.Fatalf("lookup %d from %s: Hops %d LayerHops %v counter +%d, want %d",
					k, origin.Addr(), res.Hops, res.LayerHops, origin.nm.hops[0].Value()-hopCount, want)
			}
		}
	}
	if self == 0 || other == 0 {
		t.Fatalf("self-owned %d, remote %d: both cases must occur", self, other)
	}
}

// loopbackFaultLogDigest fingerprints the fault log of the seeded run in
// TestLoopbackKeepsFaultLog as recorded by the pool-only call path,
// before self calls were served in process.
const loopbackFaultLogDigest = "34389b8177d56d1d000c6c95a5b7da7f6247968f8d1880d35aa8550ef23aee1e"

// TestLoopbackKeepsFaultLog replays a seeded faultnet run and compares
// its fault log against the one the pool-only call path produced. The
// in-process self call sits below Config.WrapCaller, so the injector must
// see exactly the calls it saw before. The run is depth 1: there a walk
// has no rings to climb, so the call sequence is the old one step for
// step.
func TestLoopbackKeepsFaultLog(t *testing.T) {
	nw := faultnet.New(chaosSeed)
	nodes := memCluster(t, memSpec{n: 8, depth: 1, wrap: nw.Caller})
	for i, nd := range nodes {
		nw.Bind(nd.Addr(), fmt.Sprintf("n%d", i))
	}
	nw.SetRules(faultnet.Rule{Drop: 0.1}, faultnet.Rule{Dst: "n5", DropReply: 0.1})
	rng := rand.New(rand.NewSource(chaosSeed))
	for k := 0; k < 200; k++ {
		origin := nodes[rng.Intn(len(nodes))]
		key := id.HashString(fmt.Sprintf("fault-log-%d", k))
		if _, err := origin.Lookup(context.Background(), key); err != nil {
			t.Fatalf("lookup %d from %s: %v", k, origin.Addr(), err)
		}
	}
	stabilizeAll(t, nodes, 1)
	var sb strings.Builder
	for _, ev := range nw.Events() {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "calls %d\n", len(nw.Log()))
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
	if len(nw.Events()) == 0 {
		t.Fatal("the seeded run injected no faults")
	}
	if got != loopbackFaultLogDigest {
		t.Errorf("fault log digest %s, want %s (%d events, %d calls)", got, loopbackFaultLogDigest, len(nw.Events()), len(nw.Log()))
	}
}

// TestLookupRejectsOutOfRangeLayer: Response.Layer arrives from the
// network, so a walk must refuse a step that claims to have answered
// outside [1, asked layer] instead of indexing its hop counters with it.
func TestLookupRejectsOutOfRangeLayer(t *testing.T) {
	for _, bad := range []int{0, 3} {
		wrap := func(self string, inner wire.Caller) wire.Caller {
			return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
				resp, err := inner.Call(ctx, addr, req)
				if req.Type == wire.TFindClosest && req.Hierarchical && !resp.Owner {
					resp.Layer = bad
				}
				return resp, err
			})
		}
		nodes := memCluster(t, memSpec{n: 4, depth: 2, wrap: wrap})
		for k := 0; ; k++ {
			key := id.HashString(fmt.Sprintf("bad-layer-%d", k))
			if trueOwner(nodes, key) == nodes[0] {
				continue // answered by the origin's own destination check
			}
			if _, err := nodes[0].Lookup(context.Background(), key); err == nil {
				t.Fatalf("layer %d: lookup succeeded, want the out-of-range layer refused", bad)
			}
			break
		}
	}
}
