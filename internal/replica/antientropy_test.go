package replica

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

func ringNodeID(addr string) [20]byte { return [20]byte(id.HashString("node:" + addr)) }
func ringKeyID(key string) [20]byte   { return [20]byte(id.HashString("key:" + key)) }

// ringFake is a consistent-hashing ring of in-memory engines: a key's
// replica set is its owner (the first node at or after the key's ID) and
// the owner's two successors. It counts Resolve calls and records every
// TReplicate push by target.
type ringFake struct {
	nodes    []string // ring order
	engines  map[string]*Engine
	resolves int
	pushes   map[string][]wire.StoreItem
}

func newRingFake(n int) *ringFake {
	r := &ringFake{engines: map[string]*Engine{}, pushes: map[string][]wire.StoreItem{}}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("n%d", i)
		r.nodes = append(r.nodes, addr)
		r.engines[addr] = NewEngine()
	}
	sort.Slice(r.nodes, func(a, b int) bool {
		return id.ID(ringNodeID(r.nodes[a])).Less(id.ID(ringNodeID(r.nodes[b])))
	})
	return r
}

// owner returns the ring index of the node owning kid.
func (r *ringFake) owner(kid id.ID) int {
	i := sort.Search(len(r.nodes), func(i int) bool { return id.ID(ringNodeID(r.nodes[i])).Cmp(kid) >= 0 })
	return i % len(r.nodes)
}

func (r *ringFake) resolve(_ context.Context, key string) ([]string, error) {
	r.resolves++
	o := r.owner(id.ID(ringKeyID(key)))
	set := make([]string, 3)
	for i := range set {
		set[i] = r.nodes[(o+i)%len(r.nodes)]
	}
	return set, nil
}

func (r *ringFake) call(_ context.Context, addr string, req wire.Request) (wire.Response, error) {
	e := r.engines[addr]
	switch req.Type {
	case wire.TDigest:
		return wire.Response{OK: true, Digests: e.RangeDigest(ringKeyID, req.Key, req.KeyHi)}, nil
	case wire.TSyncPull:
		return wire.Response{OK: true, Items: e.RangeItems(ringKeyID, req.Key, req.KeyHi, req.Buckets)}, nil
	case wire.TReplicate:
		r.pushes[addr] = append(r.pushes[addr], req.Items...)
		return wire.Response{OK: true, Applied: e.ApplyBatch(req.Items)}, nil
	}
	return wire.Response{}, fmt.Errorf("unexpected %v", req.Type)
}

// arcScenario builds a six-node ring seen from ring[1], which holds keys
// from four owner arcs: its own, its two predecessors' (ring[0]'s arc
// wraps past zero and holds keys on both sides of it) and a foreign arc
// (ring[3]'s) it must re-home. Peers hold the same, older or newer
// versions of the shared keys, and one key self lacks, so the round
// pulls, pushes and drops.
func arcScenario(t *testing.T) (r *ringFake, self, peerOnly string, arcs int) {
	t.Helper()
	r = newRingFake(6)
	self = r.nodes[1]
	last := id.ID(ringNodeID(r.nodes[len(r.nodes)-1]))
	want := map[string]int{"5": 6, "0hi": 3, "0lo": 4, "1": 6, "3": 6}
	for i := 0; i < 20000 && len(want) > 0; i++ {
		key := fmt.Sprintf("key-%d", i)
		kid := id.ID(ringKeyID(key))
		class := fmt.Sprint(r.owner(kid))
		if class == "0" {
			class = "0lo"
			if kid.Cmp(last) > 0 {
				class = "0hi"
			}
		}
		if want[class] == 0 {
			continue
		}
		if want[class]--; want[class] == 0 {
			delete(want, class)
		}
		if class == "0lo" && peerOnly == "" {
			peerOnly = key
			set, _ := r.resolve(context.Background(), key)
			for _, m := range set {
				if m != self {
					r.engines[m].Apply(wire.StoreItem{Key: key, Value: []byte("p"), Version: 1, Writer: m})
				}
			}
			continue
		}
		r.engines[self].Apply(wire.StoreItem{Key: key, Value: []byte("s"), Version: 2, Writer: self})
		set, _ := r.resolve(context.Background(), key)
		for _, m := range set {
			if m == self {
				continue
			}
			switch i % 3 {
			case 0:
				r.engines[m].Apply(wire.StoreItem{Key: key, Value: []byte("s"), Version: 2, Writer: self})
			case 1:
				r.engines[m].Apply(wire.StoreItem{Key: key, Value: []byte("old"), Version: 1, Writer: m})
			case 2:
				r.engines[m].Apply(wire.StoreItem{Key: key, Value: []byte("new"), Version: 3, Writer: m})
			}
		}
	}
	if len(want) > 0 {
		t.Fatalf("no candidate keys for arcs %v", want)
	}
	r.resolves = 0
	return r, self, peerOnly, 4
}

// TestAntiEntropyResolvesOncePerOwnerArc checks that with a NodeID
// mapping a round resolves one replica set per owner arc, the wrapping
// arc included, and otherwise does exactly what resolving every key on
// its own does.
func TestAntiEntropyResolvesOncePerOwnerArc(t *testing.T) {
	type outcome struct {
		pulled, pushed, dropped int
		err                     error
		pushes                  map[string][]wire.StoreItem
		stores                  map[string][]wire.StoreItem
	}
	run := func(perArc bool) (outcome, int, string, string) {
		r, self, peerOnly, arcs := arcScenario(t)
		co := &Coordinator{
			Self: self, Opts: Options{Factor: 3, WriteQuorum: 2, ReadQuorum: 2},
			Engine: r.engines[self], Resolve: r.resolve, Call: r.call, KeyID: ringKeyID,
		}
		if perArc {
			co.NodeID = ringNodeID
		}
		var o outcome
		o.pulled, o.pushed, o.dropped, o.err = co.AntiEntropyOnce(context.Background())
		o.pushes = r.pushes
		o.stores = map[string][]wire.StoreItem{}
		for addr, e := range r.engines {
			o.stores[addr] = e.Items()
		}
		if perArc && r.resolves > arcs {
			t.Errorf("per-arc round made %d Resolve calls for %d owner arcs", r.resolves, arcs)
		}
		if !perArc && r.resolves <= arcs {
			t.Errorf("per-key round made only %d Resolve calls; the scenario does not exercise reuse", r.resolves)
		}
		return o, r.resolves, self, peerOnly
	}
	arc, arcCalls, self, peerOnly := run(true)
	key, keyCalls, _, _ := run(false)
	t.Logf("Resolve calls: %d per arc, %d per key", arcCalls, keyCalls)
	if arc.err != nil {
		t.Fatalf("round failed: %v", arc.err)
	}
	if arc.pulled == 0 || arc.pushed == 0 || arc.dropped == 0 {
		t.Fatalf("pulled/pushed/dropped = %d/%d/%d; the scenario must exercise all three",
			arc.pulled, arc.pushed, arc.dropped)
	}
	if !reflect.DeepEqual(arc, key) {
		t.Errorf("per-arc round differs from per-key round:\nper arc %+v\nper key %+v", arc, key)
	}
	if _, ok := findItem(arc.stores[self], peerOnly); !ok {
		t.Errorf("key %s held only by peers was not pulled", peerOnly)
	}
}

func findItem(items []wire.StoreItem, key string) (wire.StoreItem, bool) {
	for _, it := range items {
		if it.Key == key {
			return it, true
		}
	}
	return wire.StoreItem{}, false
}
