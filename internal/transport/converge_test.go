package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

// TestBulkJoinConvergesInFewRounds joins 64 nodes one after another
// through node 0 with no maintenance in between, which leaves every ring
// star-shaped, then runs StabilizeOnce on every node in index order until
// a whole round changes no snapshot. Following the predecessor chain and
// routing over the successor list must reach the exact rings within a
// handful of rounds, not one round per node.
func TestBulkJoinConvergesInFewRounds(t *testing.T) {
	const n, sites, maxRounds = 64, 4, 12
	centre := [sites][2]float64{{0, 0}, {500, 0}, {0, 500}, {500, 500}}
	addr := func(i int) string { return fmt.Sprintf("c%d", i) }
	landmarks := make([]string, sites)
	for i := range landmarks {
		landmarks[i] = addr(i)
	}
	mem := wire.NewMemNet()
	nodes := make([]*Node, 0, n)
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	})
	for i := 0; i < n; i++ {
		ln, err := mem.Listen(addr(i))
		if err != nil {
			t.Fatal(err)
		}
		c := centre[i%sites]
		nd, err := Start("", Config{
			Depth: 2, Landmarks: landmarks,
			Coord:       [2]float64{c[0] + float64(i/sites%5), c[1] + float64(i/sites%3)},
			CallTimeout: 2 * time.Second,
			Listener:    ln, Dial: mem.Dial,
		})
		if err != nil {
			t.Fatalf("Start %s: %v", addr(i), err)
		}
		nodes = append(nodes, nd)
	}
	if err := nodes[0].CreateNetwork(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[1:] {
		if err := nd.Join(addr(0)); err != nil {
			t.Fatalf("Join %s: %v", nd.Addr(), err)
		}
	}

	snapshots := func() []Snapshot {
		out := make([]Snapshot, len(nodes))
		for i, nd := range nodes {
			out[i] = nd.Snapshot()
		}
		return out
	}
	prev := snapshots()
	rounds := 0
	for converged := false; !converged; {
		if rounds++; rounds > maxRounds {
			t.Fatalf("no stabilization fixpoint within %d rounds", maxRounds)
		}
		for _, nd := range nodes {
			if err := nd.StabilizeOnce(); err != nil {
				t.Fatal(err)
			}
		}
		cur := snapshots()
		converged = reflect.DeepEqual(cur, prev)
		prev = cur
	}
	t.Logf("fixpoint after %d rounds", rounds)

	// Every ring's successor and predecessor are exact.
	type ring struct {
		layer int
		name  string
	}
	members := map[ring][]Snapshot{}
	for _, s := range prev {
		members[ring{1, ""}] = append(members[ring{1, ""}], s)
		for l, name := range s.RingNames {
			members[ring{l + 2, name}] = append(members[ring{l + 2, name}], s)
		}
	}
	if len(members) != 1+sites {
		t.Fatalf("%d rings, want the global ring plus %d lower rings", len(members), sites)
	}
	for r, ms := range members {
		sort.Slice(ms, func(a, b int) bool { return ms[a].ID.Less(ms[b].ID) })
		for i, s := range ms {
			wantSucc, wantPred := ms[(i+1)%len(ms)].Addr, ms[(i+len(ms)-1)%len(ms)].Addr
			ls := s.Layers[r.layer-1]
			if len(ls.Succ) == 0 || ls.Succ[0].Addr != wantSucc || ls.Pred.Addr != wantPred {
				t.Errorf("%s ring (%d,%q): succ %v pred %q, want succ %q pred %q",
					s.Addr, r.layer, r.name, ls.Succ, ls.Pred.Addr, wantSucc, wantPred)
			}
		}
	}
}

// TestFindClosestUsesSuccessorList pins the next-hop choice with no
// fingers: the furthest successor-list entry that still precedes the key,
// and never a node at or past the key.
func TestFindClosestUsesSuccessorList(t *testing.T) {
	nd, err := Start("127.0.0.1:0", Config{Depth: 1, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	// Twenty peers in clockwise order from the node; every fifth one is
	// on the successor list.
	peers := make([]wire.Peer, 20)
	for i := range peers {
		peers[i] = peerFor(fmt.Sprintf("10.0.0.%d:1", i+1))
	}
	self := nd.ID()
	sort.Slice(peers, func(a, b int) bool {
		return id.Dist(self, peerID(peers[a])).Less(id.Dist(self, peerID(peers[b])))
	})
	list := []wire.Peer{peers[0], peers[5], peers[10], peers[15]}
	nd.mu.Lock()
	nd.layers[0].succ = list
	nd.layers[0].pred = wire.Peer{}
	nd.mu.Unlock()

	step := func(key id.ID) wire.Response {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return nd.findClosestLocked(wire.Request{Type: wire.TFindClosest, Layer: 1, Key: [20]byte(key)})
	}
	for _, tc := range []struct {
		key  id.ID
		want wire.Peer
		done bool
	}{
		{peerID(peers[0]), peers[0], true},  // owned by the successor
		{peerID(peers[3]), peers[0], false}, // between succ[0] and succ[1]
		{peerID(peers[5]), peers[0], false}, // on succ[1]: it does not precede its own ID
		{peerID(peers[7]), peers[5], false},
		{peerID(peers[12]), peers[10], false},
		{peerID(peers[19]), peers[15], false}, // past the list: its furthest entry
	} {
		resp := step(tc.key)
		if !resp.OK || resp.Done != tc.done || resp.Next.Addr != tc.want.Addr {
			t.Errorf("key %s: next %s done %v, want %s done %v",
				tc.key.Short(), resp.Next.Addr, resp.Done, tc.want.Addr, tc.done)
		}
	}

	// Random keys: a step that is not done always lands strictly before
	// the key, and on the furthest list entry that does.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		key := id.Rand(rng)
		resp := step(key)
		if resp.Done {
			if !id.InOpenClosed(key, self, peerID(list[0])) {
				t.Fatalf("key %s: done at %s but the key is past succ[0]", key.Short(), resp.Next.Addr)
			}
			continue
		}
		if !id.Between(peerID(resp.Next), self, key) {
			t.Fatalf("key %s: next %s does not precede the key", key.Short(), resp.Next.Addr)
		}
		for _, p := range list {
			if id.Between(peerID(p), peerID(resp.Next), key) {
				t.Fatalf("key %s: next %s, but list entry %s is closer", key.Short(), resp.Next.Addr, p.Addr)
			}
		}
	}
}
