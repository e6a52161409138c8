package main

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clusterSpec describes one in-process live cluster. Every node listens
// on a shared wire.MemNet under a fixed name, so node identifiers (hashed
// from the address) are identical in every run.
type clusterSpec struct {
	nodes     int
	routeMode string
	repl      replica.Options
	// dropGossip turns on transport's seeded drop-gossip seam; only the
	// planted-failure tests set it.
	dropGossip bool
	// maxRounds caps the stabilization loop; 0 means 3×nodes.
	maxRounds int
}

// sites is the number of latency sites (and landmarks). Each site's
// landmark sits at its centre and its nodes within a few units of it, so
// landmark-order binning puts every site in its own lower ring.
const sites = 4

var siteCentre = [sites][2]float64{{0, 0}, {500, 0}, {0, 500}, {500, 500}}

func nodeAddr(i int) string { return fmt.Sprintf("n%d", i) }

// nodeCoord places node i in site i%sites. Nodes 0..sites-1 are the
// landmarks and sit exactly at the centres.
func nodeCoord(i int) [2]float64 {
	c := siteCentre[i%sites]
	k := i / sites
	return [2]float64{c[0] + float64(k%5), c[1] + float64(k%3)}
}

// setupTimes splits a cluster's set-up into its transport phases.
type setupTimes struct {
	join, stabilize, fingers time.Duration
	rounds                   int
}

// cluster is a converged live cluster plus the oracle view of its rings.
type cluster struct {
	spec  clusterSpec
	nodes []*transport.Node
	dials atomic.Int64
	times setupTimes
	// ring is every node's identifier in ring order (the oracle global
	// ring); index maps an identifier to its node's position in nodes.
	ring  []id.ID
	index map[id.ID]int
}

// hooks lets the traced run observe set-up calls and every RPC attempt.
// The zero value observes nothing.
type hooks struct {
	wrap func(self string, inner wire.Caller) wire.Caller
	// call runs one set-up call on node addr under a span named name.
	call func(addr, name string, fn func() error) error
}

func (h hooks) run(addr, name string, fn func() error) error {
	if h.call == nil {
		return fn()
	}
	return h.call(addr, name, fn)
}

// startCluster starts spec.nodes nodes, creates the overlay on node 0,
// joins the rest through it, stabilizes until a whole round changes no
// node's snapshot, and builds every finger table.
func startCluster(spec clusterSpec, h hooks) (*cluster, error) {
	c := &cluster{spec: spec, index: make(map[id.ID]int, spec.nodes)}
	mem := wire.NewMemNet()
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		c.dials.Add(1)
		return mem.Dial(addr, timeout)
	}
	landmarks := make([]string, sites)
	for i := range landmarks {
		landmarks[i] = nodeAddr(i)
	}
	for i := 0; i < spec.nodes; i++ {
		ln, err := mem.Listen(nodeAddr(i))
		if err != nil {
			c.close()
			return nil, err
		}
		var nd *transport.Node
		err = h.run(nodeAddr(i), "transport.Start", func() error {
			var startErr error
			nd, startErr = transport.Start("", transport.Config{
				Depth:           2,
				Landmarks:       landmarks,
				Coord:           nodeCoord(i),
				CallTimeout:     2 * time.Second,
				Retry:           wire.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond},
				Breaker:         wire.BreakerPolicy{Threshold: -1},
				RouteMode:       spec.routeMode,
				Replication:     spec.repl,
				DropRouteGossip: spec.dropGossip,
				WrapCaller:      h.wrap,
				Listener:        ln,
				Dial:            dial,
			})
			return startErr
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start %s: %w", nodeAddr(i), err)
		}
		c.nodes = append(c.nodes, nd)
		c.ring = append(c.ring, nd.ID())
		c.index[nd.ID()] = i
	}
	sort.Slice(c.ring, func(a, b int) bool { return bytes.Compare(c.ring[a][:], c.ring[b][:]) < 0 })

	t0 := time.Now()
	if err := h.run(nodeAddr(0), "transport.CreateNetwork", c.nodes[0].CreateNetwork); err != nil {
		c.close()
		return nil, fmt.Errorf("create network: %w", err)
	}
	for i := 1; i < spec.nodes; i++ {
		nd := c.nodes[i]
		if err := h.run(nd.Addr(), "transport.Join", func() error { return nd.Join(nodeAddr(0)) }); err != nil {
			c.close()
			return nil, fmt.Errorf("join %s: %w", nd.Addr(), err)
		}
	}
	t1 := time.Now()
	rounds, err := c.stabilize(h)
	if err != nil {
		c.close()
		return nil, err
	}
	t2 := time.Now()
	for _, nd := range c.nodes {
		if err := h.run(nd.Addr(), "transport.BuildAllFingers", nd.BuildAllFingers); err != nil {
			c.close()
			return nil, fmt.Errorf("fingers %s: %w", nd.Addr(), err)
		}
	}
	c.times = setupTimes{join: t1.Sub(t0), stabilize: t2.Sub(t1), fingers: time.Since(t2), rounds: rounds}
	return c, nil
}

// stabilize runs StabilizeOnce on every node, in index order, until a
// whole round leaves every snapshot unchanged, and returns the number of
// rounds run. Reaching spec.maxRounds is an error unless the cap was set
// explicitly; whether the fixpoint is the right one is for checkRings.
func (c *cluster) stabilize(h hooks) (int, error) {
	limit := c.spec.maxRounds
	if limit <= 0 {
		limit = 3 * len(c.nodes)
	}
	prev := c.snapshots()
	for round := 1; round <= limit; round++ {
		for _, nd := range c.nodes {
			if err := h.run(nd.Addr(), "transport.StabilizeOnce", nd.StabilizeOnce); err != nil {
				return round, fmt.Errorf("stabilize %s: %w", nd.Addr(), err)
			}
		}
		cur := c.snapshots()
		if reflect.DeepEqual(cur, prev) {
			return round, nil
		}
		prev = cur
	}
	if c.spec.maxRounds > 0 {
		return limit, nil
	}
	return limit, fmt.Errorf("no stabilization fixpoint within %d rounds", limit)
}

func (c *cluster) snapshots() []transport.Snapshot {
	out := make([]transport.Snapshot, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Snapshot()
	}
	return out
}

func (c *cluster) close() {
	for _, nd := range c.nodes {
		_ = nd.Close() // teardown: a node that fails to close holds nothing the next cluster needs
	}
}

// owner is the oracle global successor of key: the first node identifier
// at or after key, wrapping around the ring.
func (c *cluster) owner(key id.ID) int {
	i := sort.Search(len(c.ring), func(i int) bool { return bytes.Compare(c.ring[i][:], key[:]) >= 0 })
	if i == len(c.ring) {
		i = 0
	}
	return c.index[c.ring[i]]
}

// checkRings checks every ring of every node against the oracle: the
// successor and predecessor in the global ring and in the node's lower
// ring are exact, and with one-hop routing every node's route table
// holds a join event for exactly the members of every ring.
func (c *cluster) checkRings() error {
	snaps := c.snapshots()
	type ringKey struct {
		layer int
		name  string
	}
	members := map[ringKey][]int{}
	for i, s := range snaps {
		if !s.Joined {
			return fmt.Errorf("%s: not joined", s.Addr)
		}
		members[ringKey{1, ""}] = append(members[ringKey{1, ""}], i)
		for l, name := range s.RingNames {
			k := ringKey{l + 2, name}
			members[k] = append(members[k], i)
		}
	}
	if got := len(members) - 1; got != sites {
		return fmt.Errorf("binning produced %d lower rings, want %d", got, sites)
	}
	for k, idx := range members {
		sort.Slice(idx, func(a, b int) bool {
			return bytes.Compare(snaps[idx[a]].ID[:], snaps[idx[b]].ID[:]) < 0
		})
		for pos, i := range idx {
			succ := snaps[idx[(pos+1)%len(idx)]].Addr
			pred := snaps[idx[(pos+len(idx)-1)%len(idx)]].Addr
			ls := snaps[i].Layers[k.layer-1]
			if ls.Name != k.name || len(ls.Succ) == 0 || ls.Succ[0].Addr != succ || ls.Pred.Addr != pred {
				got := ""
				if len(ls.Succ) > 0 {
					got = ls.Succ[0].Addr
				}
				return fmt.Errorf("%s layer %d ring %q: succ %q pred %q, oracle succ %q pred %q",
					snaps[i].Addr, k.layer, k.name, got, ls.Pred.Addr, succ, pred)
			}
		}
	}
	if c.spec.routeMode != transport.RouteOneHop {
		return nil
	}
	for _, s := range snaps {
		held := map[ringKey][]string{}
		for _, ev := range s.Routes {
			if ev.Kind == wire.RouteJoin {
				k := ringKey{ev.Layer, ev.Ring}
				held[k] = append(held[k], ev.Peer.Addr)
			}
		}
		for k, idx := range members {
			want := make([]string, len(idx))
			for j, i := range idx {
				want[j] = snaps[i].Addr
			}
			got := held[k]
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s one-hop table ring (%d,%q): holds %d members, want %d",
					s.Addr, k.layer, k.name, len(got), len(want))
			}
		}
	}
	return nil
}
