package transport

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/id"
	"repro/internal/wire"
)

// benchKeys is a fixed spread of routing targets.
func benchKeys() []id.ID {
	keys := make([]id.ID, 256)
	for i := range keys {
		keys[i] = id.HashString(fmt.Sprintf("bench-%d", i))
	}
	return keys
}

// BenchmarkFindClosestHandler is the server-side cost of one
// hierarchical routing step on a converged depth-2 node, climbs
// included: the lock, the destination check, the finger scan.
func BenchmarkFindClosestHandler(b *testing.B) {
	nd := memCluster(b, memSpec{n: 16, depth: 2})[3]
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := nd.handle(wire.Request{Type: wire.TFindClosest, Layer: 2, Key: [20]byte(keys[i%len(keys)]), Hierarchical: true})
		if !resp.OK {
			b.Fatal(resp.Err)
		}
	}
}

// BenchmarkLookup is one full classic lookup on an in-process 16-node
// depth-2 cluster over MemNet, from rotating origins: every layer of the
// stack from Lookup down to the server handlers and back.
func BenchmarkLookup(b *testing.B) {
	nodes := memCluster(b, memSpec{n: 16, depth: 2})
	keys := benchKeys()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[i%len(nodes)].Lookup(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
