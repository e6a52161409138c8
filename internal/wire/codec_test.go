package wire

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testRequests is a spread of realistic envelopes covering every field.
func testRequests() []Request {
	return []Request{
		{Type: TPing},
		{Type: TFindClosest, Layer: 2, Key: [20]byte{0xde, 0xad}, Hierarchical: true},
		{Type: TNotify, Layer: 1, Peer: Peer{Addr: "n4:9000", ID: [20]byte{4}}},
		{Type: TLeavePred, Layer: 3, Peers: []Peer{{Addr: "a:1"}, {Addr: "b:2", ID: [20]byte{7}}}},
		{Type: TPutRingTable, Name: "1012", Table: RingTable{
			Layer: 2, Name: "1012",
			Smallest: Peer{Addr: "s:1", ID: [20]byte{1}},
			SecondSm: Peer{Addr: "s:2", ID: [20]byte{2}},
			Largest:  Peer{Addr: "l:1", ID: [20]byte{3}},
			SecondLg: Peer{Addr: "l:2", ID: [20]byte{4}},
		}},
		{Type: TPut, Name: "doc", Value: []byte("payload bytes")},
		{Type: TReplicate, Items: []StoreItem{
			{Key: "a", Value: []byte("1"), Version: 9, Writer: "n1:1#4"},
			{Key: "b", Version: 1, Writer: "n2:2#1"},
		}},
		{Type: TRouteGossip, Events: []RouteEvent{
			{Layer: 1, Ring: "global", Peer: Peer{Addr: "n1:9000", ID: [20]byte{1}}, Kind: RouteJoin, Stamp: 3},
			{Layer: 2, Ring: "1012", Peer: Peer{Addr: "n2:9000", ID: [20]byte{2}}, Kind: RouteEvict, Stamp: 11},
		}},
	}
}

func testResponses() []Response {
	return []Response{
		{OK: true},
		{OK: false, Err: "no such ring"},
		{OK: true, Next: Peer{Addr: "n:1", ID: [20]byte{8}}, Done: true, Owner: true},
		{OK: true, Next: Peer{Addr: "n:2", ID: [20]byte{9}}, Self: Peer{Addr: "s:0"}, Layer: 1},
		{OK: true, Self: Peer{Addr: "s:0", ID: [20]byte{1}},
			RingNames: []string{"10", "22"}, Landmarks: []string{"l:1", "l:2"},
			Coord: [2]float64{3.25, -8.5},
			Succ:  []Peer{{Addr: "x:1"}, {Addr: "y:2"}}, Pred: Peer{Addr: "p:3"}},
		{OK: true, Table: RingTable{Layer: 1, Name: "22", Largest: Peer{Addr: "m:5"}}, Found: true},
		{OK: true, Value: []byte("stored value"), Version: 12, Writer: "w:1#9", Applied: 3},
		{OK: true, Applied: 2, Events: []RouteEvent{
			{Layer: 1, Ring: "global", Peer: Peer{Addr: "n3:9000", ID: [20]byte{3}}, Kind: RouteLeave, Stamp: 8},
		}},
	}
}

// TestCodecCrossEquivalence pins that both codecs carry the same value
// model: any envelope encoded by one codec decodes (via its own decoder)
// to the same value the other codec round-trips.
func TestCodecCrossEquivalence(t *testing.T) {
	for _, req := range testRequests() {
		var decoded []Request
		for _, c := range Codecs() {
			enc, err := c.AppendRequest(nil, &req)
			if err != nil {
				t.Fatalf("%s: encode %v: %v", c.Name(), req.Type, err)
			}
			got, err := c.DecodeRequest(enc)
			if err != nil {
				t.Fatalf("%s: decode %v: %v", c.Name(), req.Type, err)
			}
			decoded = append(decoded, normalizeReq(got))
		}
		for i := 1; i < len(decoded); i++ {
			if !reflect.DeepEqual(decoded[0], decoded[i]) {
				t.Errorf("codecs disagree on request %v:\n  %s %#v\n  %s %#v",
					req.Type, Codecs()[0].Name(), decoded[0], Codecs()[i].Name(), decoded[i])
			}
		}
	}
	for _, resp := range testResponses() {
		var decoded []Response
		for _, c := range Codecs() {
			enc, err := c.AppendResponse(nil, &resp)
			if err != nil {
				t.Fatalf("%s: encode response: %v", c.Name(), err)
			}
			got, err := c.DecodeResponse(enc)
			if err != nil {
				t.Fatalf("%s: decode response: %v", c.Name(), err)
			}
			decoded = append(decoded, normalizeResp(got))
		}
		for i := 1; i < len(decoded); i++ {
			if !reflect.DeepEqual(decoded[0], decoded[i]) {
				t.Errorf("codecs disagree on response:\n  %s %#v\n  %s %#v",
					Codecs()[0].Name(), decoded[0], Codecs()[i].Name(), decoded[i])
			}
		}
	}
}

// TestResponseLayerRoundTrip pins the protocol-version-2 field: the layer
// a find_closest step answered in survives both codecs, including the
// climbed case (a Done answered below the requested layer) and the
// signed range the binary varint must carry.
func TestResponseLayerRoundTrip(t *testing.T) {
	for _, layer := range []int{1, 2, 3, 64, -1} {
		in := Response{OK: true, Next: Peer{Addr: "n:7", ID: [20]byte{7}}, Done: layer == 1, Layer: layer}
		for _, c := range Codecs() {
			enc, err := c.AppendResponse(nil, &in)
			if err != nil {
				t.Fatalf("%s: encode layer %d: %v", c.Name(), layer, err)
			}
			got, err := c.DecodeResponse(enc)
			if err != nil {
				t.Fatalf("%s: decode layer %d: %v", c.Name(), layer, err)
			}
			if !reflect.DeepEqual(normalizeResp(in), normalizeResp(got)) {
				t.Errorf("%s: layer %d round trip: got %#v", c.Name(), layer, got)
			}
		}
	}
	// Layer 0 is the zero value: the binary mask leaves its bit clear, so
	// responses that carry no layer (every non-routing answer) cost nothing.
	plain, err := Binary{}.AppendResponse(nil, &Response{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	withLayer, err := Binary{}.AppendResponse(nil, &Response{OK: true, Layer: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || len(withLayer) <= len(plain) {
		t.Errorf("binary sizes: plain %d bytes, with layer %d bytes", len(plain), len(withLayer))
	}
	// The committed corpus carries a climbed answer with the bit set.
	seed, err := Binary{}.DecodeResponse(corpusSeeds(t)["seed_climb_resp_binary"])
	if err != nil || seed.Layer != 1 {
		t.Errorf("corpus seed_climb_resp_binary: layer %d, err %v; want layer 1", seed.Layer, err)
	}
}

// corpusSeeds loads the committed fuzz corpus: each file is one
// `go test fuzz v1` entry holding a single []byte argument.
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	seeds := make(map[string][]byte)
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go test fuzz v1 file", e.Name())
		}
		arg := strings.TrimSpace(lines[1])
		arg = strings.TrimPrefix(arg, "[]byte(")
		arg = strings.TrimSuffix(arg, ")")
		data, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: unquote corpus arg: %v", e.Name(), err)
		}
		seeds[e.Name()] = []byte(data)
	}
	return seeds
}

// TestCorpusCrossEquivalence replays the committed fuzz corpus (raw gob
// envelopes from the pre-codec wire format) through every codec pair:
// whatever the gob codec still decodes, the binary codec must represent
// identically.
func TestCorpusCrossEquivalence(t *testing.T) {
	seeds := corpusSeeds(t)
	if len(seeds) == 0 {
		t.Fatal("empty corpus")
	}
	decodedSomething := false
	for name, data := range seeds {
		for _, src := range Codecs() {
			if req, err := src.DecodeRequest(data); err == nil {
				decodedSomething = true
				for _, dst := range Codecs() {
					enc, err := dst.AppendRequest(nil, &req)
					if err != nil {
						t.Fatalf("%s: %s→%s encode: %v", name, src.Name(), dst.Name(), err)
					}
					got, err := dst.DecodeRequest(enc)
					if err != nil {
						t.Fatalf("%s: %s→%s decode: %v", name, src.Name(), dst.Name(), err)
					}
					if !reflect.DeepEqual(normalizeReq(req), normalizeReq(got)) {
						t.Errorf("%s: request lost in %s→%s transcoding:\n  %#v\n  %#v",
							name, src.Name(), dst.Name(), req, got)
					}
				}
			}
			if resp, err := src.DecodeResponse(data); err == nil {
				decodedSomething = true
				for _, dst := range Codecs() {
					enc, err := dst.AppendResponse(nil, &resp)
					if err != nil {
						t.Fatalf("%s: %s→%s encode: %v", name, src.Name(), dst.Name(), err)
					}
					got, err := dst.DecodeResponse(enc)
					if err != nil {
						t.Fatalf("%s: %s→%s decode: %v", name, src.Name(), dst.Name(), err)
					}
					if !reflect.DeepEqual(normalizeResp(resp), normalizeResp(got)) {
						t.Errorf("%s: response lost in %s→%s transcoding", name, src.Name(), dst.Name())
					}
				}
			}
		}
	}
	if !decodedSomething {
		t.Fatal("no corpus seed decoded under any codec; the corpus has rotted")
	}
}

// TestBinaryEncodeZeroAllocs pins the tentpole property: encoding into a
// presized buffer allocates nothing.
func TestBinaryEncodeZeroAllocs(t *testing.T) {
	reqs := testRequests()
	resps := testResponses()
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		for i := range reqs {
			var err error
			buf, err = Binary{}.AppendRequest(buf[:0], &reqs[i])
			if err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Binary.AppendRequest allocs/run = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for i := range resps {
			var err error
			buf, err = Binary{}.AppendResponse(buf[:0], &resps[i])
			if err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Binary.AppendResponse allocs/run = %v, want 0", n)
	}
}

func benchmarkAppendRequest(b *testing.B, c Codec) {
	reqs := testRequests()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = c.AppendRequest(buf[:0], &reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecodeRequest(b *testing.B, c Codec) {
	reqs := testRequests()
	encoded := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		encoded[i], err = c.AppendRequest(nil, &reqs[i])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeRequest(encoded[i%len(encoded)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendRequestBinary(b *testing.B) { benchmarkAppendRequest(b, Binary{}) }
func BenchmarkAppendRequestGob(b *testing.B)    { benchmarkAppendRequest(b, Gob{}) }
func BenchmarkDecodeRequestBinary(b *testing.B) { benchmarkDecodeRequest(b, Binary{}) }
func BenchmarkDecodeRequestGob(b *testing.B)    { benchmarkDecodeRequest(b, Gob{}) }
