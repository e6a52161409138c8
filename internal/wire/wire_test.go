package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
)

// echoServer serves framed sessions on a fresh TCP listener, answering
// every request with handler.
func echoServer(t *testing.T, handler func(Request) Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = ServeConn(conn, handler, ServeOptions{}) }()
		}
	}()
	return ln.Addr().String()
}

// callT is a one-shot Call bounded by timeout.
func callT(addr string, req Request, timeout time.Duration) (Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return Call(ctx, addr, req)
}

func TestCallRoundTrip(t *testing.T) {
	addr := echoServer(t, func(req Request) Response {
		if req.Type != TPut || req.Name != "k" || string(req.Value) != "v" {
			return Errorf("unexpected request %v", req.Type)
		}
		return Response{OK: true, Value: []byte("stored")}
	})
	resp, err := callT(addr, Request{Type: TPut, Name: "k", Value: []byte("v")}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Value) != "stored" {
		t.Errorf("value = %q", resp.Value)
	}
}

func TestCallRemoteError(t *testing.T) {
	addr := echoServer(t, func(req Request) Response {
		return Errorf("boom %d", 42)
	})
	_, err := callT(addr, Request{Type: TGet, Name: "x"}, 2*time.Second)
	var re *RemoteError
	if err == nil || !errors.As(err, &re) || re.Msg != "boom 42" {
		t.Errorf("want remote error, got %v", err)
	}
}

func TestCallDialFailure(t *testing.T) {
	if _, err := callT("127.0.0.1:1", Request{Type: TPing}, 300*time.Millisecond); err == nil {
		t.Error("dialing a dead port should fail")
	}
}

func TestCallTimeout(t *testing.T) {
	// A server that accepts but never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stall := make(chan struct{})
	defer close(stall)
	go func() {
		for {
			conn, acceptErr := ln.Accept()
			if acceptErr != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 1024)
			_, _ = conn.Read(buf) // swallow the request, say nothing
			<-stall
		}
	}()
	start := time.Now()
	_, err = callT(ln.Addr().String(), Request{Type: TPing}, 200*time.Millisecond)
	if err == nil {
		t.Fatal("silent server should time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout not honored")
	}
}

func TestCallHonorsContextCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stall := make(chan struct{})
	defer close(stall)
	go func() {
		conn, acceptErr := ln.Accept()
		if acceptErr != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		_, _ = conn.Read(buf)
		<-stall
	}()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, callErr := Call(ctx, ln.Addr().String(), Request{Type: TPing})
		done <- callErr
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled call reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancellation cause not propagated: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort the call")
	}
}

func TestComplexPayloadsSurviveCodecs(t *testing.T) {
	table := RingTable{
		Layer: 2, Name: "1012",
		Smallest: Peer{Addr: "a:1", ID: [20]byte{1}},
		SecondSm: Peer{Addr: "b:2", ID: [20]byte{2}},
		Largest:  Peer{Addr: "c:3", ID: [20]byte{3}},
		SecondLg: Peer{Addr: "d:4", ID: [20]byte{4}},
	}
	addr := echoServer(t, func(req Request) Response {
		return Response{
			OK:        true,
			Table:     req.Table,
			Found:     true,
			Succ:      []Peer{req.Peer, req.Table.Largest},
			RingNames: []string{"1012", "2201"},
			Coord:     [2]float64{1.5, -2.5},
		}
	})
	for _, codec := range Codecs() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := CallVia(ctx, nil, codec, addr, Request{
			Type:  TGetRingTable,
			Table: table,
			Peer:  Peer{Addr: "e:5", ID: [20]byte{5}},
		})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if resp.Table != table {
			t.Errorf("%s: table mangled: %+v", codec.Name(), resp.Table)
		}
		if len(resp.Succ) != 2 || resp.Succ[0].Addr != "e:5" {
			t.Errorf("%s: succ mangled: %+v", codec.Name(), resp.Succ)
		}
		if resp.RingNames[1] != "2201" || resp.Coord[1] != -2.5 {
			t.Errorf("%s: auxiliary fields mangled", codec.Name())
		}
		if !resp.Found {
			t.Errorf("%s: bool lost", codec.Name())
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		TPing: "ping", TGetInfo: "get_info", TFindClosest: "find_closest",
		TGetNeighbors: "get_neighbors", TNotify: "notify",
		TGetRingTable: "get_ring_table", TPutRingTable: "put_ring_table",
		TPut: "put", TGet: "get",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if MsgType(99).String() == "" {
		t.Error("unknown type should render")
	}
}

// TestAllMsgTypesComplete pins the instrumentation list to the enum:
// every operation below the end sentinel is listed, has its own name,
// and gets a pre-curried counter instead of the per-call label fallback.
func TestAllMsgTypesComplete(t *testing.T) {
	if len(AllMsgTypes) != msgTypeEnd-1 {
		t.Fatalf("AllMsgTypes has %d entries, want %d", len(AllMsgTypes), msgTypeEnd-1)
	}
	m := NewMetrics(metrics.NewRegistry())
	seen := map[string]MsgType{}
	for i, mt := range AllMsgTypes {
		if want := MsgType(i + 1); mt != want {
			t.Errorf("AllMsgTypes[%d] = %d, want %d", i, mt, want)
		}
		name := mt.String()
		if name == fmt.Sprintf("MsgType(%d)", uint8(mt)) {
			t.Errorf("MsgType %d has no String() name", mt)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("MsgTypes %d and %d share the name %q", prev, mt, name)
		}
		seen[name] = mt
		if m.reqs[mt] == nil || m.errs[mt] == nil || m.srvReqs[mt] == nil || m.srvErrs[mt] == nil {
			t.Errorf("MsgType %s has no pre-curried counters", name)
		}
	}
}

// TestCallLocalValueSemantics pins what a self call must share with a
// wire round trip: the handler gets its own copy of the request (a
// caller mutating its Put buffer afterwards cannot reach stored state),
// the caller gets its own copy of the response (mutating it cannot reach
// handler state), a non-OK answer is a RemoteError, a cancelled context
// fails before the handler runs, and observe sees every served request.
func TestCallLocalValueSemantics(t *testing.T) {
	for _, c := range Codecs() {
		var stored []byte
		state := []Peer{{Addr: "s1", ID: [20]byte{1}}}
		var observed []MsgType
		observe := func(typ MsgType, ok bool) { observed = append(observed, typ) }
		h := func(req Request) Response {
			switch req.Type {
			case TStorePut:
				stored = req.Items[0].Value // retained, as a store would
				return Response{OK: true, Applied: 1}
			case TGetNeighbors:
				return Response{OK: true, Succ: state}
			}
			return Errorf("no %s here", req.Type)
		}
		ctx := context.Background()

		val := []byte("value")
		if _, err := CallLocal(ctx, c, "self", Request{Type: TStorePut, Items: []StoreItem{{Key: "k", Value: val}}}, h, observe); err != nil {
			t.Fatalf("%s: put: %v", c.Name(), err)
		}
		val[0] = 'X'
		if string(stored) != "value" {
			t.Errorf("%s: caller's buffer aliases the stored value: %q", c.Name(), stored)
		}

		resp, err := CallLocal(ctx, c, "self", Request{Type: TGetNeighbors, Layer: 1}, h, observe)
		if err != nil || len(resp.Succ) != 1 {
			t.Fatalf("%s: neighbors: %v %+v", c.Name(), err, resp)
		}
		resp.Succ[0].Addr = "mutated"
		if state[0].Addr != "s1" {
			t.Errorf("%s: response aliases handler state", c.Name())
		}

		_, err = CallLocal(ctx, c, "self", Request{Type: TPing}, h, observe)
		var re *RemoteError
		if !errors.As(err, &re) || re.Type != TPing {
			t.Errorf("%s: non-OK answer: err = %v, want RemoteError", c.Name(), err)
		}

		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, err = CallLocal(cctx, c, "self", Request{Type: TGetNeighbors}, h, observe)
		var ne *NetError
		if !errors.As(err, &ne) || ne.Sent || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled call: err = %v, want a not-sent NetError", c.Name(), err)
		}
		if want := []MsgType{TStorePut, TGetNeighbors, TPing}; fmt.Sprint(observed) != fmt.Sprint(want) {
			t.Errorf("%s: observed %v, want %v", c.Name(), observed, want)
		}
	}
}

// TestPreambleRejectsVersion1: a version-1 peer would read a climbed
// find_closest answer as one from the layer it asked, so a mixed pair
// must fail at the session preamble instead.
func TestPreambleRejectsVersion1(t *testing.T) {
	if _, err := readPreamble(bytes.NewReader(appendPreamble(nil, Binary{}))); err != nil {
		t.Fatalf("current preamble refused: %v", err)
	}
	v1 := []byte{0x00, 'H', 'W', 1, codecIDBinary, 0, 0, 0}
	if _, err := readPreamble(bytes.NewReader(v1)); err == nil {
		t.Error("version-1 preamble accepted")
	}
}
