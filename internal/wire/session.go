package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Session preamble: the first bytes a client writes on a new connection,
// before any frame.
//
//	[0x00]['H']['W'][version u8][codec id u8][3 reserved zero bytes]
//
// Version 2 added Response.Layer: a hierarchical find_closest may answer
// from a lower-numbered layer than it was asked in, which a version-1
// client would misread as an answer in the requested layer.
//
// The leading zero byte can never begin a gob stream or a frame of
// plausible length, so a peer speaking an older or foreign protocol fails
// fast with a clear error instead of a decode hang.
const (
	preambleLen     = 8
	protocolVersion = 2
)

// appendPreamble appends the session preamble for codec c.
func appendPreamble(dst []byte, c Codec) []byte {
	return append(dst, 0x00, 'H', 'W', protocolVersion, c.ID(), 0, 0, 0)
}

// readPreamble consumes and validates a session preamble, returning the
// codec the client chose.
func readPreamble(r io.Reader) (Codec, error) {
	var p [preambleLen]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return nil, err
	}
	if p[0] != 0x00 || p[1] != 'H' || p[2] != 'W' {
		return nil, fmt.Errorf("wire: bad session preamble %x", p[:3])
	}
	if p[3] != protocolVersion {
		return nil, fmt.Errorf("wire: unsupported protocol version %d", p[3])
	}
	return codecByID(p[4])
}

// Handler answers one decoded request. Handlers run on per-request
// goroutines and must not block on other RPCs to the same caller; the
// transport layer's handlers are pure local state transitions.
type Handler func(req Request) Response

// ServeOptions configures one server-side session (see ServeConn).
type ServeOptions struct {
	// WriteTimeout bounds each response write. The deadline is re-armed
	// from the current time for every frame, so it never accumulates
	// across the many exchanges of a long-lived multiplexed connection.
	// 0 means DefaultTimeout.
	WriteTimeout time.Duration
	// IdleTimeout bounds the wait for the next request frame; a pooled
	// client that goes quiet longer than this has its connection closed
	// (it will transparently redial). 0 means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Observe, when non-nil, is invoked once per served request with the
	// request type and whether the handler answered OK.
	Observe func(t MsgType, ok bool)
}

// DefaultIdleTimeout is how long a server session waits for the next
// request frame before closing an idle connection.
const DefaultIdleTimeout = 2 * time.Minute

// ServeConn runs one server-side session to completion: it reads the
// preamble, then serves framed requests — each on its own goroutine, so
// pipelined requests overlap and responses return in completion order,
// matched to their request by tag. It closes conn and waits for all
// in-flight handlers before returning. The returned error is nil for a
// clean shutdown (peer closed or idle timeout after a quiet period) and
// describes the protocol or I/O failure otherwise.
func ServeConn(conn net.Conn, h Handler, o ServeOptions) error {
	defer conn.Close()
	wt := o.WriteTimeout
	if wt <= 0 {
		wt = DefaultTimeout
	}
	idle := o.IdleTimeout
	if idle <= 0 {
		idle = DefaultIdleTimeout
	}

	if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 4096)
	codec, err := readPreamble(br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil // probe connect-and-close
		}
		return err
	}

	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	defer wg.Wait()

	pb := getFrameBuf()
	buf := *pb
	defer func() {
		*pb = buf
		putFrameBuf(pb)
	}()
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return err
		}
		payload, tag, rerr := readFrame(br, buf[:0])
		buf = payload
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return nil // peer closed between frames: clean shutdown
			}
			return rerr
		}
		req, derr := codec.DecodeRequest(payload)
		if derr != nil {
			// Framing survives a bad payload, but a client whose encoder
			// disagrees with ours is not worth keeping: drop the session.
			return fmt.Errorf("wire: decoding request frame: %w", derr)
		}
		wg.Add(1)
		go func(tag uint64, req Request) {
			defer wg.Done()
			resp := h(req)
			if o.Observe != nil {
				o.Observe(req.Type, resp.OK)
			}
			writeFrame(conn, &wmu, codec, tag, &resp, wt)
		}(tag, req)
	}
}

// writeFrame encodes resp and writes it as one tagged frame. Encoding
// happens outside the write lock; the write deadline is re-armed per
// frame (never accumulated) while the lock is held, so one slow reader
// cannot extend another response's budget.
func writeFrame(conn net.Conn, wmu *sync.Mutex, codec Codec, tag uint64, resp *Response, timeout time.Duration) error {
	pb := getFrameBuf()
	buf := append((*pb)[:0], frameHole[:]...)
	buf, err := appendResponse(codec, buf, resp)
	if err == nil {
		putFrameHeader(buf, tag)
		wmu.Lock()
		err = conn.SetWriteDeadline(time.Now().Add(timeout))
		if err == nil {
			_, err = conn.Write(buf)
		}
		wmu.Unlock()
	}
	*pb = buf
	putFrameBuf(pb)
	return err
}

// CallLocal answers req with an in-process handler, for a node calling
// its own address. Values cross the same codec a wire exchange uses,
// through a pooled frame buffer, so neither side aliases the other's
// memory (a Put's value buffer, a handler's Succ slice) and both see the
// values a round trip would give them. It skips only the transport leg:
// the frame write, the server goroutine and the read back. A non-OK
// answer is a *RemoteError, as from Pool; observe, when non-nil, sees the
// request as ServeOptions.Observe would.
func CallLocal(ctx context.Context, codec Codec, addr string, req Request, h Handler, observe func(MsgType, bool)) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, &NetError{Addr: addr, Op: "dial", Sent: false, Err: context.Cause(ctx)}
	}
	pb := getFrameBuf()
	defer putFrameBuf(pb)
	buf, err := appendRequest(codec, (*pb)[:0], &req)
	*pb = buf
	if err != nil {
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: false, Err: err}
	}
	in, err := codec.DecodeRequest(buf)
	if err != nil {
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: true, Err: err}
	}
	resp := h(in)
	if observe != nil {
		observe(in.Type, resp.OK)
	}
	buf, err = appendResponse(codec, buf[:0], &resp)
	*pb = buf
	if err != nil {
		return Response{}, &NetError{Addr: addr, Op: "recv", Sent: true, Err: err}
	}
	out, err := codec.DecodeResponse(buf)
	if err != nil {
		return Response{}, &NetError{Addr: addr, Op: "recv", Sent: true, Err: err}
	}
	if !out.OK {
		return out, &RemoteError{Type: req.Type, Msg: out.Err}
	}
	return out, nil
}
