package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Codec is the wire codec announced in each connection's preamble
	// (nil = DefaultCodec).
	Codec Codec
	// Dial opens connections (nil = TCP).
	Dial DialFunc
	// Size caps the live connections kept per peer. 0 means
	// DefaultPoolSize; negative disables pooling entirely — every call
	// dials, exchanges once and closes (the benchmark baseline mode).
	Size int
	// DialTimeout bounds connection establishment when the caller's
	// context allows more (0 = DefaultTimeout).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write on a pooled connection; like
	// the server side, the deadline is re-armed per frame
	// (0 = DefaultTimeout).
	WriteTimeout time.Duration
	// ConnWrap, when non-nil, wraps every new connection before use —
	// the seam for byte accounting (Metrics.CountConn).
	ConnWrap func(net.Conn) net.Conn
}

// DefaultPoolSize is the per-peer connection cap when PoolOptions.Size
// is zero. Two connections keep one head-of-line-blocked stream (a slow
// large response) from stalling every concurrent exchange while still
// amortizing dials.
const DefaultPoolSize = 2

// growInflight is the in-flight count on a peer's least-loaded
// connection above which the pool dials an additional connection (up to
// Size) in the background rather than queueing more exchanges onto it.
const growInflight = 4

// wedgeStrikes is the number of consecutive waiter timeouts (with no
// intervening completed exchange) after which a pooled connection is
// declared wedged and torn down.
const wedgeStrikes = 8

// Pool is the pooled, multiplexed wire client: it keeps up to Size
// connections per peer, pipelines many tagged in-flight requests on each,
// and matches responses by tag, so concurrent exchanges to one peer share
// connections instead of paying a dial each. Broken connections fail all
// their in-flight exchanges with a *NetError and are replaced on the next
// call. Pool implements Caller; cancellation is per-exchange (an
// abandoned tag, not a closed connection).
type Pool struct {
	o PoolOptions

	// lifeCtx is cancelled by Close; background grow-dials derive from it
	// so none outlives the pool. growWG counts those dial goroutines and
	// Close waits for them, so a closed pool leaves nothing running.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	growWG     sync.WaitGroup

	mu     sync.Mutex
	peers  map[string]*poolPeer
	closed bool
}

// NewPool builds a pooled caller. Close releases its connections.
func NewPool(o PoolOptions) *Pool {
	if o.Codec == nil {
		o.Codec = DefaultCodec()
	}
	if o.Dial == nil {
		o.Dial = tcpDial
	}
	if o.Size == 0 {
		o.Size = DefaultPoolSize
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultTimeout
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = DefaultTimeout
	}
	p := &Pool{o: o, peers: make(map[string]*poolPeer)}
	p.lifeCtx, p.lifeCancel = context.WithCancel(context.Background()) //lint:allow ctxflow the pool lifecycle root: Close cancels it, and background grow-dials derive from it
	return p
}

// Call implements Caller.
func (p *Pool) Call(ctx context.Context, addr string, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, &NetError{Addr: addr, Op: "dial", Sent: false, Err: context.Cause(ctx)}
	}
	pp := p.peer(addr)
	if pp == nil {
		return Response{}, &NetError{Addr: addr, Op: "dial", Sent: false, Err: ErrPoolClosed}
	}
	if p.o.Size < 0 {
		return CallVia(ctx, p.o.dialWrapped, p.o.Codec, addr, req)
	}
	c, err := pp.conn(ctx)
	if err != nil {
		return Response{}, err
	}
	return c.roundTrip(ctx, addr, req)
}

// Close tears down every pooled connection, failing their in-flight
// exchanges. The pool is unusable afterwards.
func (p *Pool) Close() error {
	p.lifeCancel()
	p.mu.Lock()
	peers := p.peers
	p.peers = make(map[string]*poolPeer)
	p.closed = true
	p.mu.Unlock()
	for _, pp := range peers {
		pp.close()
	}
	p.growWG.Wait()
	return nil
}

// dialWrapped applies ConnWrap on top of the configured dialer; it backs
// the unpooled (Size < 0) mode.
func (o *PoolOptions) dialWrapped(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := o.Dial(addr, timeout)
	if err != nil || o.ConnWrap == nil {
		return conn, err
	}
	return o.ConnWrap(conn), nil
}

// peer returns addr's connection set, or nil once the pool is closed.
func (p *Pool) peer(addr string) *poolPeer {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	pp, ok := p.peers[addr]
	if !ok {
		pp = &poolPeer{pool: p, addr: addr}
		p.peers[addr] = pp
	}
	return pp
}

// poolPeer holds one peer's connections.
type poolPeer struct {
	pool *Pool
	addr string

	// dialMu serializes synchronous dials so a burst of first calls to a
	// peer opens one connection, not one per caller.
	dialMu sync.Mutex

	mu      sync.Mutex
	conns   []*muxConn
	growing bool // a background grow-dial is in flight
	closed  bool // the pool closed: a dial that lands now is failed, not kept
}

// conn returns a connection to run one exchange on: the least-loaded
// live connection when one exists (kicking off a background dial when
// it is busy and the pool has room), else a synchronous dial.
func (pp *poolPeer) conn(ctx context.Context) (*muxConn, error) {
	if best, grow := pp.pick(); best != nil {
		if grow {
			pp.pool.growWG.Add(1)
			go pp.grow()
		}
		return best, nil
	}
	pp.dialMu.Lock()
	defer pp.dialMu.Unlock()
	// Another caller may have dialed while we waited.
	if best, _ := pp.pick(); best != nil {
		return best, nil
	}
	c, err := pp.dial(ctx)
	if err != nil {
		return nil, err
	}
	pp.mu.Lock()
	if pp.closed {
		// Close ran while we dialed; nothing would ever close this one.
		pp.mu.Unlock()
		c.fail(ErrPoolClosed)
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: ErrPoolClosed}
	}
	pp.conns = append(pp.conns, c)
	pp.mu.Unlock()
	return c, nil
}

// pick prunes dead connections and returns the least-loaded live one
// (nil if none), plus whether the pool should grow in the background.
func (pp *poolPeer) pick() (best *muxConn, grow bool) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	live := pp.conns[:0]
	for _, c := range pp.conns {
		if c.broken() {
			continue
		}
		live = append(live, c)
		if best == nil || c.load() < best.load() {
			best = c
		}
	}
	pp.conns = live
	grow = best != nil && !pp.growing && len(live) < pp.pool.o.Size && best.load() >= growInflight
	if grow {
		pp.growing = true
	}
	return best, grow
}

// grow dials one additional connection in the background. The dial is
// bounded by the pool's lifecycle context, and a connection that lands
// after Close (or after the pool refilled to Size) is failed rather
// than registered, so grow can never resurrect a closed peer.
func (pp *poolPeer) grow() {
	defer pp.pool.growWG.Done()
	ctx, cancel := context.WithTimeout(pp.pool.lifeCtx, pp.pool.o.DialTimeout)
	c, err := pp.dial(ctx)
	cancel()
	pp.mu.Lock()
	pp.growing = false
	if err == nil && pp.pool.lifeCtx.Err() == nil {
		if len(pp.conns) < pp.pool.o.Size {
			pp.conns = append(pp.conns, c)
			c = nil
		}
	}
	pp.mu.Unlock()
	if err == nil && c != nil {
		c.fail(fmt.Errorf("wire: pool full"))
	}
}

// dial opens, wraps and preambles one connection and starts its reader.
func (pp *poolPeer) dial(ctx context.Context) (*muxConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: context.Cause(ctx)}
	}
	o := &pp.pool.o
	timeout := o.DialTimeout
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < timeout {
			timeout = until
		}
	}
	if timeout <= 0 {
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: context.DeadlineExceeded}
	}
	conn, err := o.Dial(pp.addr, timeout)
	if err != nil {
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: err}
	}
	if o.ConnWrap != nil {
		conn = o.ConnWrap(conn)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(o.WriteTimeout)); err != nil {
		conn.Close()
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: err}
	}
	var pre [preambleLen]byte
	if _, err := conn.Write(appendPreamble(pre[:0], o.Codec)); err != nil {
		conn.Close()
		return nil, &NetError{Addr: pp.addr, Op: "dial", Sent: false, Err: err}
	}
	c := &muxConn{
		conn:         conn,
		addr:         pp.addr,
		codec:        o.Codec,
		writeTimeout: o.WriteTimeout,
		nextTag:      1,
		pending:      make(map[uint64]chan muxResult),
	}
	go c.readLoop()
	return c, nil
}

func (pp *poolPeer) close() {
	pp.mu.Lock()
	conns := pp.conns
	pp.conns = nil
	pp.closed = true
	pp.mu.Unlock()
	for _, c := range conns {
		c.fail(ErrPoolClosed)
	}
}

// muxResult carries one matched response (or the connection's failure)
// to its waiter.
type muxResult struct {
	resp Response
	err  error
}

// muxConn is one multiplexed connection: a single writer lock serializes
// tagged request frames out, one reader goroutine matches response
// frames back to waiting exchanges by tag.
type muxConn struct {
	conn         net.Conn
	addr         string
	codec        Codec
	writeTimeout time.Duration

	// wmu serializes frame writes; the write deadline is re-armed under
	// it for every frame.
	wmu sync.Mutex

	mu       sync.Mutex
	nextTag  uint64
	pending  map[uint64]chan muxResult
	inflight int
	failed   error // set once: the connection is dead
	strikes  int   // consecutive abandoned waits since the last completion
}

func (c *muxConn) load() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

func (c *muxConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed != nil
}

// roundTrip runs one pipelined exchange: encode (no lock), register a
// tag, write the frame (write lock only around the deadline re-arm and
// the write), then wait for the reader to deliver the matching response
// or for ctx to cancel — cancellation abandons the tag without harming
// the connection's other exchanges.
func (c *muxConn) roundTrip(ctx context.Context, addr string, req Request) (Response, error) {
	pb := getFrameBuf()
	buf := append((*pb)[:0], frameHole[:]...)
	buf, encErr := appendRequest(c.codec, buf, &req)
	if encErr != nil {
		*pb = buf
		putFrameBuf(pb)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: false, Err: encErr}
	}

	c.mu.Lock()
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		*pb = buf
		putFrameBuf(pb)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: false, Err: err}
	}
	tag := c.nextTag
	c.nextTag++
	ch := make(chan muxResult, 1)
	c.pending[tag] = ch
	c.inflight++
	c.mu.Unlock()
	putFrameHeader(buf, tag)

	c.wmu.Lock()
	// The wait for the write lock can outlive the exchange's deadline
	// (one slow writer queues every other exchange behind it). Re-check
	// before writing: an expired exchange releases its tag slot here and
	// sends nothing, instead of shipping a frame whose response nobody
	// will claim.
	if err := ctx.Err(); err != nil {
		c.wmu.Unlock()
		*pb = buf
		putFrameBuf(pb)
		c.forget(tag, false)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: false, Err: context.Cause(ctx)}
	}
	err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	var n int
	if err == nil {
		n, err = c.conn.Write(buf)
	}
	c.wmu.Unlock()
	*pb = buf
	putFrameBuf(pb)
	if err != nil {
		c.forget(tag, false)
		c.fail(err)
		return Response{}, &NetError{Addr: addr, Op: "send", Sent: n > 0, Err: err}
	}

	select {
	case r := <-ch:
		if r.err != nil {
			return Response{}, r.err
		}
		if !r.resp.OK {
			return r.resp, &RemoteError{Type: req.Type, Msg: r.resp.Err}
		}
		return r.resp, nil
	case <-ctx.Done():
		if c.forget(tag, true) {
			c.fail(fmt.Errorf("wire: connection wedged (%d consecutive exchange timeouts)", wedgeStrikes))
		}
		return Response{}, &NetError{Addr: addr, Op: "call", Sent: true, Err: context.Cause(ctx)}
	}
}

// forget abandons a registered tag (cancelled wait or failed write). With
// strike set it counts toward the wedge detector and reports whether the
// connection should be torn down.
func (c *muxConn) forget(tag uint64, strike bool) (wedged bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[tag]; !ok {
		return false // the reader beat us to it
	}
	delete(c.pending, tag)
	c.inflight--
	if strike {
		c.strikes++
		return c.strikes >= wedgeStrikes && c.failed == nil
	}
	return false
}

// fail marks the connection dead exactly once, failing every pending
// exchange and closing the conn. Later roundTrips see failed and bounce.
func (c *muxConn) fail(cause error) {
	c.mu.Lock()
	if c.failed != nil {
		c.mu.Unlock()
		return
	}
	c.failed = cause
	pending := c.pending
	c.pending = make(map[uint64]chan muxResult)
	c.inflight = 0
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pending {
		ch <- muxResult{err: &NetError{Addr: c.addr, Op: "recv", Sent: true, Err: cause}}
	}
}

// readLoop is the connection's single reader: it decodes response frames
// and delivers each to the exchange that registered its tag. Any read or
// decode error kills the connection (and with it, all in-flight
// exchanges).
func (c *muxConn) readLoop() {
	br := bufio.NewReaderSize(c.conn, 4096)
	buf := make([]byte, 0, 512)
	for {
		payload, tag, err := readFrame(br, buf[:0])
		if err != nil {
			c.fail(err)
			return
		}
		buf = payload
		resp, derr := c.codec.DecodeResponse(payload)
		if derr != nil {
			c.fail(fmt.Errorf("wire: decoding response frame: %w", derr))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[tag]
		if ok {
			delete(c.pending, tag)
			c.inflight--
			c.strikes = 0
		}
		c.mu.Unlock()
		if ok {
			ch <- muxResult{resp: resp}
		}
		// An unknown tag is an abandoned exchange: the response is
		// discarded, the connection stays healthy.
	}
}
