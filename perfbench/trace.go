package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// span is one timed call into a layer. Parent is 0 for a root; Req is the
// root's ID, shared by every span of one request. A traced run holds
// about a million spans, so the struct is kept small.
type span struct {
	ID, Parent, Req int32
	Name            string
	Start, End      int64 // nanoseconds since the tracer started
	Err             bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per call and installs no caller
// wrapper at all.
type tracer struct {
	t0   time.Time
	next atomic.Int32
	// on gates client-operation and RPC spans, so one traced run can
	// measure a window with tracing off before its traced window.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// open maps a node address to the benchmark-issued call (set-up or
	// maintenance) currently running on it: RPCs that carry no client
	// context inherit it as their parent.
	open map[string]*span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[string]*span{}} }

type spanKey struct{}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a client-operation span and returns a context carrying it,
// so the operation's RPC attempts find their parent.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *span) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	id := t.next.Add(1)
	s := &span{ID: id, Req: id, Name: name, Start: t.now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

func (t *tracer) end(s *span, err error) {
	if s == nil {
		return
	}
	s.End = t.now()
	s.Err = err != nil
	t.add(*s)
}

// call runs fn, a benchmark-issued call on node addr, under a root span.
// Calls on one node are issued one at a time (set-up is sequential, and
// one goroutine runs maintenance), so a node has at most one open call.
// Unlike client operations these are recorded even while RPC spans are
// off: they are few, and a call that straddles the start of the traced
// window must still be there as the parent of its later RPCs.
func (t *tracer) call(addr, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.next.Add(1)
	s := &span{ID: id, Req: id, Name: name, Start: t.now()}
	t.mu.Lock()
	t.open[addr] = s
	t.mu.Unlock()
	err := fn()
	t.mu.Lock()
	delete(t.open, addr)
	t.mu.Unlock()
	t.end(s, err)
	return err
}

// wrap is the transport.Config.WrapCaller hook: it records one span per
// RPC attempt, named after the message type.
func (t *tracer) wrap(self string, inner wire.Caller) wire.Caller {
	name := map[wire.MsgType]string{}
	for typ := wire.TPing; typ <= wire.TRouteGossip; typ++ {
		name[typ] = "wire." + typ.String()
	}
	return wire.CallerFunc(func(ctx context.Context, addr string, req wire.Request) (wire.Response, error) {
		if !t.on.Load() {
			return inner.Call(ctx, addr, req)
		}
		s := span{ID: t.next.Add(1), Name: name[req.Type], Start: t.now()}
		if p, ok := ctx.Value(spanKey{}).(*span); ok {
			s.Parent, s.Req = p.ID, p.Req
		} else {
			t.mu.Lock()
			if p := t.open[self]; p != nil {
				s.Parent, s.Req = p.ID, p.Req
			}
			t.mu.Unlock()
		}
		resp, err := inner.Call(ctx, addr, req)
		s.End = t.now()
		s.Err = err != nil
		t.add(s)
		return resp, err
	})
}

// mark returns the number of spans recorded so far.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// all returns the recorded spans. Call it once nothing records any more.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// spanStats is the per-layer view of a set of spans: for every span, the
// union of its children's intervals (children of a quorum overlap, so
// their durations cannot simply be summed) and its self time.
type spanStats struct {
	spans   []span
	covered map[int32]int64  // span ID -> union of children's intervals
	kids    map[int32][]int  // span ID -> indexes of its children
	roots   map[int32]string // request ID -> root span name
}

func analyze(spans []span) *spanStats {
	st := &spanStats{spans: spans, covered: map[int32]int64{},
		kids: map[int32][]int{}, roots: map[int32]string{}}
	for i, s := range spans {
		if s.Parent != 0 {
			st.kids[s.Parent] = append(st.kids[s.Parent], i)
		} else {
			st.roots[s.Req] = s.Name
		}
	}
	for parent, idx := range st.kids {
		st.covered[parent] = st.union(idx, nil)
	}
	return st
}

// union is the length of the union of the intervals of spans idx whose
// name passes keep (nil keeps all).
func (st *spanStats) union(idx []int, keep func(string) bool) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, i := range idx {
		s := st.spans[i]
		if keep == nil || keep(s.Name) {
			ivs = append(ivs, iv{s.Start, s.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

func (st *spanStats) self(s span) int64 { return s.dur() - st.covered[s.ID] }

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	name            string
	count           int
	totalNs, selfNs int64
}

// table aggregates spans by name, heaviest self time first.
func (st *spanStats) table() []layerRow {
	rows := map[string]*layerRow{}
	for _, s := range st.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.totalNs += s.dur()
		r.selfNs += st.self(s)
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfNs != out[j].selfNs {
			return out[i].selfNs > out[j].selfNs
		}
		return out[i].name < out[j].name
	})
	return out
}

func writeTable(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "per-layer spans, %s:\n", title)
	fmt.Fprintf(w, "  %-28s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_self_us")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %9d %12.1f %12.1f %12.2f\n", r.name, r.count,
			float64(r.totalNs)/1e6, float64(r.selfNs)/1e6, float64(r.selfNs)/1e3/float64(r.count))
	}
}

// writeSpans writes the host fingerprint as a JSON object, then every
// span as one JSON array per line:
// [id, parent, req, name, start_ns, end_ns, err].
func writeSpans(path string, h host, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	hj, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "%s\n", hj)
	for _, s := range spans {
		fmt.Fprintf(w, "[%d,%d,%d,%q,%d,%d,%t]\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End, s.Err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func isRPC(name string) bool { return strings.HasPrefix(name, "wire.") }
