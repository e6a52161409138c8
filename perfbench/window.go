package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// clients is the number of closed-loop client goroutines of a live
// workload, fixed so the workload does not change with the host: each
// client waits for its reply before sending again, as the callers of
// Lookup/Put/Get do. It equals nproc on the reference host.
const clients = 2

// windowSlices splits a measured window into equal parts. Rates and latency
// quantiles are taken per slice and reported as the median over slices,
// so one slice disturbed by the host does not move the result.
const windowSlices = 10

// wrongAnswer is an output that fails a correctness check. It aborts the
// run, unlike an operation error, which is counted and reported.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

func isWrong(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

// opFunc runs one client operation and names its kind. An error that is
// a wrongAnswer aborts the window; any other error counts as a failed
// operation.
type opFunc func(ctx context.Context, client int, rng *rand.Rand) (kind string, err error)

// windowResult aggregates one measured window over all clients.
type windowResult struct {
	elapsed   time.Duration
	sliceDur  time.Duration
	attempted int
	failed    int
	// sliceOps and sliceLat are per slice: completed operations and
	// latencies (ms) of every operation kind.
	sliceOps [windowSlices]int
	sliceLat [windowSlices][]float64
	// byKind holds every latency (ms) of one operation kind.
	byKind map[string][]float64
}

func (w *windowResult) opsPerSec() float64 {
	rates := make([]float64, windowSlices)
	per := w.sliceDur.Seconds()
	for i, n := range w.sliceOps {
		rates[i] = float64(n) / per
	}
	return median(rates)
}

// latency is the median over slices of each slice's q-quantile.
func (w *windowResult) latency(q float64) float64 {
	qs := make([]float64, windowSlices)
	for i := range w.sliceLat {
		qs[i] = quantile(w.sliceLat[i], q)
	}
	return median(qs)
}

func (w *windowResult) kindQuantile(kind string, q float64) float64 {
	return quantile(w.byKind[kind], q)
}

// runWindow runs op on every client, closed loop, for d. Client c draws
// its inputs from rngs[c].
func runWindow(ctx context.Context, d time.Duration, rngs []*rand.Rand, op opFunc) (*windowResult, error) {
	type clientOut struct {
		ops    [windowSlices]int
		lat    [windowSlices][]float64
		kind   map[string][]float64
		failed int
		err    error
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]clientOut, clients)
	sliceDur := d / windowSlices
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.kind = map[string][]float64{}
			for {
				t := time.Now()
				if t.Sub(start) >= d || ctx.Err() != nil {
					return
				}
				kind, err := op(ctx, c, rngs[c])
				done := time.Now()
				if isWrong(err) {
					o.err = err
					cancel()
					return
				}
				if err != nil {
					o.failed++
				}
				s := int(done.Sub(start) / sliceDur)
				if s >= windowSlices {
					s = windowSlices - 1
				}
				ms := float64(done.Sub(t)) / 1e6
				o.ops[s]++
				o.lat[s] = append(o.lat[s], ms)
				o.kind[kind] = append(o.kind[kind], ms)
			}
		}(c)
	}
	wg.Wait()
	res := &windowResult{elapsed: time.Since(start), sliceDur: sliceDur, byKind: map[string][]float64{}}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.failed += o.failed
		for s := 0; s < windowSlices; s++ {
			res.sliceOps[s] += o.ops[s]
			res.attempted += o.ops[s]
			res.sliceLat[s] = append(res.sliceLat[s], o.lat[s]...)
		}
		for k, v := range o.kind {
			res.byKind[k] = append(res.byKind[k], v...)
		}
	}
	return res, nil
}

// clientRNGs derives one generator per client from the workload seed.
func clientRNGs(seed int64, salt int64) []*rand.Rand {
	out := make([]*rand.Rand, clients)
	for c := range out {
		out[c] = rand.New(rand.NewSource(seed*1_000_003 + salt*101 + int64(c)))
	}
	return out
}
