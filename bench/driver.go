package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// doFunc issues request number i of a stream on the given client
// connection and reports whether it succeeded with a correct-looking
// answer. Its latency is timed by the driver, not by doFunc.
type doFunc func(client int, i uint64) error

// phaseSlices is how many equal parts a phase's samples are kept in. A
// run reports the median over parts, which a transient stall of the
// box (one slow second in eight) cannot move the way it moves a
// percentile of the whole phase.
const phaseSlices = 8

// loopResult is what one timed phase of a driver measured.
type loopResult struct {
	// slice holds the latencies of the requests started (closed loop) or
	// due (open loop) in each eighth of the phase; lat is their union.
	slice     [phaseSlices]hist
	lat       hist
	lag       hist          // open loop only: how late each send was
	planned   time.Duration // the phase's nominal length
	attempted uint64        // requests started in the phase
	failed    uint64        // of those, how many doFunc rejected
	elapsed   time.Duration // phase start to last completion
	lagEarly  float64       // open loop: median lateness (ms) of the first quarter of sends
	lagLate   float64       // and of the last quarter; a gap means the backlog grew
}

// qps is the phase's throughput: successful requests over elapsed time.
func (r *loopResult) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / r.elapsed.Seconds()
}

// sliceOf maps an offset into the phase to its slice.
func (r *loopResult) sliceOf(offset time.Duration) int {
	return min(max(int(offset*phaseSlices/r.planned), 0), phaseSlices-1)
}

// steadyQPS is the median over the phase's eighths of the requests
// started per second.
func (r *loopResult) steadyQPS() float64 {
	vals := make([]float64, phaseSlices)
	for k := range r.slice {
		vals[k] = float64(r.slice[k].n) * phaseSlices / r.planned.Seconds()
	}
	return median(vals)
}

// steadyMS is the q-th latency percentile in milliseconds, as the
// median over equal parts of the phase: eight parts if each then has
// the samples the percentile needs (ten beyond it), else four, two or
// the whole phase. A phase too short even whole reports the highest
// percentile it supports (tailPercentile) in q's place.
func (r *loopResult) steadyMS(q float64) float64 {
	need := uint64(math.Ceil(1000 / (100 - q)))
	parts := phaseSlices
	for parts > 1 && r.lat.n/uint64(parts) < need {
		parts /= 2
	}
	vals := make([]float64, 0, parts)
	for k := 0; k < phaseSlices; k += phaseSlices / parts {
		part := new(hist)
		for _, h := range r.slice[k : k+phaseSlices/parts] {
			part.merge(&h)
		}
		if part.n > 0 {
			vals = append(vals, part.ms(min(q, tailPercentile(part.n))))
		}
	}
	return median(vals)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// collect merges the per-client slices into the result.
func (r *loopResult) collect(clients [][phaseSlices]hist) {
	for c := range clients {
		for k := range clients[c] {
			r.slice[k].merge(&clients[c][k])
			r.lat.merge(&clients[c][k])
		}
	}
}

// runClosed drives do from `clients` goroutines for d, each sending its
// next request only after the previous one completed. next hands out
// request numbers; a caller that runs a warm-up phase first (a call
// whose result it discards) passes the same counter to both calls, so
// the warm-up never replays into the timed window.
func runClosed(clients int, d time.Duration, next *atomic.Uint64, do doFunc) *loopResult {
	res := &loopResult{planned: d}
	start := time.Now()
	deadline := start.Add(d)
	hists := make([][phaseSlices]hist, clients)
	var attempted, failed atomic.Uint64
	var lastDone atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := do(c, next.Add(1)-1)
				t1 := time.Now()
				hists[c][res.sliceOf(t0.Sub(start))].record(t1.Sub(t0))
				attempted.Add(1)
				if err != nil {
					failed.Add(1)
				}
				storeMax(&lastDone, int64(t1.Sub(start)))
			}
		}(c)
	}
	wg.Wait()
	res.attempted, res.failed, res.elapsed = attempted.Load(), failed.Load(), time.Duration(lastDone.Load())
	res.collect(hists)
	return res
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runOpen sends on a fixed schedule whatever the system's pace: request
// n of the phase is due at start + n/rate. conns goroutines claim the
// next due request, sleep until it is due, and time it from its due
// time, so the wait a stall imposes on the requests queued behind it is
// charged to the system (and shows separately as generator lateness).
// Every request due inside the window is sent, even late: an overloaded
// step takes longer than `timed` rather than dropping its backlog.
func runOpen(conns int, rate float64, timed time.Duration, next *atomic.Uint64, do doFunc) *loopResult {
	res := &loopResult{planned: timed}
	interval := time.Duration(float64(time.Second) / rate)
	total := uint64(timed / interval)
	start := time.Now()
	// early and late hold the lateness of the first and last quarter of
	// sends: their medians tell whether the backlog grew over the phase.
	type worker struct{ lag, early, late hist }
	ws := make([]worker, conns)
	hists := make([][phaseSlices]hist, conns)
	var ticket, failed atomic.Uint64
	var lastDone atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &ws[c]
			for {
				n := ticket.Add(1) - 1
				if n >= total {
					return
				}
				due := start.Add(time.Duration(n) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := do(c, next.Add(1)-1)
				done := time.Now()
				late := max(sent.Sub(due), 0)
				w.lag.record(late)
				switch {
				case n < total/4:
					w.early.record(late)
				case n >= total-total/4:
					w.late.record(late)
				}
				hists[c][res.sliceOf(due.Sub(start))].record(done.Sub(due))
				if err != nil {
					failed.Add(1)
				}
				storeMax(&lastDone, int64(done.Sub(start)))
			}
		}(c)
	}
	wg.Wait()
	res.attempted, res.failed, res.elapsed = total, failed.Load(), time.Duration(lastDone.Load())
	res.collect(hists)
	var early, late hist
	for c := range ws {
		res.lag.merge(&ws[c].lag)
		early.merge(&ws[c].early)
		late.merge(&ws[c].late)
	}
	res.lagEarly, res.lagLate = early.ms(50), late.ms(50)
	return res
}
