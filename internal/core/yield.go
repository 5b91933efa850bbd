package core

import "runtime"

// yieldStride is the loop stride at which the long structural rebuild
// passes (fold merge, pyramid coarsening, prefix rebuild) offer the
// scheduler a chance to run latency-sensitive goroutines. Background
// compaction runs these passes concurrently with serving; at small
// GOMAXPROCS (the common container deployment) one un-yielding
// multi-hundred-millisecond pass would monopolize a core and surface
// directly in read tail latency. Measured on a 2-core Xeon over a
// 7-column block of 300k taxi rows at level 14: Coarsen's three passes
// together cost ~0.15µs per fine cell (BenchmarkBuildPyramid), each pass
// a fraction of that, and FoldRows ~0.3µs per output cell (20k rows
// folded into the block). A stride of 1024 therefore bounds each
// uninterruptible chunk to ~0.3ms or less — below a typical query —
// while the Gosched itself costs about 1% of the shortest chunk (and is
// nearly free when nothing else is runnable).
const yieldStride = 1 << 10

// maybeYield yields the processor every yieldStride-th call, keyed on a
// monotonically increasing loop counter.
func maybeYield(i int) {
	if i != 0 && i&(yieldStride-1) == 0 {
		runtime.Gosched()
	}
}
