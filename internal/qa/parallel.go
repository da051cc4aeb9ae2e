package qa

import (
	"runtime"
	"sync"
	"sync/atomic"

	"distqa/internal/index"
	"distqa/internal/nlp"
)

// Intra-node parallelism. The paper distributes PR across nodes because its
// 2001 testbed machines had one slow core each; on a modern multi-core host
// the same fan-out pays off *inside* one node. Engine.Workers > 1 enables a
// bounded worker pool for Paragraph Retrieval (one task per sub-collection
// index) and Paragraph Scoring (contiguous paragraph chunks).
//
// The parallel paths are bit-for-bit equivalent to the sequential ones:
// results are written into position-indexed slots and merged in input order,
// and the virtual-cost accounting is folded in exactly the sequential loop's
// float-addition order, so answers, scores and reported CPU/disk demands are
// byte-identical whichever path ran (TestParallelEquivalence enforces this).
// The simulator's engines keep Workers = 0: its virtual-time charging is
// independent of host-side wall clock either way, and sequential execution
// keeps simulated runs deterministic cheaply.

// psParallelChunk is the unit of PS work-stealing: paragraphs are scored in
// contiguous chunks of this size, claimed atomically.
const psParallelChunk = 64

// psParallelMin is the minimum paragraph count before PS fans out; below it
// the goroutine overhead exceeds the scoring work. BenchmarkPSFanOut sets
// it: with term-ID keyword scans a TREC-8-like paragraph scores in ~0.6 µs,
// and two workers first beat the sequential scorer between 192 and 256
// paragraphs (medians of 8 runs at GOMAXPROCS=2 on a shared 2-vCPU x86-64
// VM: 0.89x at 192, 1.11x at 256).
const psParallelMin = 4 * psParallelChunk

// workers returns the effective worker count (1 = sequential). The
// configured fan-out is clamped to the scheduler's parallelism budget
// (GOMAXPROCS): on a single-core container, goroutine fan-out buys no
// parallelism but still pays scheduling and synchronization per question —
// the measured 0.95x regression of the PR-2 benchmarks — so the engine
// falls back to the sequential path there. The clamp changes only *which*
// path runs, never its results (both are byte-identical; see
// TestParallelEquivalence and TestWorkersClampedToGOMAXPROCS).
func (e *Engine) workers() int {
	if e.Workers <= 1 {
		return 1
	}
	w := e.Workers
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	return w
}

// fanOut is the pooled state of one parallel stage call: the calling
// goroutine and workers-1 helpers claim [lo, hi) chunks of n tasks
// atomically until all are done. Pooling the state with its run method
// bound once keeps a fan-out from allocating beyond the task closure.
type fanOut struct {
	next  atomic.Int64
	wg    sync.WaitGroup
	n     int
	chunk int
	task  func(lo, hi int)
	run   func() // f.work, bound when the state is first allocated
}

var fanOutPool = sync.Pool{New: func() any {
	f := new(fanOut)
	f.run = f.work
	return f
}}

func (f *fanOut) work() {
	defer f.wg.Done()
	for {
		lo := int(f.next.Add(int64(f.chunk))) - f.chunk
		if lo >= f.n {
			return
		}
		f.task(lo, min(lo+f.chunk, f.n))
	}
}

// parallelFor runs task over [0, n) in chunks of chunk on at most workers
// goroutines, the caller's included, and returns when every chunk is done.
func parallelFor(n, chunk, workers int, task func(lo, hi int)) {
	f := fanOutPool.Get().(*fanOut)
	f.next.Store(0)
	f.n, f.chunk, f.task = n, chunk, task
	f.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go f.run()
	}
	f.run()
	f.wg.Wait()
	f.task = nil
	fanOutPool.Put(f)
}

// retrieveAllParallel fans RetrieveSub out across the sub-collection
// indexes. Each sub-collection is one task (the PR module's natural
// granularity, Table 2); results land in per-sub slots and are concatenated
// in sub order.
func (e *Engine) retrieveAllParallel(a nlp.QuestionAnalysis, workers int) ([]index.Retrieved, Cost) {
	subs := e.Set.Globals()
	type subResult struct {
		rs   []index.Retrieved
		cost Cost
	}
	results := make([]subResult, len(subs))
	parallelFor(len(subs), 1, min(workers, len(subs)), func(i, _ int) {
		rs, c := e.RetrieveSub(a, subs[i])
		results[i] = subResult{rs: rs, cost: c}
	})
	// Deterministic merge: concatenation and cost folding both happen in
	// sub order — the sequential loop's exact element and float-addition
	// order.
	var out []index.Retrieved
	var cost Cost
	for i := range results {
		out = append(out, results[i].rs...)
		cost = cost.Add(results[i].cost)
	}
	return out, cost
}

// scoreParagraphsParallel scores paragraphs in atomically claimed contiguous
// chunks, writing each result into its input position. Cost accounting runs
// over the input in order afterwards (pure arithmetic, a tiny fraction of
// the scoring work), reproducing the sequential accumulation bit for bit.
func (e *Engine) scoreParagraphsParallel(a nlp.QuestionAnalysis, rs []index.Retrieved, workers int) ([]ScoredParagraph, Cost) {
	out := make([]ScoredParagraph, len(rs))
	parallelFor(len(rs), psParallelChunk, workers, func(lo, hi int) {
		scan := e.keywordScan(a.Keywords)
		for i := lo; i < hi; i++ {
			out[i] = scoreOne(scan, rs[i])
		}
		scan.release()
	})
	cost := Cost{MemMB: e.Cost.MemBaseMB}
	for _, r := range rs {
		cost.CPUSeconds += e.Cost.PSPerParagraphCPU + e.Cost.PSPerTokenCPU*float64(len(r.Para.Tokens))
	}
	return out, cost
}
