//go:build !race

// Allocation budget of a cold question (CI runs this without -race;
// testing.AllocsPerRun is unreliable under the race detector because
// instrumentation itself allocates).
package qa

import (
	"testing"

	"distqa/internal/index"
)

// askAllocBudget is the allocation budget of one AnswerSequential on the
// TREC-8-like collection, averaged over the first 16 planted questions:
// the measured 59 plus 1.5x headroom. Before stems were interned the same
// asks made 2,001 allocations each (string-keyed position maps per
// paragraph in PS and AP, a snippet per candidate), so the budget sits
// more than 20x below that.
const askAllocBudget = 88

// TestAskAllocBudget pins the allocations of a warm sequential ask: term-ID
// keyword scans from a pool, no per-paragraph maps, snippets for the
// returned answers only.
func TestAskAllocBudget(t *testing.T) {
	c := trec8Collection()
	e := NewEngine(c, index.BuildAll(c))
	var qs []string
	for _, f := range c.Facts[:16] {
		qs = append(qs, f.Question)
	}
	ask := func() {
		for _, q := range qs {
			e.AnswerSequential(q)
		}
	}
	ask() // warm the relaxation memo and the scan pool
	perAsk := testing.AllocsPerRun(5, ask) / float64(len(qs))
	t.Logf("%.1f allocs per ask (budget %d)", perAsk, askAllocBudget)
	if perAsk > askAllocBudget {
		t.Fatalf("a warm ask made %.1f allocations, budget %d", perAsk, askAllocBudget)
	}
}
