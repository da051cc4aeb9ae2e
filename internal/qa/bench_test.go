package qa

import (
	"fmt"
	"testing"

	"distqa/internal/index"
	"distqa/internal/nlp"
)

// benchStages runs the PR + PS stages for a rotating set of questions on e.
func benchStages(b *testing.B, e *Engine) {
	b.Helper()
	var analyses []nlp.QuestionAnalysis
	for _, f := range testColl.Facts[:8] {
		analyses = append(analyses, nlp.AnalyzeQuestion(f.Question))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := analyses[i%len(analyses)]
		rs, _ := e.RetrieveAll(a)
		e.ScoreParagraphs(a, rs)
	}
}

// BenchmarkPRPSSequential measures paragraph retrieval + scoring with the
// single-threaded engine (the simulator's configuration).
func BenchmarkPRPSSequential(b *testing.B) { benchStages(b, testEngine) }

// BenchmarkPRPSParallel measures the same stages with intra-node fan-out
// across sub-collection indexes and paragraph chunks.
func BenchmarkPRPSParallel(b *testing.B) { benchStages(b, newParallelEngine(8)) }

func benchAnswer(b *testing.B, e *Engine) {
	b.Helper()
	qs := make([]string, 0, 8)
	for _, f := range testColl.Facts[:8] {
		qs = append(qs, f.Question)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AnswerSequential(qs[i%len(qs)])
	}
}

// BenchmarkAskSequential measures the full QA pipeline single-threaded.
func BenchmarkAskSequential(b *testing.B) { benchAnswer(b, testEngine) }

// BenchmarkAskParallel measures the full pipeline with Workers=8; answers
// are byte-identical to the sequential path (see parallel_test.go).
func BenchmarkAskParallel(b *testing.B) { benchAnswer(b, newParallelEngine(8)) }

// BenchmarkPSFanOut scores the first n paragraphs a TREC-8-like question
// retrieves, sequentially and fanned out over two workers regardless of
// psParallelMin: the smallest n at which the fan-out wins at GOMAXPROCS=2
// is the break-even psParallelMin is set from.
func BenchmarkPSFanOut(b *testing.B) {
	c := trec8Collection()
	e := NewEngine(c, index.BuildAll(c))
	var a nlp.QuestionAnalysis
	var rs []index.Retrieved
	for _, f := range c.Facts {
		fa := nlp.AnalyzeQuestion(f.Question)
		if frs, _ := e.RetrieveAll(fa); len(frs) > len(rs) {
			a, rs = fa, frs
		}
	}
	for _, n := range []int{64, 128, 192, 256, 384, 512} {
		if n > len(rs) {
			break
		}
		b.Run(fmt.Sprintf("seq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.ScoreParagraphs(a, rs[:n])
			}
		})
		b.Run(fmt.Sprintf("par2/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.scoreParagraphsParallel(a, rs[:n], 2)
			}
		})
	}
}
