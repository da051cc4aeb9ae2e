package qa

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"distqa/internal/corpus"
	"distqa/internal/index"
	"distqa/internal/nlp"
)

// Term-ID keyword matching against the retired string-map scan.
//
// Before stems were interned, PS and AP found keywords with
// oracleKeywordPositions below: one string-hashed map lookup per token,
// positions keyed by stem. The oracle pipeline keeps that scan, the
// per-candidate snippet rendering and the closure sorts, and the
// properties require the production stages to match it on answers (every
// field, snippets included) and bit-identical costs.

// oracleKeywordPositions maps each keyword stem to its sorted token
// positions (the retired keywordPositions).
func oracleKeywordPositions(keywords []string, tokens []nlp.Token) map[string][]int {
	want := make(map[string]bool, len(keywords))
	for _, k := range keywords {
		want[k] = true
	}
	out := make(map[string][]int, len(keywords))
	for _, t := range tokens {
		if want[t.Stem] {
			out[t.Stem] = append(out[t.Stem], t.Pos)
		}
	}
	return out
}

// oraclePositions lays the map out per keyword slot, the shape
// keywordScan.positions returns.
func oraclePositions(keywords []string, tokens []nlp.Token) [][]int {
	m := oracleKeywordPositions(keywords, tokens)
	slots := make([][]int, len(keywords))
	for i, k := range keywords {
		slots[i] = m[k]
	}
	return slots
}

// oracleScoreOne is the retired scoreOne over the string-map scan.
func oracleScoreOne(a nlp.QuestionAnalysis, r index.Retrieved) ScoredParagraph {
	positions := oracleKeywordPositions(a.Keywords, r.Para.Tokens)
	matched := 0
	first, last := -1, -1
	order := 0
	prevPos := -1
	for _, kw := range a.Keywords {
		ps := positions[kw]
		if len(ps) == 0 {
			continue
		}
		matched++
		if first < 0 || ps[0] < first {
			first = ps[0]
		}
		if ps[0] > last {
			last = ps[0]
		}
		if prevPos >= 0 && ps[0] > prevPos {
			order++
		}
		prevPos = ps[0]
	}
	score := 0.0
	if matched > 0 {
		span := last - first
		score = 3*float64(matched) + float64(order) + 4/float64(1+span)
	}
	return ScoredParagraph{Para: r.Para, Matched: matched, Score: score}
}

// oracleScoreParagraphs is ScoreParagraphs over the string-map scan.
func oracleScoreParagraphs(e *Engine, a nlp.QuestionAnalysis, rs []index.Retrieved) ([]ScoredParagraph, Cost) {
	out := make([]ScoredParagraph, 0, len(rs))
	cost := Cost{MemMB: e.Cost.MemBaseMB}
	for _, r := range rs {
		out = append(out, oracleScoreOne(a, r))
		cost.CPUSeconds += e.Cost.PSPerParagraphCPU + e.Cost.PSPerTokenCPU*float64(len(r.Para.Tokens))
	}
	return out, cost
}

// oracleBuildWindow is the retired buildWindow over the string-map scan,
// rendering the snippet of every candidate.
func oracleBuildWindow(a nlp.QuestionAnalysis, para *corpus.Paragraph, sp ScoredParagraph, ent nlp.Entity, positions map[string][]int) Answer {
	candMid := (ent.Start + ent.End - 1) / 2
	winStart, winEnd := ent.Start, ent.End-1
	inWindow := 0
	order := 0
	nearest := 1 << 30
	prev := -1
	sameSentence := 0
	for _, kw := range a.Keywords {
		ps := positions[kw]
		if len(ps) == 0 {
			continue
		}
		best := ps[0]
		for _, p := range ps {
			if abs(p-candMid) < abs(best-candMid) {
				best = p
			}
		}
		inWindow++
		if best < winStart {
			winStart = best
		}
		if best > winEnd {
			winEnd = best
		}
		if d := abs(best - candMid); d < nearest {
			nearest = d
		}
		if prev >= 0 && best > prev {
			order++
		}
		prev = best
		if abs(best-candMid) <= 8 {
			sameSentence++
		}
	}
	span := winEnd - winStart
	h1 := 3.0 * float64(inWindow)
	h2 := 2.0 / float64(1+span)
	h3 := 2.0 / float64(1+nearestOrZero(nearest))
	h4 := 0.5 * float64(order)
	h5 := 0.5 * float64(sameSentence)
	h6 := 0.2 * sp.Score
	score := h1 + h2 + h3 + h4 + h5 + h6
	return Answer{
		Text:        ent.Text,
		Type:        ent.Type,
		Score:       score,
		ParaID:      para.ID,
		WindowStart: winStart,
		WindowEnd:   winEnd + 1,
		CandStart:   ent.Start,
		CandEnd:     ent.End,
		Snippet:     oracleSnippet(para, winStart, winEnd+1),
	}
}

// oracleSnippet is the retired join-based snippet rendering.
func oracleSnippet(para *corpus.Paragraph, start, end int) string {
	lo := start - 4
	if lo < 0 {
		lo = 0
	}
	hi := end + 4
	if hi > len(para.Tokens) {
		hi = len(para.Tokens)
	}
	words := make([]string, 0, hi-lo)
	if lo > 0 {
		words = append(words, "...")
	}
	for _, t := range para.Tokens[lo:hi] {
		words = append(words, t.Text)
	}
	if hi < len(para.Tokens) {
		words = append(words, "...")
	}
	return strings.Join(words, " ")
}

// oracleExtractAnswers is ExtractAnswers over the string-map scan, with a
// snippet rendered for every candidate and the closure-based stable sort.
func oracleExtractAnswers(e *Engine, a nlp.QuestionAnalysis, paras []ScoredParagraph) ([]Answer, Cost) {
	var all []Answer
	cost := Cost{
		CPUSeconds: e.Cost.APSubtaskBaseCPU,
		MemMB:      e.Cost.MemBaseMB + e.Cost.MemPerParagraphMB*float64(len(paras)),
	}
	for _, sp := range paras {
		para := sp.Para
		cpu := e.Cost.APPerParagraphCPU + e.Cost.APPerTokenCPU*float64(len(para.Tokens))
		positions := oracleKeywordPositions(a.Keywords, para.Tokens)
		occurrences := 0
		for _, kw := range a.Keywords {
			occurrences += len(positions[kw])
		}
		for _, ent := range para.Entities {
			cpu += e.Cost.APPerCandidateCPU + e.Cost.APPerWindowCPU*float64(occurrences)
			if a.AnswerType != nlp.UnknownEntity && ent.Type != a.AnswerType {
				continue
			}
			all = append(all, oracleBuildWindow(a, para, sp, ent, positions))
		}
		cost.CPUSeconds += cpu
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].ParaID != all[j].ParaID {
			return all[i].ParaID < all[j].ParaID
		}
		return all[i].Text < all[j].Text
	})
	if len(all) > e.Params.AnswersRequested {
		all = all[:e.Params.AnswersRequested]
	}
	return all, cost
}

// oracleAnswer is AnswerSequential with the oracle PS and AP stages.
func oracleAnswer(e *Engine, question string) Result {
	res := Result{Question: question}
	a, qp := e.QuestionProcessing(question)
	res.Costs.QP = qp
	rs, pr := e.RetrieveAll(a)
	res.Costs.PR = pr
	res.Retrieved = len(rs)
	scored, ps := oracleScoreParagraphs(e, a, rs)
	res.Costs.PS = ps
	accepted, po := e.OrderParagraphs(scored)
	res.Costs.PO = po
	res.Accepted = len(accepted)
	answers, ap := oracleExtractAnswers(e, a, accepted)
	res.Costs.AP = ap
	res.Answers, res.Costs.Sort = e.MergeAnswerSets([][]Answer{answers})
	return res
}

// sameCost compares costs bit for bit.
func sameCost(a, b Cost) bool {
	return math.Float64bits(a.CPUSeconds) == math.Float64bits(b.CPUSeconds) &&
		math.Float64bits(a.DiskBytes) == math.Float64bits(b.DiskBytes) &&
		math.Float64bits(a.MemMB) == math.Float64bits(b.MemMB)
}

func sameModuleCosts(a, b ModuleCosts) bool {
	return sameCost(a.QP, b.QP) && sameCost(a.PR, b.PR) && sameCost(a.PS, b.PS) &&
		sameCost(a.PO, b.PO) && sameCost(a.AP, b.AP) && sameCost(a.Sort, b.Sort)
}

// oracleAnalysis samples a question analysis for e: a planted question's
// own, or random keywords drawn from question keywords, stems of the
// engine's paragraphs, stems of the whole collection (often absent from a
// shard engine), stems unknown to the collection and duplicates.
func oracleAnalysis(rng *rand.Rand, e *Engine) nlp.QuestionAnalysis {
	facts := e.Coll.Facts
	a := nlp.AnalyzeQuestion(facts[rng.Intn(len(facts))].Question)
	if rng.Intn(3) == 0 {
		return a
	}
	var kws []string
	if rng.Intn(2) == 0 {
		kws = append(kws, a.Keywords...)
	}
	stemOf := func(p *corpus.Paragraph) string { return p.Tokens[rng.Intn(len(p.Tokens))].Stem }
	held := e.Set.Globals()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		docs := e.Coll.Subs[held[rng.Intn(len(held))]].Docs
		doc := docs[rng.Intn(len(docs))]
		kws = append(kws, stemOf(doc.Paragraphs[rng.Intn(len(doc.Paragraphs))]))
	}
	if rng.Intn(2) == 0 {
		paras := e.Coll.Paragraphs()
		kws = append(kws, stemOf(paras[rng.Intn(len(paras))]))
	}
	if rng.Intn(4) == 0 {
		kws = append(kws, "zzz-no-such-stem")
	}
	if rng.Intn(3) == 0 {
		kws = append(kws, kws[rng.Intn(len(kws))])
	}
	rng.Shuffle(len(kws), func(i, j int) { kws[i], kws[j] = kws[j], kws[i] })
	a.Keywords = kws
	if rng.Intn(4) == 0 {
		a.AnswerType = nlp.UnknownEntity
	}
	return a
}

// requireStagesMatchOracle checks PS (sequential and fanned out) and AP
// over 1–4 round-robin partitions against the oracle for one analysis.
func requireStagesMatchOracle(t *testing.T, e *Engine, a nlp.QuestionAnalysis) {
	t.Helper()
	rs, _ := e.RetrieveAll(a)
	want, wantCost := oracleScoreParagraphs(e, a, rs)
	got, gotCost := e.ScoreParagraphs(a, rs)
	if !reflect.DeepEqual(got, want) || !sameCost(gotCost, wantCost) {
		t.Fatalf("%q: ScoreParagraphs diverges from the oracle", a.Keywords)
	}
	for _, w := range []int{2, 3} {
		got, gotCost := e.scoreParagraphsParallel(a, rs, w)
		if !reflect.DeepEqual(got, want) || !sameCost(gotCost, wantCost) {
			t.Fatalf("%q: %d-worker ScoreParagraphs diverges from the oracle", a.Keywords, w)
		}
	}
	accepted, _ := e.OrderParagraphs(want)
	for w := 1; w <= 4; w++ {
		parts := make([][]ScoredParagraph, w)
		for i, sp := range accepted {
			parts[i%w] = append(parts[i%w], sp)
		}
		var gotGroups, wantGroups [][]Answer
		for _, part := range parts {
			got, gotCost := e.ExtractAnswers(a, part)
			want, wantCost := oracleExtractAnswers(e, a, part)
			if !reflect.DeepEqual(got, want) || !sameCost(gotCost, wantCost) {
				t.Fatalf("%q: ExtractAnswers over %d partitions diverges from the oracle:\ngot:  %+v\nwant: %+v",
					a.Keywords, w, got, want)
			}
			gotGroups = append(gotGroups, got)
			wantGroups = append(wantGroups, want)
		}
		got, _ := e.MergeAnswerSets(gotGroups)
		want, _ := e.MergeAnswerSets(wantGroups)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: merged answers over %d partitions diverge from the oracle", a.Keywords, w)
		}
	}
}

// requireAnswersMatchOracle checks AnswerSequential against the oracle
// pipeline on every planted question of the engine's collection, every
// stride-th one.
func requireAnswersMatchOracle(t *testing.T, e *Engine, stride int) {
	t.Helper()
	for i := 0; i < len(e.Coll.Facts); i += stride {
		q := e.Coll.Facts[i].Question
		got := e.AnswerSequential(q)
		want := oracleAnswer(e, q)
		if !reflect.DeepEqual(got.Answers, want.Answers) || got.Retrieved != want.Retrieved ||
			got.Accepted != want.Accepted || !sameModuleCosts(got.Costs, want.Costs) {
			t.Fatalf("%q: AnswerSequential diverges from the oracle:\ngot:  %+v\nwant: %+v", q, got, want)
		}
	}
}

func TestStagesMatchStringMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		requireStagesMatchOracle(t, testEngine, oracleAnalysis(rng, testEngine))
	}
	requireAnswersMatchOracle(t, testEngine, 1)
}

var (
	trec8Once sync.Once
	trec8Coll *corpus.Collection
)

// trec8Collection is the paper-scale TREC-8-like collection, generated once
// per test binary.
func trec8Collection() *corpus.Collection {
	trec8Once.Do(func() { trec8Coll = corpus.Generate(corpus.TREC8Like()) })
	return trec8Coll
}

// trec8ShardEngines returns the four K=4 shard engines over the TREC-8-like
// collection: shard s holds the sub-collections with sub % 4 == s.
func trec8ShardEngines() []*Engine {
	c := trec8Collection()
	engines := make([]*Engine, 4)
	for s := range engines {
		var subs []int
		for sub := s; sub < len(c.Subs); sub += 4 {
			subs = append(subs, sub)
		}
		engines[s] = NewEngine(c, index.BuildSubset(c, subs))
	}
	return engines
}

func TestStagesMatchStringMapOracleTREC8Shards(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, e := range trec8ShardEngines() {
		for i := 0; i < 12; i++ {
			requireStagesMatchOracle(t, e, oracleAnalysis(rng, e))
		}
		requireAnswersMatchOracle(t, e, 8)
	}
}

// TestKeywordScanMatchesStringMap checks the scan itself, slot by slot, on
// every paragraph of the test corpus for random keyword sets.
func TestKeywordScanMatchesStringMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		a := oracleAnalysis(rng, testEngine)
		scan := testEngine.keywordScan(a.Keywords)
		for _, p := range testColl.Paragraphs() {
			got := scan.positions(p.Tokens)
			want := oraclePositions(a.Keywords, p.Tokens)
			for slot := range want {
				if len(got[slot]) != len(want[slot]) || (len(want[slot]) > 0 && !reflect.DeepEqual(got[slot], want[slot])) {
					t.Fatalf("paragraph %d keyword %q: positions %v, oracle %v",
						p.ID, strings.Join(a.Keywords, ","), got[slot], want[slot])
				}
			}
		}
		scan.release()
	}
}
