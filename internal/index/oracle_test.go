package index

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"distqa/internal/corpus"
	"distqa/internal/nlp"
)

// Term-ID retrieval against the retired string-keyed presence rule.
//
// Before stems were interned, every index kept paraStems: per paragraph, a
// map from each stem it contains to its occurrence count, and a paragraph
// held keyword k when paraStems[p.ID][k] > 0. RetrieveParagraphs now tests
// each paragraph's sorted term IDs instead. The oracle below rebuilds the
// old tables from the tokens and runs the old extraction loop over the
// same (unchanged) Boolean relaxation, and the properties require the two
// to agree on every result and every Stats field.

// oracleParaStems builds the retired per-paragraph stem-count tables of ix.
func oracleParaStems(ix *Index) map[int]map[string]int {
	tables := make(map[int]map[string]int)
	for _, doc := range ix.docs {
		for _, p := range doc.Paragraphs {
			counts := make(map[string]int, len(p.Tokens))
			for _, t := range p.Tokens {
				if t.Stem != "" {
					counts[t.Stem]++
				}
			}
			tables[p.ID] = counts
		}
	}
	return tables
}

// oracleRetrieve is RetrieveParagraphs with the retired presence rule.
func oracleRetrieve(ix *Index, paraStems map[int]map[string]int, keywords []string) ([]Retrieved, Stats) {
	var st Stats
	if len(keywords) == 0 {
		return nil, st
	}
	kws := dedup(keywords)
	for _, k := range kws {
		st.RealBytesTouched += len(k) + 4*ix.DocFreq(k)
	}
	rr := ix.relax(kws, new(scratch))
	st.KeywordsUsed = len(rr.active)
	st.DocsMatched = len(rr.docs)
	need := (len(kws) + 1) / 2
	if need < 1 {
		need = 1
	}
	var out []Retrieved
	for _, local := range rr.docs {
		doc := ix.docs[local]
		st.RealBytesTouched += doc.RealBytes
		for _, p := range doc.Paragraphs {
			st.ParagraphsScanned++
			counts := paraStems[p.ID]
			matched := 0
			for _, k := range kws {
				if counts[k] > 0 {
					matched++
				}
			}
			if matched >= need {
				out = append(out, Retrieved{Para: p, Matched: matched})
			}
		}
	}
	return out, st
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

// shardSets returns the four K=4 shard-scoped index sets of c: shard s
// holds the sub-collections with sub % 4 == s.
func shardSets(c *corpus.Collection) []*Set {
	sets := make([]*Set, 4)
	for s := range sets {
		var subs []int
		for sub := s; sub < len(c.Subs); sub += 4 {
			subs = append(subs, sub)
		}
		sets[s] = BuildSubset(c, subs)
	}
	return sets
}

// oracleKeywords samples a keyword set for ix: question keywords, stems of
// the index's own paragraphs, stems only other sub-collections contain
// (absent from this index), stems unknown to the collection, duplicates and
// empty strings.
func oracleKeywords(rng *rand.Rand, c *corpus.Collection, ix *Index) []string {
	var kws []string
	if rng.Intn(3) == 0 {
		f := c.Facts[rng.Intn(len(c.Facts))]
		kws = append(kws, nlp.AnalyzeQuestion(f.Question).Keywords...)
	}
	paraStem := func(p *corpus.Paragraph) string {
		return p.Tokens[rng.Intn(len(p.Tokens))].Stem
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		doc := ix.docs[rng.Intn(len(ix.docs))]
		kws = append(kws, paraStem(doc.Paragraphs[rng.Intn(len(doc.Paragraphs))]))
	}
	if rng.Intn(2) == 0 {
		// A stem of another sub-collection; often absent from this one.
		p := c.Paragraphs()[rng.Intn(len(c.Paragraphs()))]
		if p.Sub != ix.sub {
			kws = append(kws, paraStem(p))
		}
	}
	if rng.Intn(4) == 0 {
		kws = append(kws, "zzz-no-such-stem")
	}
	if rng.Intn(4) == 0 {
		kws = append(kws, kws[rng.Intn(len(kws))])
	}
	if rng.Intn(8) == 0 {
		kws = append(kws, "")
	}
	rng.Shuffle(len(kws), func(i, j int) { kws[i], kws[j] = kws[j], kws[i] })
	return kws
}

// requireOracleRetrieval checks queries random keyword sets against the
// oracle on every index of set, asking each set twice so the relaxation
// memo's hit path is covered too.
func requireOracleRetrieval(t *testing.T, set *Set, rng *rand.Rand, queries int) {
	t.Helper()
	for _, ix := range set.Indexes {
		tables := oracleParaStems(ix)
		for q := 0; q < queries; q++ {
			kws := oracleKeywords(rng, set.Coll, ix)
			want, wantSt := oracleRetrieve(ix, tables, kws)
			for pass := 0; pass < 2; pass++ {
				got, gotSt := ix.RetrieveParagraphs(kws)
				if gotSt != wantSt {
					t.Fatalf("sub %d %q: stats %+v, oracle %+v", ix.sub, kws, gotSt, wantSt)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sub %d %q: %d paragraphs, oracle %d", ix.sub, kws, len(got), len(want))
				}
			}
		}
	}
}

func TestRetrieveMatchesStemMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	requireOracleRetrieval(t, BuildAll(testColl), rng, 150)
	requireOracleRetrieval(t, BuildAllWith(testColl, IndexOptions{}), rng, 50)
}

func TestRetrieveMatchesStemMapOracleTREC8Shards(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, set := range shardSets(trec8Collection()) {
		requireOracleRetrieval(t, set, rng, 40)
	}
}
