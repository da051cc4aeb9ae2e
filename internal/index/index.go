// Package index implements the Boolean information-retrieval substrate the
// paper's Paragraph Retrieval module is built on (the paper used a Boolean
// IR system built on top of NIST's Zprise). Each sub-collection is indexed
// separately — the unit of PR partitioning — and retrieval reports the
// virtual disk traffic it generated so the simulator can charge it.
//
// Retrieval follows Falcon's shape: a Boolean AND of the question keywords
// over the document index, relaxed by dropping the most restrictive keyword
// while too few documents match, followed by a post-processing phase that
// extracts from the matched documents the paragraphs containing enough of
// the original keywords. Documents and paragraphs are NOT ranked here; that
// is the job of the downstream Paragraph Scoring module (the paper is
// explicit that its Boolean IR returns unranked paragraphs).
package index

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"distqa/internal/corpus"
)

// MinDocs is the relaxation target: while fewer documents match, the most
// restrictive keyword is dropped (until a single keyword remains).
const MinDocs = 10

// IndexOptions selects the posting-storage core. The compressed core
// (default) stores each list as delta+varint blocks with a skip table
// (postings.go); the plain core keeps sorted []int32 slices and serves as
// the equivalence oracle for the compressed one. Everything observable —
// retrieval output, DocFreq, relaxation, Stats — is bit-identical across
// the two.
type IndexOptions struct {
	// Compressed selects the block-compressed postings core.
	Compressed bool
}

// DefaultOptions returns the production configuration: compressed postings.
func DefaultOptions() IndexOptions { return IndexOptions{Compressed: true} }

// Index is the inverted index of one sub-collection.
type Index struct {
	coll *corpus.Collection
	sub  int

	// Exactly one of the two postings stores is populated.
	// postings maps a stem to the sorted list of local doc offsets (plain
	// core); comp maps a stem to its compressed block list (compressed core).
	postings map[string][]int32
	comp     map[string]*compList
	docs     []*corpus.Document

	indexBytes int // real bytes of the postings structures

	// cache memoizes Boolean relaxation results per keyword set (cache.go).
	cache *relaxCache
}

// Build constructs the inverted index for sub-collection sub with the
// default options (compressed postings).
func Build(c *corpus.Collection, sub int) *Index {
	return BuildWith(c, sub, DefaultOptions())
}

// BuildWith constructs the inverted index for sub-collection sub with an
// explicit posting-core selection.
func BuildWith(c *corpus.Collection, sub int, opts IndexOptions) *Index {
	ix := &Index{
		coll:  c,
		sub:   sub,
		docs:  c.Subs[sub].Docs,
		cache: newRelaxCache(defaultRelaxCacheCap),
	}
	// Postings are gathered by term ID over the paragraphs' distinct terms:
	// a first pass sizes every list, a second fills them from one slab.
	// lastDoc[id] is 1 + the last local doc offset counted for id.
	lastDoc := make([]int32, c.NumTerms()+1)
	df := make([]int32, len(lastDoc))
	total := 0
	for local, doc := range ix.docs {
		for _, p := range doc.Paragraphs {
			for _, id := range p.Terms {
				if lastDoc[id] != int32(local)+1 {
					lastDoc[id] = int32(local) + 1
					df[id]++
					total++
				}
			}
		}
	}
	slab := make([]int32, 0, total)
	lists := make([][]int32, len(lastDoc))
	terms := 0
	for id, n := range df {
		if n > 0 {
			lists[id] = slab[len(slab) : len(slab) : len(slab)+int(n)]
			slab = slab[:len(slab)+int(n)]
			terms++
		}
	}
	clear(lastDoc)
	for local, doc := range ix.docs {
		for _, p := range doc.Paragraphs {
			for _, id := range p.Terms {
				if lastDoc[id] != int32(local)+1 {
					lastDoc[id] = int32(local) + 1
					lists[id] = append(lists[id], int32(local))
				}
			}
		}
	}
	if opts.Compressed {
		ix.comp = make(map[string]*compList, terms)
	} else {
		ix.postings = make(map[string][]int32, terms)
	}
	for id, list := range lists {
		if len(list) == 0 {
			continue
		}
		stem := c.TermStem(uint32(id))
		if opts.Compressed {
			ix.comp[stem] = compressPostings(list)
		} else {
			ix.postings[stem] = list
		}
	}
	ix.recomputeIndexBytes()
	return ix
}

// recomputeIndexBytes derives indexBytes from the live postings structures.
// Called at build time AND after snapshot load, so a reloaded index reports
// the same memory figure a fresh build would (the figure is never persisted;
// see persist.go).
func (ix *Index) recomputeIndexBytes() {
	total := 0
	if ix.comp != nil {
		for stem, cl := range ix.comp {
			total += len(stem) + cl.sizeBytes()
		}
	} else {
		for stem, list := range ix.postings {
			total += len(stem) + 4*len(list)
		}
	}
	ix.indexBytes = total
}

// Sub returns the sub-collection id this index covers.
func (ix *Index) Sub() int { return ix.sub }

// Compressed reports whether this index uses the compressed postings core.
func (ix *Index) Compressed() bool { return ix.comp != nil }

// Terms reports the number of distinct indexed stems.
func (ix *Index) Terms() int {
	if ix.comp != nil {
		return len(ix.comp)
	}
	return len(ix.postings)
}

// IndexBytes reports the real size of the postings structures.
func (ix *Index) IndexBytes() int { return ix.indexBytes }

// DocFreq reports how many documents of this sub-collection contain stem.
func (ix *Index) DocFreq(stem string) int {
	if ix.comp != nil {
		if cl := ix.comp[stem]; cl != nil {
			return int(cl.df)
		}
		return 0
	}
	return len(ix.postings[stem])
}

// EachTerm calls f once per indexed stem with its document frequency, in
// unspecified order. It is the vocabulary-enumeration seam the shard term
// summaries (shard.BuildSummary) are built from; the postings themselves
// stay private.
func (ix *Index) EachTerm(f func(stem string, df int)) {
	if ix.comp != nil {
		for stem, cl := range ix.comp {
			f(stem, int(cl.df))
		}
		return
	}
	for stem, list := range ix.postings {
		f(stem, len(list))
	}
}

// Retrieved is one paragraph extracted by retrieval, with the number of
// distinct query keywords it contains.
type Retrieved struct {
	Para    *corpus.Paragraph
	Matched int
}

// Stats describes the work one retrieval performed, for virtual cost
// accounting.
type Stats struct {
	// KeywordsUsed is the number of keywords remaining after relaxation.
	KeywordsUsed int
	// DocsMatched is the number of documents satisfying the Boolean query.
	DocsMatched int
	// ParagraphsScanned counts paragraphs examined during extraction.
	ParagraphsScanned int
	// RealBytesTouched is the real text + postings bytes this retrieval
	// read; multiply by the collection scale for virtual disk traffic.
	RealBytesTouched int
}

// RetrieveParagraphs runs the Boolean query for the given keyword stems and
// extracts matching paragraphs from the matching documents. A paragraph
// qualifies if it contains at least half (rounded up) of the original
// keywords.
//
// The Boolean-with-relaxation phase runs on sorted postings with a
// merge/galloping intersection over pooled scratch buffers, and its result
// is memoized in a small per-index LRU keyed by the (deduplicated, ordered)
// keyword set — repeated and near-identical questions skip the relaxation
// loop entirely. The reported Stats are byte-identical whether the result
// came from the cache or a fresh evaluation: the virtual disk charge models
// the reads the Boolean engine logically performs, not host-side memoization
// luck, so the simulator's cost accounting stays reproducible.
func (ix *Index) RetrieveParagraphs(keywords []string) ([]Retrieved, Stats) {
	var st Stats
	if len(keywords) == 0 {
		return nil, st
	}
	// Deduplicate while preserving order.
	sc := scratchPool.Get().(*scratch)
	kws := dedupInto(sc.kws[:0], keywords)
	sc.kws = kws

	// Charge postings reads for every keyword we look at.
	for _, k := range kws {
		st.RealBytesTouched += len(k) + 4*ix.DocFreq(k)
	}

	// Boolean AND with relaxation, memoized per keyword set.
	key := cacheKey(sc.key[:0], kws)
	sc.key = key
	rr, ok := ix.cache.get(key)
	if !ok {
		rr = ix.relax(kws, sc)
		ix.cache.put(key, rr)
	}
	st.KeywordsUsed = len(rr.active)
	st.DocsMatched = len(rr.docs)

	// Paragraph extraction from matched documents: keyword presence is a
	// search of each paragraph's sorted term IDs. A keyword the collection
	// never saw resolves to ID 0, which no paragraph holds.
	ids := sc.ids[:0]
	for _, k := range kws {
		ids = append(ids, ix.coll.TermID(k))
	}
	sc.ids = ids
	need := (len(kws) + 1) / 2
	if need < 1 {
		need = 1
	}
	scan := 0
	for _, local := range rr.docs {
		doc := ix.docs[local]
		st.RealBytesTouched += doc.RealBytes
		scan += len(doc.Paragraphs)
	}
	st.ParagraphsScanned = scan
	var out []Retrieved
	for _, local := range rr.docs {
		for _, p := range ix.docs[local].Paragraphs {
			matched := 0
			for _, id := range ids {
				if _, ok := slices.BinarySearch(p.Terms, id); ok {
					matched++
				}
			}
			if matched >= need {
				if out == nil {
					out = make([]Retrieved, 0, scan)
				}
				out = append(out, Retrieved{Para: p, Matched: matched})
			}
		}
	}
	scratchPool.Put(sc)
	return out, st
}

// relaxResult is one memoized Boolean evaluation: the keywords surviving
// relaxation (in query order) and the matching local doc offsets. Both
// slices are owned by the cache and must be treated as immutable.
type relaxResult struct {
	active []string
	docs   []int32
}

// relax runs the Boolean AND with relaxation: drop the most restrictive
// (lowest document frequency) keyword while too few documents match.
func (ix *Index) relax(kws []string, sc *scratch) relaxResult {
	active := append(sc.active[:0], kws...)
	var docs []int32
	for {
		docs = ix.intersect(active, sc)
		if len(docs) >= MinDocs || len(active) <= 1 {
			break
		}
		drop := 0
		for i := 1; i < len(active); i++ {
			if ix.DocFreq(active[i]) < ix.DocFreq(active[drop]) {
				drop = i
			}
		}
		active = append(active[:drop], active[drop+1:]...)
	}
	sc.active = active[:0]
	// Copy out of the scratch buffers: the returned result outlives this
	// call (it is cached), the scratch does not.
	return relaxResult{
		active: append([]string(nil), active...),
		docs:   append([]int32(nil), docs...),
	}
}

// scratch holds the per-retrieval working buffers, pooled so steady-state
// retrieval performs no intersection allocations.
type scratch struct {
	kws    []string
	ids    []uint32
	active []string
	key    []byte
	lists  [][]int32
	bufA   []int32
	bufB   []int32
	// Compressed-core working state: the per-query list selection and the
	// block-decode cursor (whose buffer is the single pooled scratch that
	// keeps steady-state block decode inside the alloc pin).
	comps []*compList
	cur   compCursor
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// intersect returns the sorted doc offsets containing every stem in kws.
// The result may alias sc's buffers or a postings list; callers must copy
// it before sc is reused.
func (ix *Index) intersect(kws []string, sc *scratch) []int32 {
	if ix.comp != nil {
		return ix.intersectCompressed(kws, sc)
	}
	if len(kws) == 0 {
		return nil
	}
	sc.lists = sc.lists[:0]
	for _, k := range kws {
		l := ix.postings[k]
		if len(l) == 0 {
			return nil
		}
		sc.lists = append(sc.lists, l)
	}
	// Intersect in ascending length order: the running result can only
	// shrink, so starting small bounds every later merge.
	sort.Slice(sc.lists, func(i, j int) bool { return len(sc.lists[i]) < len(sc.lists[j]) })
	result := sc.lists[0]
	a, b := sc.bufA, sc.bufB
	for _, list := range sc.lists[1:] {
		a = intersectInto(a[:0], result, list)
		result = a
		a, b = b, a
		if len(result) == 0 {
			break
		}
	}
	sc.bufA, sc.bufB = a, b
	return result
}

// intersectCompressed is the compressed-core twin of intersect: it decodes
// the shortest (lowest-df) list fully as the candidate seed, then runs each
// longer list through a skip-seeking cursor that decompresses only the
// blocks a surviving candidate can land in. The result is the same sorted
// intersection the plain core produces — set intersection is independent of
// operand order and representation — and may alias sc's buffers; callers
// must copy it before sc is reused.
func (ix *Index) intersectCompressed(kws []string, sc *scratch) []int32 {
	if len(kws) == 0 {
		return nil
	}
	sc.comps = sc.comps[:0]
	for _, k := range kws {
		cl := ix.comp[k]
		if cl == nil || cl.df == 0 {
			return nil
		}
		sc.comps = append(sc.comps, cl)
	}
	// Ascending document frequency: the running result can only shrink, so
	// seeding with the rarest term bounds every later cursor walk. Insertion
	// sort — keyword sets are a handful of terms, and sort.Slice would cost
	// two allocations per query that the alloc pin forbids.
	for i := 1; i < len(sc.comps); i++ {
		for j := i; j > 0 && sc.comps[j].df < sc.comps[j-1].df; j-- {
			sc.comps[j], sc.comps[j-1] = sc.comps[j-1], sc.comps[j]
		}
	}
	a := sc.comps[0].decodeAll(sc.bufA[:0])
	b := sc.bufB
	result := a
	for _, cl := range sc.comps[1:] {
		b = intersectComp(b[:0], result, cl, &sc.cur)
		result = b
		a, b = b, a
		if len(result) == 0 {
			break
		}
	}
	sc.bufA, sc.bufB = a, b
	return result
}

// gallopRatio is the length skew at which the intersection switches from a
// linear merge to galloping search in the longer list.
const gallopRatio = 16

// intersectInto appends the intersection of sorted lists a and b to dst
// (len(a) <= len(b) is assumed by the galloping branch's profitability, not
// required for correctness).
func intersectInto(dst, a, b []int32) []int32 {
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		// Galloping: for each element of the short list, exponential-probe
		// then binary-search the long list — O(len(a)·log(len(b)/len(a)))
		// instead of O(len(a)+len(b)).
		j := 0
		for _, x := range a {
			j += gallop(b[j:], x)
			if j >= len(b) {
				break
			}
			if b[j] == x {
				dst = append(dst, x)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// gallop returns the index of the first element of sorted s that is >= x,
// probing exponentially from the front and binary-searching the bracketed
// range.
func gallop(s []int32, x int32) int {
	hi := 1
	for hi < len(s) && s[hi-1] < x {
		hi <<= 1
	}
	lo := hi >> 1
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dedupInto appends the distinct non-empty keywords to dst in first-seen
// order. Question keyword sets are small (a handful of stems), so a linear
// scan beats allocating a set per query.
func dedupInto(dst, ws []string) []string {
	for _, w := range ws {
		if w == "" {
			continue
		}
		seen := false
		for _, d := range dst {
			if d == w {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, w)
		}
	}
	return dst
}

// dedup returns the distinct non-empty keywords in first-seen order
// (allocating convenience wrapper around dedupInto).
func dedup(ws []string) []string { return dedupInto(nil, ws) }

// cacheKey appends the canonical cache key of an ordered keyword set to dst
// (keywords joined by a separator that cannot appear in a stem).
func cacheKey(dst []byte, kws []string) []byte {
	for i, k := range kws {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = append(dst, k...)
	}
	return dst
}

// Set is a collection's index: one Index per held sub-collection. A full
// set (BuildAll) holds every sub-collection; a shard-scoped set (BuildSubset)
// holds only the subs assigned to a node's shards. Indexes are addressed by
// their *global* sub-collection id — for full sets that is the positional
// index, so pre-sharding callers are unchanged.
type Set struct {
	Coll    *corpus.Collection
	Indexes []*Index

	// globals[i] is the global sub-collection id of Indexes[i], always
	// strictly increasing. byGlobal is the reverse lookup; nil for full sets
	// (where global id == position and no map is needed).
	globals  []int
	byGlobal map[int]*Index

	// closer releases the mmap backing of a LoadMapped set; nil otherwise.
	closer func() error
}

// Close releases any resources backing the set (the mmap of a LoadMapped
// snapshot). The set must not be queried after Close; it is a no-op for
// built and stream-loaded sets.
func (s *Set) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c()
}

// BuildAll indexes every sub-collection of c with the default options.
func BuildAll(c *corpus.Collection) *Set {
	return BuildAllWith(c, DefaultOptions())
}

// BuildAllWith indexes every sub-collection of c with an explicit
// posting-core selection.
func BuildAllWith(c *corpus.Collection, opts IndexOptions) *Set {
	s := &Set{Coll: c}
	for i := range c.Subs {
		s.Indexes = append(s.Indexes, BuildWith(c, i, opts))
		s.globals = append(s.globals, i)
	}
	return s
}

// BuildSubset indexes only the named sub-collections of c (global ids,
// strictly increasing). This is the shard-scoped build: a node holding
// shards covering subs {1,3} indexes those two subs and nothing else.
func BuildSubset(c *corpus.Collection, subs []int) *Set {
	return BuildSubsetWith(c, subs, DefaultOptions())
}

// BuildSubsetWith is BuildSubset with an explicit posting-core selection.
func BuildSubsetWith(c *corpus.Collection, subs []int, opts IndexOptions) *Set {
	indexes := make([]*Index, 0, len(subs))
	for _, sub := range subs {
		indexes = append(indexes, BuildWith(c, sub, opts))
	}
	return SetFrom(c, indexes)
}

// SetFrom composes a Set from prebuilt per-sub indexes (already sorted by
// ascending global sub id). It panics on out-of-order input: a Set's
// iteration order is the global sub order, which downstream merge logic
// relies on for byte-identical cost folding.
func SetFrom(c *corpus.Collection, indexes []*Index) *Set {
	s := &Set{Coll: c, Indexes: indexes}
	full := len(indexes) == len(c.Subs)
	for i, ix := range indexes {
		if i > 0 && ix.sub <= indexes[i-1].sub {
			panic("index: SetFrom indexes not strictly increasing by sub id")
		}
		s.globals = append(s.globals, ix.sub)
		if full && ix.sub != i {
			full = false
		}
	}
	if !full {
		s.byGlobal = make(map[int]*Index, len(indexes))
		for _, ix := range indexes {
			s.byGlobal[ix.sub] = ix
		}
	}
	return s
}

// Sub returns the index of global sub-collection id sub. For full sets this
// is positional (the pre-sharding behaviour); shard-scoped sets look the id
// up. Asking for a sub the set does not hold panics — callers gate with Has.
func (s *Set) Sub(sub int) *Index {
	if s.byGlobal == nil {
		return s.Indexes[sub]
	}
	ix, ok := s.byGlobal[sub]
	if !ok {
		panic(fmt.Sprintf("index: set does not hold sub-collection %d", sub))
	}
	return ix
}

// Has reports whether the set holds the index for global sub-collection sub.
func (s *Set) Has(sub int) bool {
	if s.byGlobal == nil {
		return sub >= 0 && sub < len(s.Indexes)
	}
	_, ok := s.byGlobal[sub]
	return ok
}

// Globals returns the global sub-collection ids this set holds, ascending.
// Callers must not mutate the returned slice.
func (s *Set) Globals() []int { return s.globals }

// Full reports whether the set covers every sub-collection of its
// collection.
func (s *Set) Full() bool { return len(s.Indexes) == len(s.Coll.Subs) && s.byGlobal == nil }

// Len returns the number of sub-collections this set holds.
func (s *Set) Len() int { return len(s.Indexes) }

// IndexBytes reports the total real size of the postings structures across
// every held sub-collection (the figure qactl -status surfaces per node).
func (s *Set) IndexBytes() int {
	total := 0
	for _, ix := range s.Indexes {
		total += ix.indexBytes
	}
	return total
}
