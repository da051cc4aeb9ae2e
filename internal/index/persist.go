package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"distqa/internal/corpus"
	"distqa/internal/wire"
)

// On-disk index container ("DQIX" format, version 2 — version 1 was the gob
// snapshot this file replaces; old snapshots fail the magic check and the
// node's stale-snapshot path rebuilds them).
//
// Layout:
//
//	+-------+---------+-----------+------------------+-----+----------------+
//	| magic | version | headerLen | header (varint)  | pad | block regions  |
//	| 4 B   | 4 B LE  | 8 B LE    | headerLen B      |     | page-aligned   |
//	+-------+---------+-----------+------------------+-----+----------------+
//
// The header carries the collection identity, and per sub-collection index
// the sorted term dictionary (stem, df, data extent, skip table) and the
// paragraph→stem-count tables (stems referenced by dictionary ordinal, so
// every stem string is stored exactly once). The compressed posting blocks
// themselves live after the header in one contiguous region per index, each
// region aligned to pageSize: region i starts at the first page boundary at
// or after the end of region i-1 (the first at the page boundary after the
// header), so no absolute offsets need to be stored — both sides derive
// them from the region lengths.
//
// Loading parses and fully verifies the header and every posting block
// before accepting the file: after Load succeeds, query-time block decode
// cannot fail, which is what lets the intersection's decode paths treat
// errors as unreachable. Under LoadMapped the regions alias a read-only
// mmap, so the verification walk faults each page in once but the pages
// stay clean and evictable — the kernel can drop and re-fault them under
// memory pressure, which is how a shard-scoped index larger than RAM stays
// usable.

const (
	containerVersion = 2
	pageSize         = 4096
	// fixedHeader is the byte length of magic + version + headerLen.
	fixedHeader = 16
)

var containerMagic = [4]byte{'D', 'Q', 'I', 'X'}

// align rounds n up to the next pageSize multiple.
func align(n int64) int64 {
	return (n + pageSize - 1) &^ (pageSize - 1)
}

// savedList is the per-term save-side view: a compressed list plus its
// offset within the index's block region.
type savedList struct {
	stem string
	cl   *compList
	off  int64
}

// Save serialises the index set to w in the DQIX container format. Together
// with the collection's corpus.Config (which regenerates the collection
// bit-for-bit), a snapshot lets a node come up without paying the indexing
// cost. Plain-core sets compress on the fly: the on-disk format is always
// the block-compressed one, and the core selection is re-applied at load.
func (s *Set) Save(w io.Writer) error {
	// Stage every index's sorted dictionary and region layout first: the
	// header stores region lengths, so it must be encoded before any blocks
	// are written.
	type stagedIndex struct {
		ix        *Index
		lists     []savedList
		regionLen int64
	}
	staged := make([]*stagedIndex, 0, len(s.Indexes))
	for _, ix := range s.Indexes {
		st := &stagedIndex{ix: ix}
		if ix.comp != nil {
			st.lists = make([]savedList, 0, len(ix.comp))
			for stem, cl := range ix.comp {
				st.lists = append(st.lists, savedList{stem: stem, cl: cl})
			}
		} else {
			st.lists = make([]savedList, 0, len(ix.postings))
			for stem, list := range ix.postings {
				st.lists = append(st.lists, savedList{stem: stem, cl: compressPostings(list)})
			}
		}
		sort.Slice(st.lists, func(i, j int) bool { return st.lists[i].stem < st.lists[j].stem })
		for i := range st.lists {
			st.lists[i].off = st.regionLen
			st.regionLen += int64(len(st.lists[i].cl.data))
		}
		staged = append(staged, st)
	}

	// Encode the header.
	hdr := wire.GetBuffer()
	defer wire.PutBuffer(hdr)
	hdr.String(s.Coll.Name)
	hdr.Int64(s.Coll.Cfg.Seed)
	hdr.Uint64(uint64(len(s.Coll.Paragraphs())))
	hdr.Uint64(uint64(len(staged)))
	for _, st := range staged {
		hdr.Uint64(uint64(st.ix.sub))
		hdr.Uint64(uint64(st.regionLen))
		hdr.Uint64(uint64(len(st.lists)))
		for _, sl := range st.lists {
			hdr.String(sl.stem)
			hdr.Uint64(uint64(sl.cl.df))
			hdr.Uint64(uint64(sl.off))
			hdr.Uint64(uint64(len(sl.cl.data)))
			hdr.Uint64(uint64(len(sl.cl.skips)))
			for _, sk := range sl.cl.skips {
				hdr.Uint64(uint64(sk.max))
				hdr.Uint64(uint64(sk.off))
				hdr.Uint64(uint64(sk.n))
			}
		}
		// Paragraph stem tables, stems by dictionary ordinal, derived from
		// the collection's tokens. Paragraphs are emitted by ascending id
		// and each table by ascending ordinal, so the output is byte-stable.
		dict := make([]string, len(st.lists))
		for i, sl := range st.lists {
			dict[i] = sl.stem
		}
		tb := newTableBuilder(s.Coll, dict)
		paras := st.ix.paragraphs()
		hdr.Uint64(uint64(len(paras)))
		for _, p := range paras {
			table, ok := tb.table(p)
			if !ok {
				// Unreachable: every paragraph stem has a posting entry
				// by construction of Build.
				return fmt.Errorf("index: save: paragraph %d has a stem not in the term dictionary", p.ID)
			}
			hdr.Uint64(uint64(p.ID))
			hdr.Uint64(uint64(len(table)))
			for _, e := range table {
				hdr.Uint64(uint64(e.ord))
				hdr.Uint64(uint64(e.count))
			}
		}
	}

	// Emit: fixed prelude, header, then the page-aligned block regions.
	var fixed [fixedHeader]byte
	copy(fixed[:4], containerMagic[:])
	binary.LittleEndian.PutUint32(fixed[4:8], containerVersion)
	binary.LittleEndian.PutUint64(fixed[8:16], uint64(hdr.Len()))
	if _, err := w.Write(fixed[:]); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if _, err := w.Write(hdr.B); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	written := int64(fixedHeader + hdr.Len())
	pad := func(to int64) error {
		if to < written {
			return fmt.Errorf("index: save: layout bug (pad %d < written %d)", to, written)
		}
		var zeros [pageSize]byte
		for written < to {
			n := to - written
			if n > pageSize {
				n = pageSize
			}
			m, err := w.Write(zeros[:n])
			written += int64(m)
			if err != nil {
				return fmt.Errorf("index: save: %w", err)
			}
		}
		return nil
	}
	for _, st := range staged {
		if err := pad(align(written)); err != nil {
			return err
		}
		for _, sl := range st.lists {
			n, err := w.Write(sl.cl.data)
			written += int64(n)
			if err != nil {
				return fmt.Errorf("index: save: %w", err)
			}
		}
	}
	return nil
}

// Load deserialises an index set from r with the default options. It fails
// if the snapshot was built from a different collection (name, seed or
// paragraph count mismatch), names sub-collections the collection does not
// have, or fails structural verification anywhere. Shard-scoped snapshots
// (a strict subset of the sub-collections, strictly increasing) load the
// same way full ones do.
func Load(r io.Reader, c *corpus.Collection) (*Set, error) {
	return LoadWith(r, c, DefaultOptions())
}

// LoadWith is Load with an explicit posting-core selection: the on-disk
// blocks either alias into the loaded image (compressed core) or are decoded
// into plain sorted slices (plain core).
func LoadWith(r io.Reader, c *corpus.Collection, opts IndexOptions) (*Set, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	return parseContainer(buf, c, opts, nil)
}

// LoadMapped memory-maps the container at path and parses it in place: the
// posting-block regions alias the mapping, so block data is paged in on
// demand and stays evictable. The returned Set owns the mapping; call
// Set.Close when done with it. On platforms without mmap support the file
// is read into memory instead (same behaviour, no laziness).
func LoadMapped(path string, c *corpus.Collection) (*Set, error) {
	return LoadMappedWith(path, c, DefaultOptions())
}

// LoadMappedWith is LoadMapped with an explicit posting-core selection.
// Loading the plain core from a mapping would copy every block out and keep
// the mapping pinned for nothing, so plain loads read the file instead.
func LoadMappedWith(path string, c *corpus.Collection, opts IndexOptions) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	if !opts.Compressed {
		return LoadWith(f, c, opts)
	}
	data, closer, err := mmapFile(f)
	if err != nil {
		return nil, fmt.Errorf("index: load: mmap %s: %w", path, err)
	}
	s, err := parseContainer(data, c, opts, closer)
	if err != nil {
		closer()
		return nil, err
	}
	return s, nil
}

// parseContainer parses and fully verifies a DQIX container image. closer,
// when non-nil, releases the image's backing mapping and is attached to the
// returned Set.
func parseContainer(buf []byte, c *corpus.Collection, opts IndexOptions, closer func() error) (*Set, error) {
	if len(buf) < fixedHeader {
		return nil, fmt.Errorf("index: load: %w (short prelude)", wire.ErrTruncated)
	}
	if !bytes.Equal(buf[:4], containerMagic[:]) {
		return nil, fmt.Errorf("index: load: not a DQIX index container")
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != containerVersion {
		return nil, fmt.Errorf("index: load: container version %d, want %d", v, containerVersion)
	}
	headerLen := binary.LittleEndian.Uint64(buf[8:16])
	if headerLen > uint64(len(buf)-fixedHeader) {
		return nil, fmt.Errorf("index: load: %w (header length)", wire.ErrCorrupt)
	}
	hr := wire.NewReader(buf[fixedHeader : fixedHeader+int(headerLen)])

	name := hr.String()
	seed := hr.Int64()
	paragraphs := hr.Uint64()
	nindexes := hr.Uint64()
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	if name != c.Name || seed != c.Cfg.Seed {
		return nil, fmt.Errorf("index: snapshot is for collection %q (seed %d), not %q (seed %d)",
			name, seed, c.Name, c.Cfg.Seed)
	}
	if paragraphs != uint64(len(c.Paragraphs())) {
		return nil, fmt.Errorf("index: snapshot covers %d paragraphs, collection has %d",
			paragraphs, len(c.Paragraphs()))
	}
	if nindexes == 0 || nindexes > uint64(len(c.Subs)) {
		return nil, fmt.Errorf("index: snapshot has %d sub-collection indexes, collection has %d",
			nindexes, len(c.Subs))
	}

	regionCursor := align(int64(fixedHeader) + int64(headerLen))
	indexes := make([]*Index, 0, nindexes)
	var decodeBuf []int32
	for i := 0; i < int(nindexes); i++ {
		sub := hr.Uint64()
		regionLen := hr.Uint64()
		nterms := hr.Uint64()
		if err := hr.Err(); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if sub >= uint64(len(c.Subs)) {
			return nil, fmt.Errorf("index: snapshot names sub-collection %d, collection has %d", sub, len(c.Subs))
		}
		if i > 0 && int(sub) <= indexes[i-1].sub {
			return nil, fmt.Errorf("index: snapshot sub-collections out of order (%d after %d)",
				sub, indexes[i-1].sub)
		}
		regionOff := regionCursor
		if regionOff > int64(len(buf)) || regionLen > uint64(len(buf)) ||
			regionOff+int64(regionLen) > int64(len(buf)) {
			return nil, fmt.Errorf("index: load: %w (block region out of range)", wire.ErrCorrupt)
		}
		region := buf[regionOff : regionOff+int64(regionLen)]
		regionCursor = align(regionOff + int64(regionLen))

		ndocs := len(c.Subs[sub].Docs)
		// Minimum per-term header footprint: 1-byte stem length + 1 stem
		// byte + df + dataOff + dataLen + nskips ≥ 6 bytes. Bounds the term
		// count a corrupt header can demand.
		if nterms > uint64(hr.Remaining()/6+1) {
			return nil, fmt.Errorf("index: load: %w (term count)", wire.ErrCorrupt)
		}
		ix := &Index{
			coll:  c,
			sub:   int(sub),
			docs:  c.Subs[sub].Docs,
			cache: newRelaxCache(defaultRelaxCacheCap),
		}
		if opts.Compressed {
			ix.comp = make(map[string]*compList, nterms)
		} else {
			ix.postings = make(map[string][]int32, nterms)
		}
		dict := make([]string, 0, nterms)
		prevStem := ""
		for t := 0; t < int(nterms); t++ {
			stem := hr.String()
			df := hr.Uint64()
			dataOff := hr.Uint64()
			dataLen := hr.Uint64()
			nskips := hr.ListLen(3)
			if err := hr.Err(); err != nil {
				return nil, fmt.Errorf("index: load: %w", err)
			}
			if stem == "" || (t > 0 && stem <= prevStem) {
				return nil, fmt.Errorf("index: load: %w (term dictionary out of order)", wire.ErrCorrupt)
			}
			prevStem = stem
			if df == 0 || df > uint64(ndocs) {
				return nil, fmt.Errorf("index: load: %w (df %d of term %q, sub has %d docs)", wire.ErrCorrupt, df, stem, ndocs)
			}
			if dataLen > uint64(len(region)) || dataOff > uint64(len(region))-dataLen {
				return nil, fmt.Errorf("index: load: %w (term data out of range)", wire.ErrCorrupt)
			}
			cl := &compList{
				df:   int32(df),
				data: region[dataOff : dataOff+dataLen : dataOff+dataLen],
			}
			wantBlocks := (int(df) + wire.PostingBlockSize - 1) / wire.PostingBlockSize
			if int(df) <= wire.PostingBlockSize {
				if nskips != 0 {
					return nil, fmt.Errorf("index: load: %w (skip table on single-block list)", wire.ErrCorrupt)
				}
			} else if nskips != wantBlocks {
				return nil, fmt.Errorf("index: load: %w (%d skip entries for df %d)", wire.ErrCorrupt, nskips, df)
			}
			if nskips > 0 {
				cl.skips = make([]skipEntry, nskips)
				remaining := int(df)
				for s := 0; s < nskips; s++ {
					max := hr.Uint64()
					off := hr.Uint64()
					n := hr.Uint64()
					if err := hr.Err(); err != nil {
						return nil, fmt.Errorf("index: load: %w", err)
					}
					want := wire.PostingBlockSize
					if remaining < want {
						want = remaining
					}
					if max >= uint64(ndocs) || off > dataLen || n != uint64(want) {
						return nil, fmt.Errorf("index: load: %w (skip entry of term %q)", wire.ErrCorrupt, stem)
					}
					if s == 0 && off != 0 {
						return nil, fmt.Errorf("index: load: %w (first block not at offset 0)", wire.ErrCorrupt)
					}
					if s > 0 && (off <= uint64(cl.skips[s-1].off) || max <= uint64(cl.skips[s-1].max)) {
						return nil, fmt.Errorf("index: load: %w (skip table not increasing)", wire.ErrCorrupt)
					}
					cl.skips[s] = skipEntry{max: int32(max), off: uint32(off), n: uint16(n)}
					remaining -= want
				}
			}
			// Structural verification: decode every block now so query-time
			// decode can never fail, checking counts, monotonicity across
			// blocks, the doc-id ceiling and the recorded per-block maxima.
			decodeBuf = decodeBuf[:0]
			for bi, nb := 0, cl.blocks(); bi < nb; bi++ {
				mark := len(decodeBuf)
				var err error
				decodeBuf, err = wire.DecodePostingBlock(decodeBuf, cl.blockBytes(bi), cl.blockCount(bi))
				if err != nil {
					return nil, fmt.Errorf("index: load: term %q block %d: %w", stem, bi, err)
				}
				if mark > 0 && decodeBuf[mark] <= decodeBuf[mark-1] {
					return nil, fmt.Errorf("index: load: %w (doc ids not increasing across blocks of %q)", wire.ErrCorrupt, stem)
				}
				last := decodeBuf[len(decodeBuf)-1]
				if int(last) >= ndocs {
					return nil, fmt.Errorf("index: load: %w (doc id %d of term %q, sub has %d docs)", wire.ErrCorrupt, last, stem, ndocs)
				}
				if cl.skips != nil && last != cl.skips[bi].max {
					return nil, fmt.Errorf("index: load: %w (block max mismatch of term %q)", wire.ErrCorrupt, stem)
				}
			}
			if len(decodeBuf) != int(df) {
				return nil, fmt.Errorf("index: load: %w (decoded %d docs of term %q, df %d)", wire.ErrCorrupt, len(decodeBuf), stem, df)
			}
			dict = append(dict, stem)
			if opts.Compressed {
				ix.comp[stem] = cl
			} else {
				ix.postings[stem] = append([]int32(nil), decodeBuf...)
			}
		}

		// Paragraph stem tables: retrieval reads each paragraph's stems
		// from the collection (corpus.Paragraph.Terms), so the tables are
		// not kept — only checked to be exactly the ones Save derives from
		// the collection for this dictionary.
		if err := checkParaTables(&hr, ix, newTableBuilder(c, dict)); err != nil {
			return nil, err
		}
		// The memory figure is never persisted: recompute it so a reloaded
		// index reports exactly what a fresh build would (the old gob format
		// stored the build-time figure and let it drift from the loaded
		// structures).
		ix.recomputeIndexBytes()
		indexes = append(indexes, ix)
	}
	if hr.Remaining() != 0 {
		return nil, fmt.Errorf("index: load: %w (trailing header bytes)", wire.ErrCorrupt)
	}
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	s := SetFrom(c, indexes)
	s.closer = closer
	return s, nil
}

// paragraphs returns the paragraphs of the index's sub-collection in
// ascending id order.
func (ix *Index) paragraphs() []*corpus.Paragraph {
	var out []*corpus.Paragraph
	for _, doc := range ix.docs {
		out = append(out, doc.Paragraphs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// stemCount is one entry of a paragraph stem table: a stem, by its ordinal
// in the index's sorted term dictionary, and its occurrence count in the
// paragraph.
type stemCount struct {
	ord, count int
}

// tableBuilder derives paragraph stem tables from a collection's tokens
// against one sorted term dictionary.
type tableBuilder struct {
	// ords maps a term ID to its dictionary ordinal, -1 when the
	// dictionary lacks the stem.
	ords []int
	// counts is per-term-ID occurrence scratch, all zero between calls.
	counts []int
	buf    []stemCount
}

func newTableBuilder(c *corpus.Collection, dict []string) *tableBuilder {
	tb := &tableBuilder{ords: make([]int, c.NumTerms()+1), counts: make([]int, c.NumTerms()+1)}
	for i := range tb.ords {
		tb.ords[i] = -1
	}
	for i, stem := range dict {
		if id := c.TermID(stem); id != 0 {
			tb.ords[id] = i
		}
	}
	return tb
}

// table returns p's stem table, ordinals ascending, or false if one of its
// stems is missing from the dictionary. The result is reused by the next
// call.
func (tb *tableBuilder) table(p *corpus.Paragraph) ([]stemCount, bool) {
	for _, t := range p.Tokens {
		tb.counts[t.Term]++
	}
	tb.buf = tb.buf[:0]
	ok := true
	for _, id := range p.Terms {
		if tb.ords[id] < 0 {
			ok = false
		}
		tb.buf = append(tb.buf, stemCount{ord: tb.ords[id], count: tb.counts[id]})
	}
	for _, t := range p.Tokens {
		tb.counts[t.Term] = 0
	}
	sort.Slice(tb.buf, func(i, j int) bool { return tb.buf[i].ord < tb.buf[j].ord })
	return tb.buf, ok
}

// checkParaTables reads an index's paragraph stem tables from hr and
// rejects them as corrupt unless they are exactly the tables Save derives
// from the collection: every paragraph of the sub-collection, by ascending
// id, each with its full (ordinal, count) table.
func checkParaTables(hr *wire.Reader, ix *Index, tb *tableBuilder) error {
	paras := ix.paragraphs()
	nparas := hr.ListLen(2)
	if err := hr.Err(); err != nil {
		return fmt.Errorf("index: load: %w", err)
	}
	if nparas != len(paras) {
		return fmt.Errorf("index: load: %w (%d paragraph tables, sub has %d paragraphs)", wire.ErrCorrupt, nparas, len(paras))
	}
	for _, p := range paras {
		id := hr.Uint64()
		nstems := hr.ListLen(2)
		if err := hr.Err(); err != nil {
			return fmt.Errorf("index: load: %w", err)
		}
		if id != uint64(p.ID) {
			return fmt.Errorf("index: load: %w (paragraph table %d, want %d)", wire.ErrCorrupt, id, p.ID)
		}
		want, ok := tb.table(p)
		if !ok || nstems != len(want) {
			return fmt.Errorf("index: load: %w (paragraph %d stem table)", wire.ErrCorrupt, id)
		}
		for _, e := range want {
			ord := hr.Uint64()
			count := hr.Uint64()
			if err := hr.Err(); err != nil {
				return fmt.Errorf("index: load: %w", err)
			}
			if ord != uint64(e.ord) || count != uint64(e.count) {
				return fmt.Errorf("index: load: %w (paragraph %d stem table)", wire.ErrCorrupt, id)
			}
		}
	}
	return nil
}
