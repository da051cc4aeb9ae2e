package index

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"distqa/internal/corpus"
	"distqa/internal/nlp"
	"distqa/internal/wire"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := BuildAll(testColl)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(&buf, testColl)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("len = %d, want %d", loaded.Len(), orig.Len())
	}
	// Retrieval over the loaded set must be identical to the original.
	for _, f := range testColl.Facts[:8] {
		a := nlp.AnalyzeQuestion(f.Question)
		for sub := 0; sub < orig.Len(); sub++ {
			r1, s1 := orig.Sub(sub).RetrieveParagraphs(a.Keywords)
			r2, s2 := loaded.Sub(sub).RetrieveParagraphs(a.Keywords)
			if len(r1) != len(r2) || s1 != s2 {
				t.Fatalf("fact %d sub %d: results differ after reload (%d/%d, %+v/%+v)",
					f.ID, sub, len(r1), len(r2), s1, s2)
			}
			for i := range r1 {
				if r1[i].Para.ID != r2[i].Para.ID || r1[i].Matched != r2[i].Matched {
					t.Fatalf("fact %d sub %d: paragraph %d differs", f.ID, sub, i)
				}
			}
		}
	}
}

func TestLoadRejectsWrongCollection(t *testing.T) {
	orig := BuildAll(testColl)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	otherCfg := corpus.Tiny()
	otherCfg.Seed = 777
	other := corpus.Generate(otherCfg)
	if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("snapshot bound to a different collection should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot")), testColl); err == nil {
		t.Fatal("garbage input should fail to load")
	}
}

func TestSnapshotStatsPreserved(t *testing.T) {
	orig := BuildAll(testColl)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, testColl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Indexes {
		if loaded.Sub(i).Terms() != orig.Sub(i).Terms() {
			t.Fatalf("sub %d terms differ", i)
		}
		if loaded.Sub(i).IndexBytes() != orig.Sub(i).IndexBytes() {
			t.Fatalf("sub %d index bytes differ", i)
		}
	}
}

// parentSnapshot is the DQIX image of BuildAll(testColl) as written before
// stems were interned, when Save serialised the in-memory paraStems tables.
const parentSnapshot = "testdata/tiny-v2.dqix.gz"

func readParentSnapshot(t *testing.T) []byte {
	t.Helper()
	f, err := os.Open(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSaveReproducesParentSnapshot: Save now derives the paragraph stem
// tables from the collection's tokens; the container bytes must not change.
func TestSaveReproducesParentSnapshot(t *testing.T) {
	want := readParentSnapshot(t)
	for _, opts := range []IndexOptions{DefaultOptions(), {}} {
		var buf bytes.Buffer
		if err := BuildAllWith(testColl, opts).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("compressed=%v: Save wrote %d bytes that differ from the %d-byte parent snapshot",
				opts.Compressed, buf.Len(), len(want))
		}
	}
}

// TestLoadAcceptsParentSnapshot: a snapshot written before interning loads
// and retrieves exactly like a fresh build.
func TestLoadAcceptsParentSnapshot(t *testing.T) {
	loaded, err := Load(bytes.NewReader(readParentSnapshot(t)), testColl)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	fresh := BuildAll(testColl)
	for _, f := range testColl.Facts {
		kws := nlp.AnalyzeQuestion(f.Question).Keywords
		for sub := 0; sub < fresh.Len(); sub++ {
			r1, s1 := fresh.Sub(sub).RetrieveParagraphs(kws)
			r2, s2 := loaded.Sub(sub).RetrieveParagraphs(kws)
			if s1 != s2 || !reflect.DeepEqual(r1, r2) {
				t.Fatalf("fact %d sub %d: loaded snapshot retrieves differently", f.ID, sub)
			}
		}
	}
}

// TestLoadRejectsMismatchedStemTables: the stem tables are checked against
// the collection, so a snapshot whose tables disagree with the paragraphs'
// tokens is corrupt even when it is structurally well formed.
func TestLoadRejectsMismatchedStemTables(t *testing.T) {
	var buf bytes.Buffer
	if err := BuildAll(testColl).Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A second copy of the collection with one token re-pointed at another
	// stem of its paragraph: same identity, different stem counts.
	other := corpus.Generate(corpus.Tiny())
	p := other.Paragraph(3)
	j := 1
	for j < len(p.Tokens) && p.Tokens[j].Term == p.Tokens[0].Term {
		j++
	}
	p.Tokens[0].Term = p.Tokens[j].Term
	_, err := Load(bytes.NewReader(buf.Bytes()), other)
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("mismatched stem tables: err = %v, want ErrCorrupt", err)
	}
}
