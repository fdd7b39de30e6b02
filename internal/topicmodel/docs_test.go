package topicmodel

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
)

// origin is a clique's (segment, span) in its corpus document.
type origin struct {
	seg int
	sp  segment.Span
}

// storedOrigins is how documents carried their origins before they
// were flat: each clique's (segment, span) recorded as the document
// was cut, from the segmentation's spans or, with segs nil, one token
// at a time as DocsUnigram cuts. It is the oracle EachOrigin's
// derivation is held to.
func storedOrigins(c *corpus.Corpus, segs []*segment.SegmentedDoc) [][]origin {
	var out [][]origin
	if segs == nil {
		for _, src := range c.Docs {
			var o []origin
			for si := range src.Segments {
				for t := range src.Segments[si].Len() {
					o = append(o, origin{si, segment.Span{Start: t, End: t + 1}})
				}
			}
			out = append(out, o)
		}
		return out
	}
	for _, sd := range segs {
		var o []origin
		for si, spans := range sd.Spans {
			for _, sp := range spans {
				o = append(o, origin{si, sp})
			}
		}
		out = append(out, o)
	}
	return out
}

// segmentCorpus mines and segments c.
func segmentCorpus(c *corpus.Corpus, minSupport int) []*segment.SegmentedDoc {
	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: minSupport, MaxLen: 8})
	return segment.NewSegmenter(mined, segment.Options{Alpha: 3, MaxPhraseLen: 8, Workers: 1}).SegmentCorpus(c)
}

// withEmptySegments rebuilds c with an empty segment before every
// segment and at the end of every document, and appends a document of
// empty segments only.
func withEmptySegments(t *testing.T, c *corpus.Corpus) *corpus.Corpus {
	t.Helper()
	raw, err := c.Raw()
	if err != nil {
		t.Fatal(err)
	}
	var counts, offs, lens []int32
	s := 0
	for _, n := range raw.SegCounts {
		for range n {
			offs, lens = append(offs, raw.SegOffs[s], raw.SegOffs[s]), append(lens, 0, raw.SegLens[s])
			s++
		}
		offs, lens = append(offs, 0), append(lens, 0)
		counts = append(counts, 2*n+1)
	}
	raw.SegCounts = append(counts, 2)
	raw.SegOffs, raw.SegLens = append(offs, 0, 0), append(lens, 0, 0)
	out, err := corpus.FromRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEachOriginMatchesStoredOrigins: the (segment, span) EachOrigin
// derives for every clique is the one the document used to store.
func TestEachOriginMatchesStoredOrigins(t *testing.T) {
	full := synth.GenerateCorpus(synth.Domains()["dblp-abstracts"](), synth.Options{Docs: 120, Seed: 7}, corpus.DefaultBuildOptions())
	heldOut := corpus.SplitDocumentCompletion(full, 0.2, 1).Train
	small := corpus.FromStrings([]string{"", "the and of", "alpha beta, the of; gamma", "alpha beta gamma, , beta", "alpha beta"},
		corpus.DefaultBuildOptions())
	empty := withEmptySegments(t, small)
	type tc struct {
		name string
		c    *corpus.Corpus
		segs []*segment.SegmentedDoc // nil: DocsUnigram
	}
	var cases []tc
	for _, c := range []struct {
		name       string
		c          *corpus.Corpus
		minSupport int
	}{{"segmented", full, 5}, {"held-out training split", heldOut, 5}, {"small", small, 1}, {"empty segments", empty, 1}} {
		cases = append(cases, tc{c.name, c.c, segmentCorpus(c.c, c.minSupport)}, tc{c.name + "/unigram", c.c, nil})
	}
	emptySegs, emptyDocs := 0, 0
	for _, d := range empty.Docs {
		if d.Len() == 0 {
			emptyDocs++
		}
		for i := range d.Segments {
			if d.Segments[i].Len() == 0 {
				emptySegs++
			}
		}
	}
	if emptySegs == 0 || emptyDocs < 3 {
		t.Fatalf("fixture has %d empty segments and %d empty documents", emptySegs, emptyDocs)
	}
	for _, tc := range cases {
		docs := DocsUnigram(tc.c)
		if tc.segs != nil {
			docs = DocsFromSegmentation(tc.c, tc.segs)
		}
		want := storedOrigins(tc.c, tc.segs)
		multi := 0
		for i := range docs {
			d := &docs[i]
			var got []origin
			ok := d.EachOrigin(tc.c.Docs[d.ID], func(g, seg int, sp segment.Span) {
				if g != len(got) {
					t.Fatalf("%s: doc %d: clique %d reported out of order", tc.name, i, g)
				}
				got = append(got, origin{seg, sp})
				if sp.Len() > 1 {
					multi++
				}
			})
			if !ok || !slices.Equal(got, want[i]) {
				t.Fatalf("%s: doc %d: EachOrigin = %v, %v; stored %v", tc.name, i, ok, got, want[i])
			}
		}
		if tc.name == "segmented" && multi == 0 {
			t.Fatalf("%s: no multi-word clique to place", tc.name)
		}
	}

	// A document placed against another corpus document gets no origins.
	docs := DocsUnigram(small)
	if docs[2].EachOrigin(small.Docs[3], func(int, int, segment.Span) { t.Fatal("fn called for a foreign document") }) {
		t.Fatal("EachOrigin placed a document in another document's segments")
	}
}

// TestDocsFromSegmentationAllocs: building the documents costs the same
// few allocations at any corpus size.
func TestDocsFromSegmentationAllocs(t *testing.T) {
	allocs := func(cliques int) float64 {
		texts := make([]string, cliques/10)
		for i := range texts {
			texts[i] = strings.Repeat(fmt.Sprintf("w%d ", i%50), 20)
		}
		c := corpus.FromStrings(texts, corpus.DefaultBuildOptions())
		segs := make([]*segment.SegmentedDoc, len(c.Docs))
		n := 0
		for i, src := range c.Docs {
			sd := &segment.SegmentedDoc{DocID: src.ID}
			for si := range src.Segments {
				var spans []segment.Span
				for t := 0; t < src.Segments[si].Len(); t += 2 {
					spans = append(spans, segment.Span{Start: t, End: min(t+2, src.Segments[si].Len())})
				}
				n += len(spans)
				sd.Spans = append(sd.Spans, spans)
			}
			segs[i] = sd
		}
		if n != cliques {
			t.Fatalf("fixture has %d cliques, want %d", n, cliques)
		}
		return testing.AllocsPerRun(5, func() { DocsFromSegmentation(c, segs) })
	}
	small, large := allocs(1000), allocs(100000)
	if small != large || large > 10 {
		t.Fatalf("DocsFromSegmentation made %v allocations at 1k cliques and %v at 100k", small, large)
	}
}

// TestDocsChecksumPinned: DocsChecksum walks the documents as it did
// before they were flat; the values were recorded by that build.
func TestDocsChecksumPinned(t *testing.T) {
	docs, _, _ := synthPhraseDocs(t, "dblp-titles", 300)
	c := synth.GenerateCorpus(synth.Domains()["20conf"](), synth.Options{Docs: 200, Seed: 7}, corpus.DefaultBuildOptions())
	if got := fmt.Sprintf("%08x %08x", DocsChecksum(docs), DocsChecksum(DocsUnigram(c))); got != "846d0178 42013446" {
		t.Fatalf("DocsChecksum = %s, recorded 846d0178 42013446", got)
	}
}

// TestLoadLegacySave: a Model.Save file written before documents were
// flat, whose Doc was {ID, Cliques, Origin}, loads to the model this
// build trains from the same input.
func TestLoadLegacySave(t *testing.T) {
	data, err := os.ReadFile("testdata/model_save_legacy.gob")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	docs, _, v := synthPhraseDocs(t, "20conf", 120)
	m := Train(docs, v, Options{K: 4, Iterations: 15, Seed: 9, OptimizeHyper: true, HyperEvery: 5, BurnIn: 1})
	var a, b bytes.Buffer
	if err := gobSave(&a, loaded); err != nil {
		t.Fatal(err)
	}
	if err := gobSave(&b, m); err != nil {
		t.Fatal(err)
	}
	if len(loaded.Docs) == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("the legacy file (%d docs) loads to a model that differs from a fresh training", len(loaded.Docs))
	}
}
