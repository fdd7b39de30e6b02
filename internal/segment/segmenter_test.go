package segment

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/phrasemine"
	"topmine/internal/synth"
	"topmine/internal/textproc"
)

func minedFromDocs(docs []string, minSupport int) (*corpus.Corpus, *phrasemine.Result) {
	c := corpus.FromStrings(docs, corpus.DefaultBuildOptions())
	return c, phrasemine.Mine(c, phrasemine.Options{MinSupport: minSupport, MaxLen: 8})
}

func repeat(docs []string, n int) []string {
	out := make([]string, 0, len(docs)*n)
	for i := 0; i < n; i++ {
		out = append(out, docs...)
	}
	return out
}

func TestTStatKnownValue(t *testing.T) {
	// f1=f2=10, f12=10, L=1000: mu=0.1, sig=(10-0.1)/sqrt(10).
	got := TStat(10, 10, 10, 1000)
	want := (10 - 0.1) / math.Sqrt(10)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TStat = %v, want %v", got, want)
	}
}

func TestScoreFuncsUnobservedAreNegInf(t *testing.T) {
	for name, f := range map[string]ScoreFunc{"tstat": TStat, "pmi": PMI, "chi": ChiSquare} {
		if got := f(10, 10, 0, 1000); !math.IsInf(got, -1) {
			t.Errorf("%s(f12=0) = %v, want -Inf", name, got)
		}
	}
}

func TestTStatIndependencePairScoresLow(t *testing.T) {
	// A pair occurring exactly as often as chance predicts scores ~0.
	mu := 100.0 * 100.0 / 10000.0 // = 1
	got := TStat(100, 100, 1, 10000)
	if math.Abs(got-(1-mu)/1) > 1e-9 {
		t.Fatalf("independent pair score = %v, want 0", got)
	}
}

func TestPartitionCoversSegment(t *testing.T) {
	docs := repeat([]string{"support vector machines classify documents"}, 8)
	c, mined := minedFromDocs(docs, 5)
	seg := NewSegmenter(mined, Options{Alpha: 4, MaxPhraseLen: 8, Workers: 1})
	words := c.Docs[0].Segments[0].Words()
	spans := seg.Partition(words)
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	pos := 0
	for _, sp := range spans {
		if sp.Start != pos {
			t.Fatalf("gap or overlap at %d: %+v", pos, spans)
		}
		if sp.End <= sp.Start {
			t.Fatalf("empty span: %+v", sp)
		}
		pos = sp.End
	}
	if pos != len(words) {
		t.Fatalf("partition ends at %d, segment has %d tokens", pos, len(words))
	}
}

func TestPartitionMergesPlantedPhrase(t *testing.T) {
	docs := repeat([]string{
		"support vector machines rock",
		"we love support vector machines",
		"support vector machines win prizes",
		"novel kernels beat support vector machines",
		"deep kernels for support vector machines",
	}, 4)
	c, mined := minedFromDocs(docs, 5)
	seg := NewSegmenter(mined, Options{Alpha: 3, MaxPhraseLen: 8, Workers: 1})
	sd := seg.SegmentDocument(c.Docs[0])
	// The first segment is "support vector machines rock"; the planted
	// trigram must come out as one span and "rock" as another.
	spans := sd.Spans[0]
	var got []int
	for _, sp := range spans {
		got = append(got, sp.Len())
	}
	if len(spans) != 2 || spans[0].Len() != 3 {
		t.Fatalf("spans lengths = %v, want [3 1]", got)
	}
}

func TestPartitionHighAlphaKeepsSingletons(t *testing.T) {
	docs := repeat([]string{"alpha beta gamma"}, 10)
	c, mined := minedFromDocs(docs, 5)
	seg := NewSegmenter(mined, Options{Alpha: math.Inf(1), Workers: 1})
	spans := seg.Partition(c.Docs[0].Segments[0].Words())
	if len(spans) != 3 {
		t.Fatalf("alpha=+Inf should yield singletons, got %+v", spans)
	}
}

func TestPartitionSingleToken(t *testing.T) {
	docs := repeat([]string{"alpha"}, 6)
	c, mined := minedFromDocs(docs, 5)
	seg := NewSegmenter(mined, DefaultOptions())
	spans := seg.Partition(c.Docs[0].Segments[0].Words())
	if len(spans) != 1 || spans[0] != (Span{0, 1}) {
		t.Fatalf("single-token partition = %+v", spans)
	}
}

func TestPartitionEmptySegment(t *testing.T) {
	_, mined := minedFromDocs(repeat([]string{"alpha"}, 6), 5)
	seg := NewSegmenter(mined, DefaultOptions())
	if spans := seg.Partition(nil); spans != nil {
		t.Fatalf("empty segment partition = %+v, want nil", spans)
	}
}

func TestPartitionRespectsMaxPhraseLen(t *testing.T) {
	docs := repeat([]string{"alpha beta gamma delta"}, 12)
	c, mined := minedFromDocs(docs, 5)
	seg := NewSegmenter(mined, Options{Alpha: 0.5, MaxPhraseLen: 2, Workers: 1})
	spans := seg.Partition(c.Docs[0].Segments[0].Words())
	for _, sp := range spans {
		if sp.Len() > 2 {
			t.Fatalf("span exceeds MaxPhraseLen: %+v", spans)
		}
	}
}

func TestPartitionMergesWholeFrequentSegment(t *testing.T) {
	// A segment that always repeats verbatim should collapse entirely
	// when alpha is low.
	docs := repeat([]string{"alpha beta gamma delta"}, 12)
	c, mined := minedFromDocs(docs, 5)
	seg := NewSegmenter(mined, Options{Alpha: 0.5, MaxPhraseLen: 8, Workers: 1})
	spans := seg.Partition(c.Docs[0].Segments[0].Words())
	if len(spans) != 1 || spans[0].Len() != 4 {
		t.Fatalf("expected single 4-token phrase, got %+v", spans)
	}
}

func TestPartitionFreeRiderResisted(t *testing.T) {
	// "data mining" is a strong collocation; "conference" co-occurs with
	// it only occasionally. With enough independent occurrences of
	// "conference", the merge of ("data mining", "conference") must
	// score below the pair's own strength and stay separate.
	docs := append(
		repeat([]string{"data mining conference"}, 3),
		append(repeat([]string{"data mining advances rapidly"}, 30),
			repeat([]string{"the conference venue changed", "another conference happened"}, 30)...)...)
	c, mined := minedFromDocs(docs, 3)
	seg := NewSegmenter(mined, Options{Alpha: 4, MaxPhraseLen: 8, Workers: 1})
	sd := seg.SegmentDocument(c.Docs[0]) // "data mining conference"
	spans := sd.Spans[0]
	if len(spans) != 2 || spans[0].Len() != 2 {
		t.Fatalf("free-rider: got spans %+v, want [data mining][conference]", spans)
	}
}

func TestSegmentCorpusParallelMatchesSerial(t *testing.T) {
	spec := synth.TwentyConf()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: 300, Seed: 5}, corpus.DefaultBuildOptions())
	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: 5, MaxLen: 6})
	serial := NewSegmenter(mined, Options{Alpha: 5, MaxPhraseLen: 6, Workers: 1}).SegmentCorpus(c)
	parallel := NewSegmenter(mined, Options{Alpha: 5, MaxPhraseLen: 6, Workers: 4}).SegmentCorpus(c)
	for i := range serial {
		if numPhrases(serial[i]) != numPhrases(parallel[i]) {
			t.Fatalf("doc %d: serial %d phrases, parallel %d",
				i, numPhrases(serial[i]), numPhrases(parallel[i]))
		}
		for si := range serial[i].Spans {
			a, b := serial[i].Spans[si], parallel[i].Spans[si]
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("doc %d seg %d span %d differs", i, si, j)
				}
			}
		}
	}
}

func TestSegmentCorpusPartitionProperty(t *testing.T) {
	spec := synth.YelpReviews()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: 120, Seed: 8}, corpus.DefaultBuildOptions())
	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: 4, MaxLen: 6})
	segs := NewSegmenter(mined, DefaultOptions()).SegmentCorpus(c)
	for i, sd := range segs {
		d := c.Docs[sd.DocID]
		if len(sd.Spans) != len(d.Segments) {
			t.Fatalf("doc %d: %d span lists for %d segments", i, len(sd.Spans), len(d.Segments))
		}
		for si, spans := range sd.Spans {
			n := d.Segments[si].Len()
			pos := 0
			for _, sp := range spans {
				if sp.Start != pos || sp.End <= sp.Start {
					t.Fatalf("doc %d seg %d: broken partition %+v", i, si, spans)
				}
				pos = sp.End
			}
			if pos != n {
				t.Fatalf("doc %d seg %d: partition covers %d of %d", i, si, pos, n)
			}
		}
	}
}

func TestPartitionPropertyQuick(t *testing.T) {
	// Random small corpora: the partition property must always hold.
	f := func(seed uint8, support uint8) bool {
		spec := synth.DBLPTitles()
		c := synth.GenerateCorpus(spec, synth.Options{Docs: 20, Seed: uint64(seed)}, corpus.DefaultBuildOptions())
		ms := int(support%6) + 1
		mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: ms, MaxLen: 6})
		segs := NewSegmenter(mined, Options{Alpha: 2, MaxPhraseLen: 6, Workers: 1}).SegmentCorpus(c)
		for _, sd := range segs {
			d := c.Docs[sd.DocID]
			for si, spans := range sd.Spans {
				pos := 0
				for _, sp := range spans {
					if sp.Start != pos {
						return false
					}
					pos = sp.End
				}
				if pos != d.Segments[si].Len() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPhraseInstances(t *testing.T) {
	// Vary the context word so the trigram (8 occurrences) is frequent
	// but no 4-gram is (2 occurrences each < support 5).
	docs := repeat([]string{
		"support vector machines classify",
		"support vector machines rock",
		"support vector machines win",
		"support vector machines scale",
	}, 2)
	c, mined := minedFromDocs(docs, 5)
	segs := NewSegmenter(mined, Options{Alpha: 2, MaxPhraseLen: 8, Workers: 1}).SegmentCorpus(c)
	inst := PhraseInstances(c, segs)
	ids, ok := phraseIDs(c, "support vector machines")
	if !ok {
		t.Fatal("cannot resolve planted phrase")
	}
	if got := inst.Get(counter.Key(ids)); got != 8 {
		t.Fatalf("instance count = %d, want 8", got)
	}
}

func TestExamplePaperTitleSegmentation(t *testing.T) {
	// Mirrors Example 1 of the paper: with supporting context, the
	// title "Mining frequent patterns without candidate generation"
	// should yield "frequent pattern(s)" grouped, not split.
	support := repeat([]string{
		"mining frequent patterns efficiently",
		"frequent patterns in databases",
		"frequent patterns grow everywhere",
		"mining frequent patterns again",
		"we mine frequent patterns",
	}, 6)
	docs := append([]string{"mining frequent patterns without candidate generation"}, support...)
	c, mined := minedFromDocs(docs, 5)
	seg := NewSegmenter(mined, Options{Alpha: 3, MaxPhraseLen: 8, Workers: 1})
	sd := seg.SegmentDocument(c.Docs[0])
	// Find a span of length >= 2 containing "frequent pattern".
	words := c.Docs[0].Segments[0].Words()
	fid, _ := c.Vocab.ID("frequent")
	found := false
	for _, sp := range sd.Spans[0] {
		if sp.Len() >= 2 {
			for i := sp.Start; i < sp.End; i++ {
				if words[i] == fid {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("'frequent patterns' not grouped: %+v", sd.Spans[0])
	}
}

// phraseIDs maps a surface phrase to pipeline ids (stop words removed,
// stems looked up).
func phraseIDs(c *corpus.Corpus, phrase string) ([]int32, bool) {
	var ids []int32
	for _, w := range strings.Fields(phrase) {
		if textproc.IsStopword(w) {
			continue
		}
		id, ok := c.Vocab.ID(textproc.Stem(w))
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
	}
	return ids, true
}

// numPhrases returns the number of phrase instances in d (G_d).
func numPhrases(d *SegmentedDoc) int {
	n := 0
	for _, s := range d.Spans {
		n += len(s)
	}
	return n
}
