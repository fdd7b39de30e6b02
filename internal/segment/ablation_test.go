package segment

import (
	"math"
	"testing"
)

// TestPMIOverMergesRarePairs demonstrates the pathology the paper's
// t-statistic avoids: a pair seen only a handful of times but always
// together gets a huge PMI yet a modest t-statistic, so PMI merges it
// at thresholds where the t-statistic correctly hesitates.
func TestPMIOverMergesRarePairs(t *testing.T) {
	// Corpus: "aaa bbb" always together 3 times (rare pair) among 3000
	// filler tokens; "data mining" together 60 times with constituents
	// also appearing apart.
	var docs []string
	for i := 0; i < 3; i++ {
		docs = append(docs, "aaa bbb")
	}
	for i := 0; i < 60; i++ {
		docs = append(docs, "data mining")
	}
	for i := 0; i < 30; i++ {
		docs = append(docs, "data structures", "text mining", "filler words here")
	}
	c, mined := minedFromDocs(repeat(docs, 1), 3)

	ids := func(ws ...string) []int32 {
		out, ok := phraseIDs(c, join(ws))
		if !ok {
			t.Fatalf("missing %v", ws)
		}
		return out
	}
	l := float64(mined.TotalTokens)
	get := func(words []int32) float64 {
		return float64(mined.Counts.Get(keyFor(words)))
	}
	rare := ids("aaa", "bbb")
	common := ids("data", "mining")

	pmiRare := PMI(get(rare[:1]), get(rare[1:]), get(rare), l)
	pmiCommon := PMI(get(common[:1]), get(common[1:]), get(common), l)
	tRare := TStat(get(rare[:1]), get(rare[1:]), get(rare), l)
	tCommon := TStat(get(common[:1]), get(common[1:]), get(common), l)

	if pmiRare <= pmiCommon {
		t.Fatalf("expected PMI to over-reward the rare pair: rare %v vs common %v", pmiRare, pmiCommon)
	}
	if tRare >= tCommon {
		t.Fatalf("expected the t-statistic to prefer the well-supported pair: rare %v vs common %v", tRare, tCommon)
	}
}

// TestAlphaSweepMonotone: raising alpha can only reduce the number of
// merges (phrases get no longer).
func TestAlphaSweepMonotone(t *testing.T) {
	docs := repeat([]string{
		"frequent pattern mining rocks",
		"frequent pattern trees grow",
		"mining frequent pattern sets",
	}, 10)
	c, mined := minedFromDocs(docs, 5)
	prevPhrases := -1
	for _, alpha := range []float64{0.5, 2, 4, 8, 16, math.Inf(1)} {
		seg := NewSegmenter(mined, Options{Alpha: alpha, MaxPhraseLen: 8, Workers: 1})
		total := 0
		for _, d := range c.Docs {
			sd := seg.SegmentDocument(d)
			total += numPhrases(sd)
		}
		if prevPhrases > 0 && total < prevPhrases {
			t.Fatalf("alpha %v produced fewer phrases (%d) than a smaller alpha (%d): merging should shrink with alpha",
				alpha, total, prevPhrases)
		}
		prevPhrases = total
	}
}

// TestScoreFuncAblationStillPartitions: every score variant must
// preserve the partition invariant.
func TestScoreFuncAblationStillPartitions(t *testing.T) {
	docs := repeat([]string{"alpha beta gamma delta epsilon zeta"}, 8)
	c, mined := minedFromDocs(docs, 5)
	for name, f := range map[string]ScoreFunc{"tstat": TStat, "pmi": PMI, "chi": ChiSquare} {
		seg := NewSegmenter(mined, Options{Alpha: 0.1, MaxPhraseLen: 8, Workers: 1, Score: f})
		words := c.Docs[0].Segments[0].Words()
		spans := seg.Partition(words)
		pos := 0
		for _, sp := range spans {
			if sp.Start != pos {
				t.Fatalf("%s: partition broken", name)
			}
			pos = sp.End
		}
		if pos != len(words) {
			t.Fatalf("%s: partition incomplete", name)
		}
	}
}

func join(ws []string) string {
	out := ""
	for i, w := range ws {
		if i > 0 {
			out += " "
		}
		out += w
	}
	return out
}

func keyFor(words []int32) string {
	return keyOfWords(words)
}

// keyOfWords mirrors counter.Key for test readability.
func keyOfWords(words []int32) string {
	buf := make([]byte, 0, 4*len(words))
	for _, w := range words {
		buf = append(buf, byte(uint32(w)>>24), byte(uint32(w)>>16), byte(uint32(w)>>8), byte(uint32(w)))
	}
	return string(buf)
}
