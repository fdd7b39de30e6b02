package phrasemine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/synth"
	"topmine/internal/textproc"
)

// buildCorpus builds a corpus from raw docs with the default pipeline.
func buildCorpus(docs []string) *corpus.Corpus {
	return corpus.FromStrings(docs, corpus.DefaultBuildOptions())
}

// repeatDocs replicates docs n times so supports are controllable.
func repeatDocs(docs []string, n int) []string {
	out := make([]string, 0, len(docs)*n)
	for i := 0; i < n; i++ {
		out = append(out, docs...)
	}
	return out
}

func keyOf(c *corpus.Corpus, words ...string) (string, bool) {
	ids := make([]int32, len(words))
	for i, w := range words {
		id, ok := c.Vocab.ID(w)
		if !ok {
			return "", false
		}
		ids[i] = id
	}
	return counter.Key(ids), true
}

func TestMineFindsPlantedBigram(t *testing.T) {
	docs := repeatDocs([]string{
		"support vector machines are powerful",
		"we train support vector machines daily",
		"linear support vector machines scale",
	}, 3)
	c := buildCorpus(docs)
	res := Mine(c, Options{MinSupport: 5, MaxLen: 5})
	k, ok := keyOf(c, "support", "vector", "machin")
	if !ok {
		t.Fatal("vocabulary missing planted words")
	}
	if got := res.Counts.Get(k); got != 9 {
		t.Fatalf("count(support vector machine) = %d, want 9", got)
	}
}

func TestMineRespectsMinSupport(t *testing.T) {
	docs := repeatDocs([]string{"alpha beta gamma"}, 4)
	c := buildCorpus(docs)
	res := Mine(c, Options{MinSupport: 5, MaxLen: 5})
	if k, ok := keyOf(c, "alpha", "beta"); ok && res.Counts.Get(k) != 0 {
		t.Fatal("bigram below support reported as frequent")
	}
	// Unigrams at count 4 are also below support.
	if k, ok := keyOf(c, "alpha"); ok && res.Counts.Get(k) != 0 {
		t.Fatal("unigram below support reported")
	}
}

func TestMineUnigramCounts(t *testing.T) {
	docs := repeatDocs([]string{"alpha beta"}, 7)
	c := buildCorpus(docs)
	res := Mine(c, Options{MinSupport: 5, MaxLen: 5})
	k, _ := keyOf(c, "alpha")
	if got := res.Counts.Get(k); got != 7 {
		t.Fatalf("unigram count = %d, want 7", got)
	}
}

func TestMineDownwardClosureProperty(t *testing.T) {
	// Every contiguous sub-phrase of a frequent phrase must be frequent
	// with at least the super-phrase's count.
	spec := synth.TwentyConf()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: 400, Seed: 9}, corpus.DefaultBuildOptions())
	res := Mine(c, Options{MinSupport: 5, MaxLen: 6})
	checked := 0
	res.Counts.Each(func(k string, v int64) {
		words := counter.Unkey(k)
		if len(words) < 2 {
			return
		}
		for i := 0; i < len(words); i++ {
			for j := i + 1; j <= len(words); j++ {
				if j-i == len(words) {
					continue
				}
				sub := counter.Key(words[i:j])
				if sv := res.Counts.Get(sub); sv < v {
					t.Fatalf("downward closure violated: sub %v count %d < super count %d",
						words[i:j], sv, v)
				}
				checked++
			}
		}
	})
	if checked == 0 {
		t.Fatal("no multi-word phrases mined; test vacuous")
	}
}

func TestMinePhrasesNeverCrossSegments(t *testing.T) {
	// "alpha beta" always separated by a comma: must not become frequent.
	docs := repeatDocs([]string{"alpha, beta gamma"}, 10)
	c := buildCorpus(docs)
	res := Mine(c, Options{MinSupport: 5, MaxLen: 5})
	if k, ok := keyOf(c, "alpha", "beta"); ok && res.Counts.Get(k) != 0 {
		t.Fatal("phrase crossed a punctuation boundary")
	}
	k, _ := keyOf(c, "beta", "gamma")
	if res.Counts.Get(k) != 10 {
		t.Fatalf("in-segment bigram count = %d, want 10", res.Counts.Get(k))
	}
}

func TestMineMaxLenBound(t *testing.T) {
	docs := repeatDocs([]string{"alpha beta gamma delta epsilon"}, 6)
	c := buildCorpus(docs)
	res := Mine(c, Options{MinSupport: 5, MaxLen: 3})
	if res.MaxPhraseLen > 3 {
		t.Fatalf("MaxPhraseLen = %d, want <= 3", res.MaxPhraseLen)
	}
	if k, ok := keyOf(c, "alpha", "beta", "gamma", "delta"); ok && res.Counts.Get(k) != 0 {
		t.Fatal("phrase longer than MaxLen mined")
	}
	k, _ := keyOf(c, "alpha", "beta", "gamma")
	if res.Counts.Get(k) != 6 {
		t.Fatalf("trigram count = %d, want 6", res.Counts.Get(k))
	}
}

func TestMineUnboundedLength(t *testing.T) {
	docs := repeatDocs([]string{"alpha beta gamma delta epsilon"}, 6)
	c := buildCorpus(docs)
	res := Mine(c, Options{MinSupport: 5, MaxLen: 0})
	if res.MaxPhraseLen != 5 {
		t.Fatalf("MaxPhraseLen = %d, want 5", res.MaxPhraseLen)
	}
	k, _ := keyOf(c, "alpha", "beta", "gamma", "delta", "epsilon")
	if res.Counts.Get(k) != 6 {
		t.Fatal("full-segment phrase not mined")
	}
}

func TestMineOverlappingOccurrences(t *testing.T) {
	// "a a a" contains the bigram "a a" twice (overlapping).
	docs := repeatDocs([]string{"alpha alpha alpha"}, 5)
	c := buildCorpus(docs)
	res := Mine(c, Options{MinSupport: 5, MaxLen: 4})
	k, _ := keyOf(c, "alpha", "alpha")
	if got := res.Counts.Get(k); got != 10 {
		t.Fatalf("overlapping bigram count = %d, want 10", got)
	}
}

func TestMineEmptyCorpus(t *testing.T) {
	c := buildCorpus(nil)
	res := Mine(c, Options{MinSupport: 5})
	if res.Counts.Len() != 0 || res.MaxPhraseLen != 0 {
		t.Fatalf("empty corpus produced phrases: %+v", res)
	}
}

func TestMineAllStopwordDocs(t *testing.T) {
	c := buildCorpus(repeatDocs([]string{"the of and", "is are was"}, 5))
	res := Mine(c, Options{MinSupport: 2})
	if res.Counts.Len() != 0 {
		t.Fatal("stop-word-only corpus produced phrases")
	}
}

func TestMineMinSupportFloor(t *testing.T) {
	c := buildCorpus([]string{"alpha beta"})
	res := Mine(c, Options{MinSupport: 0, MaxLen: 3})
	if res.MinSupport != 1 {
		t.Fatalf("MinSupport floor = %d, want 1", res.MinSupport)
	}
	k, _ := keyOf(c, "alpha", "beta")
	if res.Counts.Get(k) != 1 {
		t.Fatal("support floor of 1 should keep single occurrences")
	}
}

func TestMineLevelCandidatesShrink(t *testing.T) {
	spec := synth.TwentyConf()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: 300, Seed: 2}, corpus.DefaultBuildOptions())
	res := Mine(c, Options{MinSupport: 5, MaxLen: 0})
	if len(res.LevelCandidates) < 3 {
		t.Fatalf("expected at least bigram level, got %v", res.LevelCandidates)
	}
	// Apriori pruning must make high levels much smaller than level 2.
	last := res.LevelCandidates[len(res.LevelCandidates)-1]
	if last > res.LevelCandidates[2] {
		t.Fatalf("candidate counts did not shrink: %v", res.LevelCandidates)
	}
}

func TestMineRecoversMostPlantedPhrases(t *testing.T) {
	spec := synth.TwentyConf()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: 2000, Seed: 33}, corpus.DefaultBuildOptions())
	res := Mine(c, Options{MinSupport: 5, MaxLen: 6})
	found, total := 0, 0
	for _, p := range spec.PlantedPhrases() {
		ids, ok := phraseIDs(c, p)
		if !ok || len(ids) < 2 {
			continue // phrase reduces to < 2 tokens after stop-word removal
		}
		total++
		if res.Counts.Get(counter.Key(ids)) >= 5 {
			found++
		}
	}
	if total < 20 {
		t.Fatalf("only %d multi-token planted phrases resolvable; test vacuous", total)
	}
	if found < total*2/3 {
		t.Fatalf("recovered only %d of %d planted phrases", found, total)
	}
}

// phraseIDs maps a planted surface phrase to the id sequence the
// pipeline would produce for it (stop words removed, words stemmed).
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

// BenchmarkMine mines a corpus at a realistic vocabulary: 600k tokens
// drawn Zipf(1.1) over V = 30 000 words, in segments of 1–8 words, ten
// to a document. It reports ns and bytes allocated per token.
func BenchmarkMine(b *testing.B) {
	const V, tokens = 30000, 600000
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, V-1)
	raw := &corpus.Raw{Vocab: textproc.NewVocab(), TotalTokens: tokens}
	for w := 0; w < V; w++ {
		raw.Vocab.Intern(fmt.Sprintf("w%d", w), "")
	}
	for len(raw.Words) < tokens {
		if len(raw.SegOffs)%10 == 0 {
			raw.SegCounts = append(raw.SegCounts, 0)
		}
		raw.SegCounts[len(raw.SegCounts)-1]++
		n := min(1+r.Intn(8), tokens-len(raw.Words))
		raw.SegOffs = append(raw.SegOffs, int32(len(raw.Words)))
		raw.SegLens = append(raw.SegLens, int32(n))
		for ; n > 0; n-- {
			raw.Words = append(raw.Words, int32(zipf.Uint64()))
		}
	}
	c, err := corpus.FromRaw(raw)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mine(c, DefaultOptions())
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * tokens
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/token")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/token")
}
