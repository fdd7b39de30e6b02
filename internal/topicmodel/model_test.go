package topicmodel

import (
	"bytes"
	"math"
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
)

// twoTopicDocs builds pure-topic unigram documents over a 10-word
// vocabulary: ids 0-4 belong to topic A docs, 5-9 to topic B docs.
func twoTopicDocs(docsPerTopic, tokensPerDoc int) []Doc {
	var docs []Doc
	id := 0
	for t := 0; t < 2; t++ {
		for d := 0; d < docsPerTopic; d++ {
			doc := Doc{ID: id}
			for i := 0; i < tokensPerDoc; i++ {
				w := int32(t*5 + (i+d)%5)
				doc.Cliques = append(doc.Cliques, []int32{w})
			}
			docs = append(docs, doc)
			id++
		}
	}
	return docs
}

func TestNewModelInvariants(t *testing.T) {
	docs := twoTopicDocs(10, 20)
	m := NewModel(docs, 10, Options{K: 2, Iterations: 1, Seed: 1})
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.TotalTokens() != 2*10*20 {
		t.Fatalf("TotalTokens = %d", m.TotalTokens())
	}
}

func TestSweepPreservesInvariants(t *testing.T) {
	docs := twoTopicDocs(5, 15)
	m := NewModel(docs, 10, Options{K: 3, Iterations: 1, Seed: 7})
	for i := 0; i < 10; i++ {
		m.Sweep()
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainDeterministic(t *testing.T) {
	docs := twoTopicDocs(5, 10)
	opt := Options{K: 2, Iterations: 20, Seed: 11}
	a := Train(docs, 10, opt)
	b := Train(twoTopicDocs(5, 10), 10, opt)
	for d := range a.Z {
		for g := range a.Z[d] {
			if a.Z[d][g] != b.Z[d][g] {
				t.Fatalf("assignments diverge at doc %d clique %d", d, g)
			}
		}
	}
}

func TestLDARecoversPlantedTopics(t *testing.T) {
	docs := twoTopicDocs(30, 30)
	m := Train(docs, 10, Options{K: 2, Iterations: 100, Seed: 3})
	// Words 0-4 should mostly occupy one topic and 5-9 the other.
	topicOf := func(w int32) int {
		if m.Nwk[w][0] >= m.Nwk[w][1] {
			return 0
		}
		return 1
	}
	a := topicOf(0)
	for w := int32(1); w < 5; w++ {
		if topicOf(w) != a {
			t.Fatalf("topic-A words split: word %d", w)
		}
	}
	for w := int32(5); w < 10; w++ {
		if topicOf(w) == a {
			t.Fatalf("topic-B word %d landed in topic A", w)
		}
	}
}

func TestPhraseCliquesShareTopicCounts(t *testing.T) {
	// One doc with one 3-word clique: all three words' counts must sit
	// in the clique's single topic.
	docs := []Doc{{ID: 0, Cliques: [][]int32{{0, 1, 2}}}}
	m := NewModel(docs, 3, Options{K: 4, Iterations: 1, Seed: 5})
	m.Sweep()
	k := m.Z[0][0]
	for w := int32(0); w < 3; w++ {
		if m.Nwk[w][k] != 1 {
			t.Fatalf("word %d not counted in clique topic %d", w, k)
		}
		for kk := 0; kk < 4; kk++ {
			if int32(kk) != k && m.Nwk[w][kk] != 0 {
				t.Fatalf("word %d leaked into topic %d", w, kk)
			}
		}
	}
	if m.Ndk[0][k] != 3 || m.Nk[k] != 3 {
		t.Fatal("clique token mass mis-counted")
	}
}

func TestThetaPhiNormalised(t *testing.T) {
	docs := twoTopicDocs(4, 12)
	m := Train(docs, 10, Options{K: 3, Iterations: 10, Seed: 9})
	theta := m.Theta(0, nil)
	var sum float64
	for _, v := range theta {
		if v <= 0 {
			t.Fatalf("theta component %v not positive", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta sums to %v", sum)
	}
	phi := m.Phi(0, nil)
	sum = 0
	for _, v := range phi {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("phi sums to %v", sum)
	}
	if got := m.PhiAt(0, 3); math.Abs(got-phi[3]) > 1e-12 {
		t.Fatalf("PhiAt = %v, Phi row = %v", got, phi[3])
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{K: 5}
	o.fill()
	if o.Alpha != 10 { // 50/5
		t.Fatalf("default alpha = %v, want 10", o.Alpha)
	}
	if o.Beta != 0.01 || o.Iterations != 1000 || o.HyperEvery != 25 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestOptionsPanicsWithoutK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for K=0")
		}
	}()
	Train(nil, 10, Options{})
}

func TestDigammaKnownValues(t *testing.T) {
	const gamma = 0.5772156649015329
	cases := map[float64]float64{
		1.0: -gamma,
		0.5: -gamma - 2*math.Ln2,
		2.0: 1 - gamma,
		10:  2.251752589066721, // psi(10)
	}
	for x, want := range cases {
		if got := Digamma(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("Digamma(%v) = %v, want %v", x, got, want)
		}
	}
	if !math.IsNaN(Digamma(0)) || !math.IsNaN(Digamma(-1)) {
		t.Error("Digamma of non-positive input should be NaN")
	}
}

func TestDigammaRecurrenceProperty(t *testing.T) {
	// psi(x+1) = psi(x) + 1/x
	for _, x := range []float64{0.1, 0.7, 1.3, 4.9, 25} {
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Errorf("recurrence broken at %v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestOptimizeAlphaStaysPositiveAndAdapts(t *testing.T) {
	docs := twoTopicDocs(20, 25)
	m := Train(docs, 10, Options{K: 2, Iterations: 30, Seed: 13})
	before := append([]float64(nil), m.Alpha...)
	m.OptimizeAlpha(10)
	changed := false
	sum := 0.0
	for k, a := range m.Alpha {
		if a <= 0 {
			t.Fatalf("alpha[%d] = %v not positive", k, a)
		}
		if math.Abs(a-before[k]) > 1e-9 {
			changed = true
		}
		sum += a
	}
	if !changed {
		t.Fatal("alpha did not adapt")
	}
	if math.Abs(sum-m.AlphaSum) > 1e-9 {
		t.Fatal("AlphaSum out of sync")
	}
}

func TestOptimizeBetaStaysPositive(t *testing.T) {
	docs := twoTopicDocs(20, 25)
	m := Train(docs, 10, Options{K: 2, Iterations: 30, Seed: 13})
	m.OptimizeBeta(10)
	if m.Beta <= 0 {
		t.Fatalf("beta = %v", m.Beta)
	}
	if math.Abs(m.BetaSum-m.Beta*float64(m.V)) > 1e-9 {
		t.Fatal("BetaSum out of sync")
	}
}

func TestPerplexityFiniteAndImproves(t *testing.T) {
	docs := twoTopicDocs(30, 30)
	test := make([][]int32, len(docs))
	for d := range docs {
		// Withhold two synthetic tokens matching the doc's topic.
		base := int32(0)
		if d >= 30 {
			base = 5
		}
		test[d] = []int32{base, base + 1}
	}
	m0 := NewModel(twoTopicDocs(30, 30), 10, Options{K: 2, Iterations: 1, Seed: 17})
	p0 := Perplexity(m0, test)
	m := Train(docs, 10, Options{K: 2, Iterations: 80, Seed: 17})
	p1 := Perplexity(m, test)
	if math.IsNaN(p0) || math.IsNaN(p1) || p1 <= 0 {
		t.Fatalf("perplexities not finite: %v, %v", p0, p1)
	}
	if p1 >= p0 {
		t.Fatalf("training did not reduce held-out perplexity: %v -> %v", p0, p1)
	}
}

func TestPerplexityAlignmentPanic(t *testing.T) {
	docs := twoTopicDocs(2, 5)
	m := NewModel(docs, 10, Options{K: 2, Iterations: 1, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on misaligned test set")
		}
	}()
	Perplexity(m, make([][]int32, 1))
}

func TestTrainPerplexityFinite(t *testing.T) {
	docs := twoTopicDocs(5, 10)
	m := Train(docs, 10, Options{K: 2, Iterations: 10, Seed: 19})
	p := TrainPerplexity(m)
	if math.IsNaN(p) || p <= 1 {
		t.Fatalf("train perplexity = %v", p)
	}
}

func TestOnIterationCallback(t *testing.T) {
	docs := twoTopicDocs(2, 5)
	var iters []int
	Train(docs, 10, Options{K: 2, Iterations: 5, Seed: 1,
		OnIteration: func(it int, m *Model) { iters = append(iters, it) }})
	if len(iters) != 5 || iters[0] != 1 || iters[4] != 5 {
		t.Fatalf("callback iterations = %v", iters)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	docs := twoTopicDocs(3, 8)
	m := Train(docs, 10, Options{K: 2, Iterations: 10, Seed: 23})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, 99)
	if err != nil {
		t.Fatal(err)
	}
	if m2.K != m.K || m2.V != m.V || m2.Beta != m.Beta {
		t.Fatal("scalar fields lost")
	}
	for d := range m.Z {
		for g := range m.Z[d] {
			if m.Z[d][g] != m2.Z[d][g] {
				t.Fatal("assignments lost")
			}
		}
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("loaded model inconsistent: %v", err)
	}
	// Loaded model must be trainable.
	m2.Sweep()
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("post-load sweep broke invariants: %v", err)
	}
}

func TestDocsFromSegmentationAlignment(t *testing.T) {
	spec := synth.TwentyConf()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: 60, Seed: 4}, corpus.DefaultBuildOptions())
	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: 4, MaxLen: 6})
	segs := segment.NewSegmenter(mined, segment.Options{Alpha: 4, MaxPhraseLen: 6, Workers: 1}).SegmentCorpus(c)
	docs := DocsFromSegmentation(c, segs)
	if len(docs) != c.NumDocs() {
		t.Fatalf("doc count: %d vs %d", len(docs), c.NumDocs())
	}
	for i := range docs {
		if docs[i].NumTokens() != c.Docs[i].Len() {
			t.Fatalf("doc %d token count mismatch: %d vs %d",
				i, docs[i].NumTokens(), c.Docs[i].Len())
		}
		if len(docs[i].Cliques) != segs[i].NumPhrases() {
			t.Fatalf("doc %d clique count mismatch", i)
		}
	}
}

func TestDocsUnigramSingletons(t *testing.T) {
	c := corpus.FromStrings([]string{"alpha beta gamma, delta"}, corpus.DefaultBuildOptions())
	docs := DocsUnigram(c)
	if len(docs) != 1 {
		t.Fatal("doc count")
	}
	if len(docs[0].Cliques) != 4 {
		t.Fatalf("clique count = %d, want 4", len(docs[0].Cliques))
	}
	for _, cl := range docs[0].Cliques {
		if len(cl) != 1 {
			t.Fatalf("non-singleton clique in unigram mode: %v", cl)
		}
	}
}

// Phi returns the point estimate of topic k's word distribution. It
// has no caller outside the tests, which keep it as an oracle.
func (m *Model) Phi(k int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.V)
	}
	denom := float64(m.Nk[k]) + m.BetaSum
	for w := 0; w < m.V; w++ {
		dst[w] = (float64(m.nwkRow(int32(w))[k]) + m.Beta) / denom
	}
	return dst
}

// PhiAt returns φ_k,w without materialising the full row.
func (m *Model) PhiAt(k int, w int32) float64 {
	return (float64(m.nwkRow(w)[k]) + m.Beta) / (float64(m.Nk[k]) + m.BetaSum)
}

// TrainPerplexity computes in-sample per-token perplexity over the
// training documents themselves: a quick convergence check.
func TrainPerplexity(m *Model) float64 {
	theta := make([]float64, m.K)
	var logSum float64
	var n int
	for d := range m.Docs {
		if len(m.Docs[d].Cliques) == 0 {
			continue
		}
		m.Theta(d, theta)
		for _, clique := range m.Docs[d].Cliques {
			for _, w := range clique {
				row := m.nwkRow(w)
				var p float64
				for k := 0; k < m.K; k++ {
					p += theta[k] * (float64(row[k]) + m.Beta) / (float64(m.Nk[k]) + m.BetaSum)
				}
				logSum += math.Log(p)
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(-logSum / float64(n))
}
