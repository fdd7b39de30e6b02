package topmine

// Benchmarks regenerating the cost side of every table and figure in
// the paper's evaluation (§7). Quality-side regeneration (the actual
// rows/series) lives in cmd/experiments; these benches measure the
// runtimes those experiments compare, at bench-friendly scale:
//
//	go test -bench=. -benchmem
//
// Mapping (see DESIGN.md §4):
//	Table 1        -> BenchmarkTable1_Visualization
//	Figure 3/4/5   -> BenchmarkFig3_Intrusion, Fig4_Coherence, Fig5_Quality
//	Figure 6/7     -> BenchmarkFig6_*, BenchmarkFig7_* (per-sweep and
//	                  perplexity-evaluation cost of PhraseLDA vs LDA)
//	Figure 8       -> BenchmarkFig8_PhraseMining / _PhraseLDA size sweeps
//	Table 3        -> BenchmarkTable3_<Method> (one per compared method)
//	Ablations      -> BenchmarkAblation_* (significance score variants,
//	                  parallel mining/segmentation workers)

import (
	"sync"
	"testing"

	"topmine/internal/baselines"
	"topmine/internal/corpus"
	"topmine/internal/eval"
	"topmine/internal/lru"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
	"topmine/internal/topicmodel"
)

// corpusCache shares benchmark corpora across benches.
var corpusCache sync.Map

func benchCorpus(domain string, docs int) *Corpus {
	type key struct {
		d string
		n int
	}
	k := key{domain, docs}
	if v, ok := corpusCache.Load(k); ok {
		return v.(*Corpus)
	}
	spec := synth.Domains()[domain]()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: docs, Seed: 42},
		corpus.DefaultBuildOptions())
	corpusCache.Store(k, c)
	return c
}

func benchOpts() Options {
	o := DefaultOptions()
	o.Topics = 5
	o.Iterations = 30
	o.MinSupport = 5
	o.SigThreshold = 3
	o.Seed = 42
	o.Workers = 1
	o.OptimizeHyper = false
	return o
}

// BenchmarkTable1_Visualization measures the full pipeline behind
// Table 1: mine, segment, train, visualise on a titles corpus.
func BenchmarkTable1_Visualization(b *testing.B) {
	c := benchCorpus("20conf", 1000)
	opt := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mined := MinePhrases(c, opt)
		segs := SegmentCorpus(c, mined, opt)
		m := TrainModel(c, segs, opt)
		_ = m.Visualize(c, VisualizeOptions{})
	}
}

// table3Bench runs one compared method end to end at bench scale; the
// per-method ratios are the reproduction of Table 3's ordering.
func table3Bench(b *testing.B, m baselines.Method) {
	b.Helper()
	c := benchCorpus("dblp-titles", 800)
	opt := baselines.Options{K: 5, Iterations: 20, Seed: 42, TopPhrases: 10, MinSupport: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(c, opt)
	}
}

func BenchmarkTable3_LDA(b *testing.B)     { table3Bench(b, baselines.LDAUnigrams{}) }
func BenchmarkTable3_ToPMine(b *testing.B) { table3Bench(b, baselines.ToPMine{SigAlpha: 3}) }
func BenchmarkTable3_TNG(b *testing.B)     { table3Bench(b, baselines.TNG{}) }
func BenchmarkTable3_KERT(b *testing.B)    { table3Bench(b, baselines.KERT{}) }
func BenchmarkTable3_PDLDA(b *testing.B)   { table3Bench(b, baselines.PDLDA{}) }
func BenchmarkTable3_Turbo(b *testing.B) {
	table3Bench(b, baselines.TurboTopics{Permutations: 2, MaxRounds: 2})
}

// studyFixture prepares method outputs and a co-occurrence index for
// the Figure 3-5 evaluation benches.
type studyFixture struct {
	idx    *eval.Index
	topics []baselines.TopicPhrases
}

var studyOnce sync.Once
var study studyFixture

func studySetup() studyFixture {
	studyOnce.Do(func() {
		c := benchCorpus("20conf", 1500)
		study.idx = eval.BuildIndex(c)
		study.topics = baselines.ToPMine{SigAlpha: 3}.Run(c, baselines.Options{
			K: 5, Iterations: 30, Seed: 42, TopPhrases: 10, MinSupport: 4,
		})
	})
	return study
}

// BenchmarkFig3_Intrusion measures the 20-question, 3-annotator
// intrusion evaluation of Figure 3.
func BenchmarkFig3_Intrusion(b *testing.B) {
	f := studySetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Intrusion(f.idx, "ToPMine", f.topics, 20, 3, 0.05, 42)
	}
}

// BenchmarkFig4_Coherence measures the coherence rater of Figure 4.
func BenchmarkFig4_Coherence(b *testing.B) {
	f := studySetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Coherence(f.idx, f.topics, 10)
	}
}

// BenchmarkFig5_Quality measures the phrase-quality rater of Figure 5.
func BenchmarkFig5_Quality(b *testing.B) {
	f := studySetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Quality(f.idx, f.topics, 10)
	}
}

// fig67Fixture builds the held-out split and both models' documents
// for the perplexity benches.
func fig67Fixture(b *testing.B, domain string, docs int) (*HeldOut, []topicmodel.Doc, []topicmodel.Doc, int) {
	b.Helper()
	c := benchCorpus(domain, docs)
	ho := SplitHeldOut(c, 0.2)
	opt := benchOpts()
	mined := MinePhrases(ho.Train, opt)
	segs := SegmentCorpus(ho.Train, mined, opt)
	return ho, topicmodel.DocsFromSegmentation(ho.Train, segs),
		topicmodel.DocsUnigram(ho.Train), ho.Train.Vocab.Size()
}

// BenchmarkFig6_* measure the per-sweep Gibbs cost of PhraseLDA vs LDA
// on review text — the x-axis cost of Figure 6. PhraseLDA samples once
// per phrase, so its sweeps are cheaper ("PhraseLDA often runs in
// shorter time than LDA", §7.4).
func BenchmarkFig6_PhraseLDASweep(b *testing.B) {
	_, docs, _, v := fig67Fixture(b, "yelp-reviews", 800)
	m := topicmodel.NewModel(docs, v, topicmodel.Options{K: 10, Iterations: 1, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sweep()
	}
}

func BenchmarkFig6_LDASweep(b *testing.B) {
	_, _, docs, v := fig67Fixture(b, "yelp-reviews", 800)
	m := topicmodel.NewModel(docs, v, topicmodel.Options{K: 10, Iterations: 1, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sweep()
	}
}

// BenchmarkFig6_Perplexity measures the held-out evaluation itself.
func BenchmarkFig6_Perplexity(b *testing.B) {
	ho, docs, _, v := fig67Fixture(b, "yelp-reviews", 800)
	m := topicmodel.Train(docs, v, topicmodel.Options{K: 10, Iterations: 10, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Perplexity(m, ho)
	}
}

// BenchmarkFig7_* are the abstracts-corpus counterparts (Figure 7).
func BenchmarkFig7_PhraseLDASweep(b *testing.B) {
	_, docs, _, v := fig67Fixture(b, "dblp-abstracts", 400)
	m := topicmodel.NewModel(docs, v, topicmodel.Options{K: 10, Iterations: 1, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sweep()
	}
}

func BenchmarkFig7_LDASweep(b *testing.B) {
	_, _, docs, v := fig67Fixture(b, "dblp-abstracts", 400)
	m := topicmodel.NewModel(docs, v, topicmodel.Options{K: 10, Iterations: 1, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sweep()
	}
}

// BenchmarkFig8_PhraseMining sweeps corpus size for the mining half of
// Figure 8's decomposition; linearity shows as flat ns/op per token.
func BenchmarkFig8_PhraseMining(b *testing.B) {
	for _, docs := range []int{250, 500, 1000} {
		c := benchCorpus("dblp-abstracts", docs)
		b.Run(sizeName(docs), func(b *testing.B) {
			opt := phrasemine.Options{MinSupport: 5, MaxLen: 8}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = phrasemine.Mine(c, opt)
			}
			b.ReportMetric(float64(c.TotalTokens), "tokens")
		})
	}
}

// BenchmarkFig8_PhraseLDA sweeps corpus size for the topic-model half.
func BenchmarkFig8_PhraseLDA(b *testing.B) {
	for _, docs := range []int{250, 500, 1000} {
		c := benchCorpus("dblp-abstracts", docs)
		opt := benchOpts()
		mined := MinePhrases(c, opt)
		segs := SegmentCorpus(c, mined, opt)
		mdocs := topicmodel.DocsFromSegmentation(c, segs)
		b.Run(sizeName(docs), func(b *testing.B) {
			m := topicmodel.NewModel(mdocs, c.Vocab.Size(),
				topicmodel.Options{K: 10, Iterations: 1, Seed: 42})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Sweep()
			}
			b.ReportMetric(float64(c.TotalTokens), "tokens")
		})
	}
}

func sizeName(docs int) string {
	switch {
	case docs >= 1000:
		return "docs_1000"
	case docs >= 500:
		return "docs_500"
	default:
		return "docs_250"
	}
}

// Ablation benches: the design choices DESIGN.md calls out.

// Significance-score variants (Eq. 1 vs PMI vs chi-square) on the same
// mined counts: cost comparison; quality comparison lives in
// cmd/experiments via the eval raters.
func ablationSegmenter(b *testing.B, score segment.ScoreFunc) {
	b.Helper()
	c := benchCorpus("dblp-abstracts", 400)
	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: 5, MaxLen: 8})
	seg := segment.NewSegmenter(mined, segment.Options{
		Alpha: 3, MaxPhraseLen: 8, Workers: 1, Score: score,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = seg.SegmentCorpus(c)
	}
}

func BenchmarkAblation_Significance_TStat(b *testing.B) { ablationSegmenter(b, segment.TStat) }
func BenchmarkAblation_Significance_PMI(b *testing.B)   { ablationSegmenter(b, segment.PMI) }
func BenchmarkAblation_Significance_Chi(b *testing.B)   { ablationSegmenter(b, segment.ChiSquare) }

// Hyperparameter optimisation cost (on top of plain sweeps).
func BenchmarkAblation_HyperOpt(b *testing.B) {
	c := benchCorpus("20conf", 1000)
	docs := topicmodel.DocsUnigram(c)
	m := topicmodel.Train(docs, c.Vocab.Size(),
		topicmodel.Options{K: 10, Iterations: 10, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OptimizeAlpha(2)
		m.OptimizeBeta(2)
	}
}

// Parallel topic-model sweeps (the AD-LDA-style §8 extension).
func ablationTopicWorkers(b *testing.B, workers int) {
	b.Helper()
	c := benchCorpus("dblp-abstracts", 400)
	opt := benchOpts()
	mined := MinePhrases(c, opt)
	segs := SegmentCorpus(c, mined, opt)
	mdocs := topicmodel.DocsFromSegmentation(c, segs)
	m := topicmodel.NewModel(mdocs, c.Vocab.Size(),
		topicmodel.Options{K: 10, Iterations: 1, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SweepParallel(workers)
	}
}

func BenchmarkAblation_TopicWorkers_1(b *testing.B) { ablationTopicWorkers(b, 1) }
func BenchmarkAblation_TopicWorkers_4(b *testing.B) { ablationTopicWorkers(b, 4) }

// Background-phrase filtering cost (§8 extension).
func BenchmarkAblation_BackgroundFilter(b *testing.B) {
	c := benchCorpus("dblp-abstracts", 400)
	opt := benchOpts()
	mined := MinePhrases(c, opt)
	segs := SegmentCorpus(c, mined, opt)
	m := TrainModel(c, segs, opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Visualize(c, VisualizeOptions{FilterBackground: true})
	}
}

// --- Serving-path cache benchmarks (PR 2) ---------------------------
//
// BenchmarkServeInferCached vs BenchmarkServeInferUncached measure the
// repeated-request economics of the serve path: inference is
// deterministic per input text, so an LRU keyed by (text, iters) is an
// exact cache and a hit replaces a full 2×iters-sweep Gibbs run with a
// map lookup. The HTTP-layer counterparts (full handler stack) live in
// internal/serve/bench_test.go as BenchmarkHTTPInfer{Cached,Uncached}.

var (
	serveBenchOnce sync.Once
	serveBenchInf  *Inferencer
)

func serveBenchInferencer(b *testing.B) *Inferencer {
	b.Helper()
	serveBenchOnce.Do(func() {
		c := benchCorpus("20conf", 1000)
		res, err := RunCorpus(c, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		inf, err := res.Inferencer()
		if err != nil {
			b.Fatal(err)
		}
		serveBenchInf = inf
	})
	if serveBenchInf == nil {
		b.Fatal("bench inferencer failed to build")
	}
	return serveBenchInf
}

const serveBenchText = "support vector machines for text classification"

// BenchmarkServeInferUncached is the raw per-request inference cost a
// cache miss pays (50 sampling sweeps + equal burn-in).
func BenchmarkServeInferUncached(b *testing.B) {
	inf := serveBenchInferencer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inf.InferTopics(serveBenchText, 50)
	}
}

// BenchmarkServeInferCached front-loads one real inference and then
// serves every request from the sharded LRU — the steady state for
// repeated identical requests.
func BenchmarkServeInferCached(b *testing.B) {
	inf := serveBenchInferencer(b)
	type key struct {
		text  string
		iters int
	}
	cache := lru.New(32<<20, 8, func(k key, v []float64) int {
		return len(k.text) + 8*len(v)
	})
	k := key{serveBenchText, 50}
	cache.Put(k, inf.InferTopics(serveBenchText, 50))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		theta, ok := cache.Get(k)
		if !ok {
			cache.Put(k, inf.InferTopics(serveBenchText, 50))
		}
		_ = theta
	}
}
