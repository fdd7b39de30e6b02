package baselines

import (
	"topmine/internal/core"
	"topmine/internal/corpus"
	"topmine/internal/topicmodel"
)

// ToPMine adapts the full pipeline of this repository — frequent
// phrase mining (Alg. 1), significance-guided segmentation (Alg. 2)
// and PhraseLDA — to the Method interface so the comparison harness
// treats it exactly like the baselines.
type ToPMine struct {
	// MinSupport for mining (0: derived from Options.MinSupport).
	MinSupport int
	// Alpha is the segmentation significance threshold (default 5).
	SigAlpha float64
	// MaxPhraseLen bounds phrases (default 8).
	MaxPhraseLen int
	// Workers parallelises segmentation (default 1, so
	// runtime comparisons are one-core against one-core).
	Workers int
	// FilterBackground applies the §8 background-phrase filter to the
	// visualised lists; BackgroundMaxDocFrac > 0 additionally filters
	// phrases occurring in more than that fraction of documents.
	FilterBackground     bool
	BackgroundMaxDocFrac float64
}

// Name implements Method.
func (ToPMine) Name() string { return "ToPMine" }

// Run implements Method.
func (t ToPMine) Run(c *corpus.Corpus, opt Options) []TopicPhrases {
	opt.fill()
	minSup := t.MinSupport
	if minSup <= 0 {
		minSup = opt.MinSupport
	}
	sigAlpha := t.SigAlpha
	if sigAlpha <= 0 {
		sigAlpha = 5
	}
	maxLen := t.MaxPhraseLen
	if maxLen <= 0 {
		maxLen = 8
	}
	workers := t.Workers
	if workers <= 0 {
		workers = 1
	}
	a := core.Run(c, core.Options{
		MinSupport:    minSup,
		MaxPhraseLen:  maxLen,
		SigThreshold:  sigAlpha,
		Topics:        opt.K,
		Iterations:    opt.Iterations,
		OptimizeHyper: opt.OptimizeHyper,
		Seed:          opt.Seed,
		Workers:       workers,
	})
	sums := a.Model.Visualize(c, topicmodel.VisualizeOptions{
		TopUnigrams: opt.TopPhrases, TopPhrases: opt.TopPhrases,
		FilterBackground:     t.FilterBackground,
		BackgroundMaxDocFrac: t.BackgroundMaxDocFrac,
	})
	out := make([]TopicPhrases, len(sums))
	for i, s := range sums {
		tp := TopicPhrases{Topic: s.Topic, Unigrams: s.Unigrams}
		for _, p := range s.Phrases {
			tp.Phrases = append(tp.Phrases, RankedPhrase{
				Words: p.Words, Display: p.Display, Score: float64(p.TF),
			})
		}
		out[i] = tp
	}
	return out
}
