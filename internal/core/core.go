// Package core orchestrates the ToPMine framework — the paper's
// primary contribution: frequent contiguous phrase mining (Algorithm
// 1), significance-guided agglomerative segmentation (Algorithm 2) and
// phrase-constrained topic modeling (PhraseLDA) chained into one
// pipeline (§3). The public topmine package and the comparison
// harness both delegate here, so there is exactly one definition of
// "running ToPMine".
package core

import (
	"topmine/internal/corpus"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/topicmodel"
)

// Config is the complete parameterisation of the framework.
type Config struct {
	// MinSupport is the paper's ε; RelativeSupport, when positive,
	// raises it to that fraction of the corpus tokens (the paper's
	// "minimum support that grows linearly with corpus size", §4.1).
	MinSupport      int
	RelativeSupport float64
	// MaxPhraseLen bounds phrases (0 = unbounded).
	MaxPhraseLen int
	// SigAlpha is Algorithm 2's merge threshold α.
	SigAlpha float64
	// Score overrides the significance measure (nil = Eq. 1 t-stat).
	Score segment.ScoreFunc
	// K, Iterations, Alpha, Beta, OptimizeHyper parameterise PhraseLDA.
	K             int
	Iterations    int
	Alpha, Beta   float64
	OptimizeHyper bool
	// Seed drives all randomness; Workers parallelises mining and
	// segmentation; TopicWorkers > 1 selects the approximate parallel
	// Gibbs sampler.
	Seed         uint64
	Workers      int
	TopicWorkers int
	// OnIteration, when set, observes every Gibbs sweep.
	OnIteration func(int, *topicmodel.Model)
	// SweepStats, when set, receives one breakdown per sweep: timing
	// and where the sampler's draws landed.
	SweepStats func(topicmodel.SweepStats)
}

// Artifacts carries every intermediate and final product of a run.
type Artifacts struct {
	Mined *phrasemine.Result
	Segs  []*segment.SegmentedDoc
	Docs  []topicmodel.Doc
	Model *topicmodel.Model
}

// EffectiveSupport resolves the support threshold for a corpus.
func (cfg Config) EffectiveSupport(c *corpus.Corpus) int {
	sup := cfg.MinSupport
	if cfg.RelativeSupport > 0 {
		if rs := int(cfg.RelativeSupport * float64(c.TotalTokens)); rs > sup {
			sup = rs
		}
	}
	if sup < 1 {
		sup = 1
	}
	return sup
}

// Mine runs Algorithm 1.
func Mine(c *corpus.Corpus, cfg Config) *phrasemine.Result {
	return phrasemine.Mine(c, phrasemine.Options{
		MinSupport: cfg.EffectiveSupport(c),
		MaxLen:     cfg.MaxPhraseLen,
		Workers:    cfg.Workers,
	})
}

// Segment runs Algorithm 2 on mined counts.
func Segment(c *corpus.Corpus, mined *phrasemine.Result, cfg Config) []*segment.SegmentedDoc {
	return segment.NewSegmenter(mined, segment.Options{
		Alpha:        cfg.SigAlpha,
		MaxPhraseLen: cfg.MaxPhraseLen,
		Score:        cfg.Score,
		Workers:      cfg.Workers,
	}).SegmentCorpus(c)
}

// Train fits PhraseLDA to a segmented corpus.
func Train(c *corpus.Corpus, segs []*segment.SegmentedDoc, cfg Config) ([]topicmodel.Doc, *topicmodel.Model) {
	docs := topicmodel.DocsFromSegmentation(c, segs)
	opt := topicmodel.Options{
		K:             cfg.K,
		Alpha:         cfg.Alpha,
		Beta:          cfg.Beta,
		Iterations:    cfg.Iterations,
		OptimizeHyper: cfg.OptimizeHyper,
		Seed:          cfg.Seed,
		OnIteration:   cfg.OnIteration,
		SweepStats:    cfg.SweepStats,
	}
	if cfg.TopicWorkers > 1 {
		return docs, topicmodel.TrainParallel(docs, c.Vocab.Size(), opt, cfg.TopicWorkers)
	}
	return docs, topicmodel.Train(docs, c.Vocab.Size(), opt)
}

// Run executes the full framework.
func Run(c *corpus.Corpus, cfg Config) *Artifacts {
	a := &Artifacts{}
	a.Mined = Mine(c, cfg)
	a.Segs = Segment(c, a.Mined, cfg)
	a.Docs, a.Model = Train(c, a.Segs, cfg)
	return a
}
