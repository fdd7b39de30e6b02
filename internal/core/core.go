// Package core orchestrates the ToPMine framework — the paper's
// primary contribution: frequent contiguous phrase mining (Algorithm
// 1), significance-guided agglomerative segmentation (Algorithm 2) and
// phrase-constrained topic modeling (PhraseLDA) chained into one
// pipeline (§3).
//
// It also defines the one config every entry point runs from: Options,
// which the public topmine package re-exports unchanged. Each stage
// reads its parameters straight out of it — Mine and Segment here,
// PhraseLDA through ModelOptions, rendering through VisualizeOptions —
// so there is exactly one definition of "running ToPMine" and no
// per-layer copy of its settings.
package core

import (
	"fmt"

	"topmine/internal/corpus"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/topicmodel"
)

// Options configures the full ToPMine pipeline.
type Options struct {
	// MinSupport is the minimum corpus frequency for a phrase (the
	// paper's ε). When RelativeSupport is set, the effective support is
	// max(MinSupport, RelativeSupport × corpus tokens), implementing
	// the paper's advice that support grow linearly with corpus size.
	MinSupport      int
	RelativeSupport float64
	// MaxPhraseLen bounds phrase length (0 = unbounded).
	MaxPhraseLen int
	// SigThreshold is the significance threshold α of Algorithm 2.
	SigThreshold float64
	// Topics is K, the number of latent topics.
	Topics int
	// Iterations is the number of collapsed Gibbs sweeps.
	Iterations int
	// Alpha and Beta are the Dirichlet priors (0 = 50/K and 0.01).
	Alpha, Beta float64
	// OptimizeHyper enables Minka fixed-point hyperparameter updates.
	OptimizeHyper bool
	// FilterBackground removes corpus-wide background phrases from the
	// topic visualisations (§8 of the paper).
	FilterBackground bool
	// TopUnigrams / TopPhrases bound the visualisation lists.
	TopUnigrams, TopPhrases int
	// Seed drives every random choice.
	Seed uint64
	// Workers parallelises corpus ingestion (Run/RunSource) and
	// segmentation (0 = GOMAXPROCS); mining is serial. It never
	// changes any output.
	Workers int
	// TopicWorkers > 1 trains the topic model with the approximate
	// AD-LDA-style distributed sampler (see internal/topicmodel's
	// parallel notes): deterministic for a fixed worker count, held-out
	// quality comparable to the serial sampler, sweeps up to
	// TopicWorkers times faster. Workers accumulate sparse count deltas
	// into buffers reused across sweeps, so the per-sweep memory
	// overhead is O(cells touched by the worker's shard) — not the
	// O(V×K) per-worker count copy of earlier releases. 0 or 1 selects
	// the exact serial sampler (sparse bucketed Gibbs) used for all
	// paper-reproduction experiments.
	TopicWorkers int
}

// Normalize validates the options and substitutes the documented
// defaults for zero values (SigThreshold 0 → 5, Iterations 0 → 1000,
// …) — the same normalisation every Run/Train entry point applies
// internally. Callers that orchestrate pipeline stages individually
// (e.g. the CLI) normalise once up front so mining, segmentation and
// stored-artifact parameter matching all see identical effective
// values.
func (o *Options) Normalize() error {
	if o.Topics <= 0 {
		return fmt.Errorf("topmine: Topics must be positive, got %d", o.Topics)
	}
	if o.MinSupport <= 0 && o.RelativeSupport <= 0 {
		o.MinSupport = 5
	}
	if o.MaxPhraseLen < 0 {
		return fmt.Errorf("topmine: MaxPhraseLen must be >= 0")
	}
	// Negative priors are never meaningful: a negative significance
	// threshold accepts every adjacent merge (each candidate pair's
	// score starts at 0), and negative Dirichlet priors turn Gibbs
	// sampling weights negative, corrupting the categorical draw.
	// Reject them instead of training a silently broken model.
	if o.SigThreshold < 0 {
		return fmt.Errorf("topmine: SigThreshold must be >= 0 (0 selects the default 5), got %v", o.SigThreshold)
	}
	if o.Alpha < 0 {
		return fmt.Errorf("topmine: Alpha must be >= 0 (0 selects the default 50/K), got %v", o.Alpha)
	}
	if o.Beta < 0 {
		return fmt.Errorf("topmine: Beta must be >= 0 (0 selects the default 0.01), got %v", o.Beta)
	}
	if o.SigThreshold == 0 {
		o.SigThreshold = 5
	}
	if o.Iterations <= 0 {
		o.Iterations = 1000
	}
	if o.TopUnigrams <= 0 {
		o.TopUnigrams = 10
	}
	if o.TopPhrases <= 0 {
		o.TopPhrases = 10
	}
	return nil
}

// effectiveSupport resolves the support threshold for a corpus.
func (o Options) effectiveSupport(c *corpus.Corpus) int {
	sup := o.MinSupport
	if o.RelativeSupport > 0 {
		if rs := int(o.RelativeSupport * float64(c.TotalTokens)); rs > sup {
			sup = rs
		}
	}
	if sup < 1 {
		sup = 1
	}
	return sup
}

// ModelOptions is the PhraseLDA schedule the options describe. It is a
// function rather than a method so that it stays out of the public
// method set of the re-exported Options.
func ModelOptions(o Options) topicmodel.Options {
	return topicmodel.Options{
		K:             o.Topics,
		Alpha:         o.Alpha,
		Beta:          o.Beta,
		Iterations:    o.Iterations,
		OptimizeHyper: o.OptimizeHyper,
		Seed:          o.Seed,
		Workers:       o.TopicWorkers,
	}
}

// VisualizeOptions is how the options render a trained model's topics.
func VisualizeOptions(o Options) topicmodel.VisualizeOptions {
	vis := topicmodel.VisualizeOptions{
		TopUnigrams:      o.TopUnigrams,
		TopPhrases:       o.TopPhrases,
		FilterBackground: o.FilterBackground,
	}
	if o.FilterBackground {
		// Catch background phrases that collect in a dedicated topic
		// under the optimised asymmetric prior (see VisualizeOptions).
		vis.BackgroundMaxDocFrac = 0.25
	}
	return vis
}

// Artifacts carries every intermediate and final product of a run.
type Artifacts struct {
	Mined *phrasemine.Result
	Segs  []*segment.SegmentedDoc
	Docs  []topicmodel.Doc
	Model *topicmodel.Model
}

// Mine runs Algorithm 1.
func Mine(c *corpus.Corpus, opt Options) *phrasemine.Result {
	return phrasemine.Mine(c, phrasemine.Options{
		MinSupport: opt.effectiveSupport(c),
		MaxLen:     opt.MaxPhraseLen,
	})
}

// Segment runs Algorithm 2 on mined counts.
func Segment(c *corpus.Corpus, mined *phrasemine.Result, opt Options) []*segment.SegmentedDoc {
	return segment.NewSegmenter(mined, segment.Options{
		Alpha:        opt.SigThreshold,
		MaxPhraseLen: opt.MaxPhraseLen,
		Workers:      opt.Workers,
	}).SegmentCorpus(c)
}

// Train fits the topic model to docs — PhraseLDA over
// topicmodel.DocsFromSegmentation, LDA over topicmodel.DocsUnigram. The
// optional hooks observe every sweep: onIter with the model after it,
// stats with its timing and where its draws landed. Invalid options
// panic, as the library's Train entry points document.
func Train(c *corpus.Corpus, docs []topicmodel.Doc, opt Options, onIter func(int, *topicmodel.Model), stats func(topicmodel.SweepStats)) *topicmodel.Model {
	if err := opt.Normalize(); err != nil {
		panic(err)
	}
	mopt := ModelOptions(opt)
	mopt.OnIteration, mopt.SweepStats = onIter, stats
	return topicmodel.Train(docs, c.Vocab.Size(), mopt)
}

// Run executes the full framework.
func Run(c *corpus.Corpus, opt Options) *Artifacts {
	a := &Artifacts{}
	a.Mined = Mine(c, opt)
	a.Segs = Segment(c, a.Mined, opt)
	a.Docs = topicmodel.DocsFromSegmentation(c, a.Segs)
	a.Model = Train(c, a.Docs, opt, nil, nil)
	return a
}
