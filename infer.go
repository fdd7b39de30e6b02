package topmine

import (
	"sort"

	"topmine/internal/segment"
	"topmine/internal/topicmodel"
)

// Span is a phrase instance within one segment: tokens [Start, End).
type Span = segment.Span

// MergeStep is one executed merge of the phrase-construction algorithm
// (the dendrogram levels of the paper's Figure 1).
type MergeStep = segment.MergeStep

// InferTopics folds unseen raw text into the trained model: the text
// is tokenized against the existing vocabulary (out-of-vocabulary
// words dropped), segmented into phrases with the mined statistics,
// and Gibbs-sampled against the frozen topic-word counts. It returns
// the inferred topic mixture. The Result is not modified.
//
// The heavy lifting delegates to the cached Inferencer, so repeated
// and concurrent calls share one pre-built segmenter.
func (r *Result) InferTopics(text string, iters int) []float64 {
	inf, err := r.Inferencer()
	if err != nil {
		panic(err)
	}
	return inf.InferTopics(text, iters)
}

// BestTopic returns the argmax topic of a mixture returned by
// InferTopics.
func BestTopic(theta []float64) int { return topicmodel.BestTopic(theta) }

// SegmentTrace is the phrase-construction history of one text segment:
// the display tokens, the merges in execution order with their
// significance scores, and the final phrases — everything needed to
// draw the paper's Figure 1 dendrogram.
type SegmentTrace struct {
	Tokens  []string
	Steps   []MergeStep
	Phrases []string
}

// TraceText segments unseen text with the mined statistics and records
// every merge, per segment. Like InferTopics it delegates to the
// cached Inferencer.
func (r *Result) TraceText(text string) []SegmentTrace {
	inf, err := r.Inferencer()
	if err != nil {
		panic(err)
	}
	return inf.TraceText(text)
}

// KSelection reports the held-out perplexity of each candidate topic
// count, sorted ascending by K.
type KSelection struct {
	K          []int
	Perplexity []float64
	BestK      int
}

// SelectTopics trains one model per candidate K on a document-
// completion split of the corpus and returns the K with the lowest
// held-out perplexity — a practical stand-in for the nonparametric
// topic-count estimation the paper's §8 proposes as future work.
// Mining and segmentation run once and are shared across candidates.
func SelectTopics(c *Corpus, ks []int, opt Options, holdout float64) (KSelection, error) {
	sel := KSelection{}
	if opt.Topics <= 0 && len(ks) > 0 && ks[0] > 0 {
		opt.Topics = ks[0] // Topics is overridden per candidate anyway
	}
	if err := opt.Normalize(); err != nil {
		return sel, err
	}
	if holdout <= 0 || holdout >= 1 {
		holdout = 0.2
	}
	ks = append([]int(nil), ks...)
	sort.Ints(ks)
	ho := SplitHeldOut(c, holdout)
	mined := MinePhrases(ho.Train, opt)
	segs := SegmentCorpus(ho.Train, mined, opt)
	best, bestPPL := 0, 0.0
	for _, k := range ks {
		o := opt
		o.Topics = k
		m := TrainModel(ho.Train, segs, o)
		ppl := Perplexity(m, ho)
		sel.K = append(sel.K, k)
		sel.Perplexity = append(sel.Perplexity, ppl)
		if best == 0 || ppl < bestPPL {
			best, bestPPL = k, ppl
		}
	}
	sel.BestK = best
	return sel, nil
}
