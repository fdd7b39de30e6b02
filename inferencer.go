package topmine

import (
	"fmt"
	"sync"

	"topmine/internal/corpus"
	"topmine/internal/segment"
	"topmine/internal/topicmodel"
)

// Inferencer is the serving-side view of a trained pipeline: the
// vocabulary, mined phrase statistics, and frozen topic-word counts of
// a Result (or a loaded snapshot), with the segmenter and the sparse
// inference index (topicmodel.InferIndex) built once at construction
// instead of once per call.
//
// An Inferencer is safe for concurrent use: every method reads the
// trained artifacts without mutating them, and all randomness lives in
// per-call RNG state seeded deterministically from the pipeline seed
// and a hash of the input text. The same text therefore yields the
// same result on every call, from any number of goroutines.
type Inferencer struct {
	vocab *Corpus // vocabulary carrier; Docs may be empty (snapshot path)
	seg   *segment.Segmenter
	// index owns its copy of the trained counts and priors, so training
	// that continues on the source Model never reaches a live
	// Inferencer; nil for a mining-only Result.
	index  *topicmodel.InferIndex
	opt    Options
	copt   CorpusOptions
	topics []TopicSummary
	// phrases is captured at construction so serving stats never touch
	// the (potentially large) mined counter after startup.
	phrases int
	// scratch pools the per-request working memory — the tokenizer
	// and the mapped ids every method uses, the segmenter workspace,
	// and for InferTopics the clique headers plus the Gibbs buffers and
	// RNG (topicmodel.InferScratch) — so a warm request allocates only
	// what it returns.
	scratch sync.Pool
}

// inferScratch is the pooled per-request working memory.
type inferScratch struct {
	tk      *corpus.Tokenizer
	ids     []int32 // the request's in-vocabulary ids, segments concatenated
	ends    []int32 // each segment's end offset into ids
	seg     segment.Workspace
	cliques [][]int32 // slices of ids
	ts      topicmodel.InferScratch
}

// Stats summarises the trained artifacts behind an Inferencer — the
// cheap, precomputed numbers a serving layer exposes per model.
type Stats struct {
	// Topics is K, or 0 for a mining-only pipeline.
	Topics int
	// VocabSize is the number of distinct stems in the vocabulary.
	VocabSize int
	// Phrases is the number of mined frequent phrases (all lengths).
	Phrases int
	// Seed is the pipeline seed the per-call RNG streams derive from.
	Seed uint64
}

// NewInferencer builds an Inferencer from a pipeline Result. The
// Result must carry a corpus (for its vocabulary) and mined phrase
// statistics; Segmented is not required, so snapshot-loaded Results
// qualify. A Result without a trained Model (a mining-only pipeline)
// still supports Segment and TraceText — only InferTopics needs the
// model. The Inferencer captures the Result's artifacts at
// construction — the topic model by value, in one pass over its V·K
// counts — so populate every field before the call.
func NewInferencer(r *Result) (*Inferencer, error) {
	switch {
	case r == nil:
		return nil, fmt.Errorf("topmine: NewInferencer: nil Result")
	case r.Corpus == nil || r.Corpus.Vocab == nil:
		return nil, fmt.Errorf("topmine: NewInferencer: Result has no corpus vocabulary")
	case r.Mined == nil:
		return nil, fmt.Errorf("topmine: NewInferencer: Result has no mined phrases")
	}
	// Normalise unseen text exactly as the training corpus was built.
	// Corpora constructed by BuildCorpus/LoadCorpus* record their
	// options (and snapshots persist them); callers hand-assembling a
	// Corpus literal must set BuildOpts themselves — the zero value
	// legitimately means no stemming and no stop-word removal.
	inf := &Inferencer{
		vocab: r.Corpus,
		seg: segment.NewSegmenter(r.Mined, segment.Options{
			Alpha:        r.Options.SigThreshold,
			MaxPhraseLen: r.Options.MaxPhraseLen,
			Workers:      1,
		}),
		opt:     r.Options,
		copt:    r.Corpus.BuildOpts,
		topics:  r.Topics,
		phrases: r.Mined.Counts.Len(),
	}
	if r.Model != nil {
		// A merge needs its phrase mined, so no clique the segmenter
		// emits is longer than the longest mined phrase.
		inf.index = topicmodel.NewInferIndex(r.Model, r.Mined.MaxPhraseLen)
	}
	inf.scratch.New = func() any { return &inferScratch{tk: corpus.NewTokenizer(inf.copt)} }
	return inf, nil
}

// Stats returns the precomputed model summary; it never allocates and
// is safe to call on every request.
func (inf *Inferencer) Stats() Stats {
	return Stats{
		Topics:    inf.NumTopics(),
		VocabSize: inf.vocab.Vocab.Size(),
		Phrases:   inf.phrases,
		Seed:      inf.opt.Seed,
	}
}

// NumTopics returns K, the number of topics of the underlying model,
// or 0 when the source Result carried no trained model.
func (inf *Inferencer) NumTopics() int {
	if inf.index == nil {
		return 0
	}
	return inf.index.NumTopics()
}

// Topics returns the rendered topic summaries captured at training
// time (nil when the source Result carried none). The slice is shared;
// callers must not mutate it.
func (inf *Inferencer) Topics() []TopicSummary { return inf.topics }

// callSeed derives the per-call RNG seed: the pipeline seed mixed with
// a 64-bit FNV-1a hash of the text, so distinct texts draw from
// independent streams while repeated calls with the same text are
// bit-identical. The hash runs over the string in place.
func (inf *Inferencer) callSeed(text string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(text); i++ {
		h ^= uint64(text[i])
		h *= prime64
	}
	return inf.opt.Seed ^ h ^ 0x1f2e3d
}

// mapText tokenizes text against the vocabulary into sc.ids and
// sc.ends, normalised exactly as the training corpus was built.
func (inf *Inferencer) mapText(text string, sc *inferScratch) {
	sc.ids, sc.ends = sc.tk.MapInto(text, inf.vocab.Vocab, sc.ids[:0], sc.ends[:0])
}

// segmentWords returns mapped segment i of sc.
func (sc *inferScratch) segmentWords(i int) []int32 {
	start := int32(0)
	if i > 0 {
		start = sc.ends[i-1]
	}
	return sc.ids[start:sc.ends[i]:sc.ends[i]]
}

// cliquesInto maps the request's segments through the segmenter into
// phrase cliques — the unit the topic model samples. The cliques slice
// sc.ids and are valid until the scratch's next use.
func (inf *Inferencer) cliquesInto(sc *inferScratch) [][]int32 {
	cliques := sc.cliques[:0]
	for si := range sc.ends {
		words := sc.segmentWords(si)
		for _, sp := range inf.seg.PartitionWith(words, &sc.seg) {
			cliques = append(cliques, words[sp.Start:sp.End:sp.End])
		}
	}
	sc.cliques = cliques
	return cliques
}

// InferTopics folds unseen raw text into the trained model: the text
// is tokenized against the existing vocabulary (out-of-vocabulary
// words dropped), segmented into phrases with the mined statistics,
// and Gibbs-sampled against the frozen topic-word counts. It returns
// the inferred topic mixture and never modifies the model. It panics
// when the source Result carried no trained model.
//
// Note that iters counts sampling sweeps; the model runs an equal
// burn-in first, so one call costs 2×iters sweeps (see
// topicmodel.InferIndex.InferTheta). A sweep costs O(K_d + K_w) per
// token — the document's and the word's non-zero topics — not O(K).
func (inf *Inferencer) InferTopics(text string, iters int) []float64 {
	theta, _ := inf.InferTopicsTokens(text, iters)
	return theta
}

// InferTopicsTokens is InferTopics plus the number of in-vocabulary
// tokens the text mapped to. A zero count means every word was
// out-of-vocabulary (or the text was empty): the returned mixture is
// the bare Dirichlet prior, and its argmax carries no signal — callers
// surfacing a "best topic" should treat tokens==0 as "no answer"
// rather than a confident topic 0.
func (inf *Inferencer) InferTopicsTokens(text string, iters int) ([]float64, int) {
	if inf.index == nil {
		panic("topmine: InferTopics requires a trained model; this Inferencer was built from a mining-only Result")
	}
	sc := inf.scratch.Get().(*inferScratch)
	inf.mapText(text, sc)
	tokens := len(sc.ids)
	theta := inf.index.InferTheta(inf.cliquesInto(sc), iters, inf.callSeed(text), &sc.ts)
	inf.scratch.Put(sc)
	return theta, tokens
}

// Segment partitions unseen raw text into phrases with the mined
// statistics: one string slice per punctuation-delimited segment, each
// element a display-form phrase.
func (inf *Inferencer) Segment(text string) [][]string {
	sc := inf.scratch.Get().(*inferScratch)
	inf.mapText(text, sc)
	out := make([][]string, 0, len(sc.ends))
	for si := range sc.ends {
		words := sc.segmentWords(si)
		spans := inf.seg.PartitionWith(words, &sc.seg)
		phrases := make([]string, len(spans))
		for i, sp := range spans {
			phrases[i] = inf.vocab.DisplayWords(words[sp.Start:sp.End])
		}
		out = append(out, phrases)
	}
	inf.scratch.Put(sc)
	return out
}

// TraceText segments unseen text with the mined statistics and records
// every merge, per segment — the serving-path equivalent of
// Result.TraceText.
func (inf *Inferencer) TraceText(text string) []SegmentTrace {
	var out []SegmentTrace
	sc := inf.scratch.Get().(*inferScratch)
	inf.mapText(text, sc)
	for si := range sc.ends {
		words := sc.segmentWords(si)
		spans, steps := inf.seg.TracePartitionWith(words, &sc.seg)
		tr := SegmentTrace{Steps: steps}
		for _, w := range words {
			tr.Tokens = append(tr.Tokens, inf.vocab.Vocab.Unstem(w))
		}
		for _, sp := range spans {
			tr.Phrases = append(tr.Phrases, inf.vocab.DisplayWords(words[sp.Start:sp.End]))
		}
		out = append(out, tr)
	}
	inf.scratch.Put(sc)
	return out
}
