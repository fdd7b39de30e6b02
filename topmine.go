// Package topmine implements ToPMine (El-Kishky, Song, Wang, Voss,
// Han: "Scalable Topical Phrase Mining from Text Corpora", VLDB 2014):
// scalable discovery of topical phrases of mixed length by frequent
// contiguous phrase mining, statistically-guided document segmentation
// and phrase-constrained topic modeling (PhraseLDA).
//
// The one-call entry point:
//
//	result, err := topmine.Run(docs, topmine.DefaultOptions())
//	for _, t := range result.Topics {
//		fmt.Println(t.Unigrams, t.Phrases)
//	}
//
// Each pipeline stage (corpus building, mining, segmentation, topic
// modeling, visualisation) is also exposed separately for callers that
// need intermediate artifacts; see Result and the methods on its
// fields. All randomness is seeded: identical inputs and options give
// identical outputs.
package topmine

import (
	"fmt"
	"io"
	"sync"

	"topmine/internal/core"
	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
	"topmine/internal/topicmodel"
)

// Re-exported pipeline types. The implementation lives in internal
// packages; these aliases make every artifact nameable by API users.
type (
	// Corpus is a tokenised, stemmed, stop-word-filtered document
	// collection with a shared vocabulary.
	Corpus = corpus.Corpus
	// Document is one corpus document (a sequence of punctuation-
	// delimited segments).
	Document = corpus.Document
	// CorpusOptions controls raw-text preprocessing.
	CorpusOptions = corpus.BuildOptions
	// MinedPhrases is the output of frequent phrase mining (Alg. 1).
	MinedPhrases = phrasemine.Result
	// PhraseCount is one frequent phrase with its corpus count.
	PhraseCount = counter.Entry
	// SegmentedDoc is one document's partition into phrases (Alg. 2).
	SegmentedDoc = segment.SegmentedDoc
	// Model is a trained PhraseLDA (or LDA) topic model.
	Model = topicmodel.Model
	// TopicSummary is one topic's visualisation: top unigrams and top
	// phrases by topical frequency (Eq. 8).
	TopicSummary = topicmodel.TopicSummary
	// PhraseInfo is one ranked phrase in a topic summary.
	PhraseInfo = topicmodel.PhraseInfo
	// VisualizeOptions controls topic rendering (list lengths,
	// background-phrase filtering).
	VisualizeOptions = topicmodel.VisualizeOptions
	// HeldOut is a document-completion split for perplexity evaluation.
	HeldOut = corpus.HeldOut
)

// Options configures the full ToPMine pipeline. It is the one config
// every stage reads; see internal/core for its fields.
type Options = core.Options

// DefaultOptions mirrors the paper's configuration: ε=5 absolute
// support, α=5 significance, K=10 topics, 1000 sweeps, hyperparameter
// optimisation on.
func DefaultOptions() Options {
	return Options{
		MinSupport:    5,
		MaxPhraseLen:  8,
		SigThreshold:  5,
		Topics:        10,
		Iterations:    1000,
		OptimizeHyper: true,
		TopUnigrams:   10,
		TopPhrases:    10,
	}
}

// Result carries every artifact of a pipeline run.
type Result struct {
	// Corpus is the preprocessed input.
	Corpus *Corpus
	// Mined holds the frequent phrases and aggregate counts (Alg. 1).
	Mined *MinedPhrases
	// Segmented holds each document's phrase partition (Alg. 2).
	Segmented []*SegmentedDoc
	// Model is the trained PhraseLDA model.
	Model *Model
	// Topics are the rendered topic summaries.
	Topics []TopicSummary
	// Options echoes the (filled) options the pipeline ran with.
	Options Options

	// inferencer caches the serving-side view built on first use by
	// InferTopics/TraceText/Inferencer; see inferencer.go.
	inferMu sync.Mutex
	inferer *Inferencer

	// closer releases the resources the Result borrows — the mmap'd
	// corpus file backing Corpus when the Result came from
	// RunCorpusFile, nil otherwise.
	closer io.Closer
}

// Close releases any resources backing the Result — currently the
// corpus-file mapping when the Result was trained via RunCorpusFile.
// After Close, the Result's Corpus (and anything aliasing its token
// arena) must not be used; the trained Model, Topics and snapshots
// saved earlier remain valid. Close is a no-op for in-memory Results,
// idempotent, and safe to call concurrently (the swap under the lock
// guarantees the underlying reference is released exactly once).
func (r *Result) Close() error {
	r.inferMu.Lock()
	c := r.closer
	r.closer = nil
	r.inferMu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}

// Inferencer returns the concurrency-safe serving view of this result,
// building it on the first successful call and caching it. The
// returned Inferencer pre-builds the segmenter once, so it is the
// cheap path for repeated or concurrent inference. The view captures
// the Result's artifacts at first use: populate Corpus, Mined, and
// Model before calling, as later field mutation is not observed.
// Construction errors are not cached — a Result completed after a
// failed early call works on retry.
func (r *Result) Inferencer() (*Inferencer, error) {
	r.inferMu.Lock()
	defer r.inferMu.Unlock()
	if r.inferer != nil {
		return r.inferer, nil
	}
	inf, err := NewInferencer(r)
	if err != nil {
		return nil, err
	}
	r.inferer = inf
	return inf, nil
}

// FrequentPhrases lists mined phrases with at least minWords words,
// most frequent first.
func (r *Result) FrequentPhrases(minWords int) []PhraseCount {
	return r.Mined.Counts.Entries(minWords)
}

// PhraseString renders a mined phrase's words for display.
func (r *Result) PhraseString(p PhraseCount) string {
	return r.Corpus.DisplayWords(p.Words)
}

// Source yields raw documents one at a time — the streaming input to
// BuildCorpusFromSource and RunSource, letting corpora far larger than
// memory ingest without materialising a []string. A Source's Next
// returns ok=false with a nil error at end of input.
type Source = corpus.Source

// SliceSource adapts an in-memory document slice to a Source.
func SliceSource(docs []string) Source { return corpus.SliceSource(docs) }

// LineSource adapts a reader to a Source, one document per line (lines
// up to 16 MiB).
func LineSource(r io.Reader) Source { return corpus.LineSource(r) }

// JSONLSource adapts a JSON-lines reader to a Source, taking each
// object's given string field as the document text.
func JSONLSource(r io.Reader, field string) Source { return corpus.JSONLSource(r, field) }

// TSVSource adapts a tab-separated reader to a Source, taking the
// given zero-based column as the document text.
func TSVSource(r io.Reader, column int) Source { return corpus.TSVSource(r, column) }

// MaybeDecompress sniffs r's leading magic bytes and transparently
// decompresses gzip streams (multi-member files included), so
// compressed corpora feed LineSource/JSONLSource without a manual
// pipe. Plain input passes through buffered; zstd input returns an
// error suggesting `zstd -dc` (the standard library has no zstd
// reader). LoadCorpusFile and LoadCorpusJSONL already apply this.
func MaybeDecompress(r io.Reader) (io.Reader, error) { return corpus.MaybeDecompress(r) }

// BuildCorpus preprocesses raw documents (one string each) with the
// paper's pipeline: punctuation segmentation, lower-casing, stop-word
// removal with gap tracking, Porter stemming.
func BuildCorpus(docs []string, opt CorpusOptions) *Corpus {
	return corpus.FromStrings(docs, opt)
}

// BuildCorpusFromSource streams documents out of src into a corpus,
// tokenizing on opt.Workers goroutines (0 = all cores). Memory stays
// proportional to the built corpus — raw text is never accumulated —
// and the result is bit-identical to BuildCorpus over the same
// documents, for any worker count.
func BuildCorpusFromSource(src Source, opt CorpusOptions) (*Corpus, error) {
	return corpus.BuildFromSource(src, opt)
}

// DefaultCorpusOptions mirrors the paper's preprocessing.
func DefaultCorpusOptions() CorpusOptions { return corpus.DefaultBuildOptions() }

// LoadCorpusFile reads a one-document-per-line file.
func LoadCorpusFile(path string, opt CorpusOptions) (*Corpus, error) {
	return corpus.LoadFile(path, opt)
}

// LoadCorpusJSONL reads a JSON-lines file, taking each object's given
// string field as the document text (e.g. "text" for review dumps).
func LoadCorpusJSONL(path, field string, opt CorpusOptions) (*Corpus, error) {
	return corpus.LoadJSONLFile(path, field, opt)
}

// Run executes the full pipeline on raw documents.
func Run(docs []string, opt Options) (*Result, error) {
	return RunSource(SliceSource(docs), opt)
}

// RunSource executes the full pipeline on documents streamed from src,
// preprocessing them with DefaultCorpusOptions on opt.Workers cores.
// For a fixed seed the result is byte-identical to Run over the same
// documents, at any worker count.
func RunSource(src Source, opt Options) (*Result, error) {
	copt := DefaultCorpusOptions()
	copt.Workers = opt.Workers
	c, err := corpus.BuildFromSource(src, copt)
	if err != nil {
		return nil, err
	}
	return RunCorpus(c, opt)
}

// RunCorpus executes the full pipeline on a prebuilt corpus.
func RunCorpus(c *Corpus, opt Options) (*Result, error) {
	if err := opt.Normalize(); err != nil {
		return nil, err
	}
	mined, segs := artifacts(c, nil, opt)
	return trained(c, mined, segs, TrainModel(c, segs, opt), opt), nil
}

// artifacts is the one artifact step: c's mined phrases and
// segmentation under opt — cf's stored ones when their parameters match
// (cf may be nil), recomputed otherwise. opt must be normalised.
func artifacts(c *Corpus, cf *CorpusFile, opt Options) (*MinedPhrases, []*SegmentedDoc) {
	var mined *MinedPhrases
	var segs []*SegmentedDoc
	if cf != nil && cf.CanReuseArtifacts(opt) {
		mined, segs = cf.Mined(), cf.Segmented()
	}
	if mined == nil {
		mined = core.Mine(c, opt)
	}
	if segs == nil {
		segs = core.Segment(c, mined, opt)
	}
	return mined, segs
}

// trained wraps a trained model and the artifacts it trained on into a
// Result with its topics rendered. opt must be normalised.
func trained(c *Corpus, mined *MinedPhrases, segs []*SegmentedDoc, model *Model, opt Options) *Result {
	res := &Result{Corpus: c, Mined: mined, Segmented: segs, Model: model, Options: opt}
	res.render()
	return res
}

// render re-renders Topics from the model's current state.
func (r *Result) render() {
	r.Topics = r.Model.Visualize(r.Corpus, core.VisualizeOptions(r.Options))
}

// MinePhrases runs frequent phrase mining (Algorithm 1) alone.
func MinePhrases(c *Corpus, opt Options) *MinedPhrases {
	return core.Mine(c, opt)
}

// SegmentCorpus runs phrase construction (Algorithm 2) alone.
func SegmentCorpus(c *Corpus, mined *MinedPhrases, opt Options) []*SegmentedDoc {
	return core.Segment(c, mined, opt)
}

// The TrainModel*/TrainLDA* entry points below are one path: core.Train
// over the phrase cliques of a segmentation (PhraseLDA) or over one
// clique per token (LDA), with the sampler, the schedule and the
// hyperparameter barriers all taken from opt. Invalid options panic.

// TrainModel trains PhraseLDA on a segmented corpus.
func TrainModel(c *Corpus, segs []*SegmentedDoc, opt Options) *Model {
	return core.Train(c, topicmodel.DocsFromSegmentation(c, segs), opt, nil, nil)
}

// TrainModelWithCallback is TrainModel with a hook invoked after every
// Gibbs sweep (1-based iteration); used for perplexity curves.
func TrainModelWithCallback(c *Corpus, segs []*SegmentedDoc, opt Options, onIter func(int, *Model)) *Model {
	return core.Train(c, topicmodel.DocsFromSegmentation(c, segs), opt, onIter, nil)
}

// TrainModelWithSweepStats is TrainModel with a per-sweep hook: timing
// (serial training has no barrier, so only Sample is set) and where
// the sampler's draws landed.
func TrainModelWithSweepStats(c *Corpus, segs []*SegmentedDoc, opt Options, stats func(SweepStats)) *Model {
	return core.Train(c, topicmodel.DocsFromSegmentation(c, segs), opt, nil, stats)
}

// TrainLDA trains an unconstrained LDA baseline on the same corpus
// (every token its own phrase) — the comparison model of Figures 6-7.
func TrainLDA(c *Corpus, opt Options) *Model {
	return core.Train(c, topicmodel.DocsUnigram(c), opt, nil, nil)
}

// TrainLDAWithCallback is TrainLDA with a per-sweep hook.
func TrainLDAWithCallback(c *Corpus, opt Options, onIter func(int, *Model)) *Model {
	return core.Train(c, topicmodel.DocsUnigram(c), opt, onIter, nil)
}

// SplitHeldOut withholds frac of each document's tokens for perplexity
// evaluation (document completion, as in Figures 6-7).
func SplitHeldOut(c *Corpus, frac float64) *HeldOut {
	return corpus.SplitDocumentCompletion(c, frac, 1)
}

// Perplexity scores held-out tokens under a trained model.
func Perplexity(m *Model, ho *HeldOut) float64 {
	return topicmodel.Perplexity(m, ho.Test)
}

// FormatTopics renders topic summaries as a text table.
func FormatTopics(topics []TopicSummary) string {
	return topicmodel.FormatTopics(topics)
}

// GenerateExampleCorpus produces a synthetic corpus in one of the
// built-in domains modelled on the paper's datasets: "dblp-titles",
// "20conf", "dblp-abstracts", "acl-abstracts", "ap-news",
// "yelp-reviews". It returns raw document strings ready for Run or
// BuildCorpus. See DESIGN.md §5 for why synthetic stand-ins are used.
func GenerateExampleCorpus(domain string, docs int, seed uint64) ([]string, error) {
	f, ok := synth.Domains()[domain]
	if !ok {
		return nil, fmt.Errorf("topmine: unknown domain %q", domain)
	}
	return synth.Generate(f(), synth.Options{Docs: docs, Seed: seed}), nil
}

// ExampleDomains lists the available synthetic domains.
func ExampleDomains() []string {
	return []string{"dblp-titles", "20conf", "dblp-abstracts",
		"acl-abstracts", "ap-news", "yelp-reviews"}
}
