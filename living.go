package topmine

import (
	"fmt"

	"topmine/internal/corpusfile"
	"topmine/internal/topicmodel"
)

// This file is the public face of "living corpora": a .tpc corpus file
// is not a one-shot artifact but an index that grows with its corpus.
//
//	# grow a stored corpus in place (old bytes untouched)
//	stats, _ := topmine.AppendCorpusFile("corpus.tpc", src, topmine.AppendOptions{Dedup: true})
//
//	# combine independently preprocessed shards
//	topmine.MergeCorpusFiles("all.tpc", "shard1.tpc", "shard2.tpc")
//
//	# continue training a snapshot over the grown corpus
//	res, _ := topmine.LoadSnapshotFile("model.tpm") // saved with training state
//	cf, _ := topmine.OpenCorpusFile("corpus.tpc")
//	err := res.UpdateTraining(cf, 200)

// AppendOptions controls AppendCorpusFile (near-duplicate suppression,
// sketch persistence).
type AppendOptions = corpusfile.AppendOptions

// AppendStats reports what one AppendCorpusFile call did.
type AppendStats = corpusfile.AppendStats

// MergeStats reports what MergeCorpusFiles produced, including why
// bundled artifacts were dropped when they could not be re-aggregated
// exactly.
type MergeStats = corpusfile.MergeStats

// AppendCorpusFile grows the .tpc corpus file at path with the
// documents of src, in place and atomically: the stored image is
// copied byte-for-byte (every section CRC preserved) and one appended
// segment carries the new documents, so append cost scales with the
// appended text, not the stored corpus. The grown file is equivalent
// to one preprocessed from the concatenated input — it trains
// identically, and re-persisting it reproduces a from-scratch build's
// bytes. Bundled mining/segmentation artifacts describe only the
// pre-append corpus; after an append, OpenCorpusFile reports them
// stale (StaleArtifacts) and training recomputes them over the union.
//
// With opt.Dedup, incoming documents whose estimated Jaccard
// similarity to any stored (or earlier-in-batch) document reaches
// opt.DedupThreshold (default 0.9) are skipped; the skip total is
// returned in AppendStats.DocsSkipped.
func AppendCorpusFile(path string, src Source, opt AppendOptions) (*AppendStats, error) {
	return corpusfile.AppendFile(path, src, opt)
}

// MergeCorpusFiles k-way-merges independently preprocessed .tpc files
// into a fresh single-segment file at dst (written atomically). The
// merged corpus is bit-identical to one preprocessed from the
// concatenated inputs. Bundled phrase statistics are re-aggregated
// exactly when every source was mined with identical parameters and no
// support pruning; otherwise they are dropped with the reason recorded
// in MergeStats — re-mine the merged corpus.
func MergeCorpusFiles(dst string, srcs ...string) (*MergeStats, error) {
	return corpusfile.MergeFiles(dst, srcs...)
}

// SaveCorpusFileSketched is SaveCorpusFile plus a per-document
// min-hash sketch section, so later AppendCorpusFile calls with Dedup
// compare incoming documents against the stored corpus without
// retokenizing it.
func SaveCorpusFileSketched(path string, r *Result) error {
	return saveCorpusFile("SaveCorpusFileSketched", path, r, true)
}

// Version reports the file's format version: 1 for a single-segment
// file, 2 once it has been grown by AppendCorpusFile.
func (cf *CorpusFile) Version() uint16 { return cf.f.Version() }

// AppendedSegments reports how many appended segments the file
// carries (0 for a file never grown in place).
func (cf *CorpusFile) AppendedSegments() int { return cf.f.AppendedSegments() }

// StaleArtifacts explains why bundled mining/segmentation artifacts
// were dropped at open time ("" when nothing was dropped): artifacts
// written before an append describe only the pre-append corpus.
func (cf *CorpusFile) StaleArtifacts() string { return cf.f.StaleArtifacts() }

// UpdateTraining continues this Result's Gibbs training over the grown
// corpus in cf — the incremental path for corpora that gained
// documents (AppendCorpusFile, MergeCorpusFiles) since the model
// trained. The Result must carry training state (Resumable, as saved
// by SaveTrainingSnapshot), and cf's corpus must extend the one the
// model trained on: same preprocessing, the old vocabulary as an
// id-for-id prefix, the old documents first.
//
// Existing documents keep their Gibbs assignments; the grown corpus is
// re-mined and re-segmented (reusing cf's stored artifacts when their
// parameters match), the count arenas reshape for the grown
// vocabulary, and the new documents' cliques are initialised from the
// trained model's conditional — then iters more sweeps run over the
// union. The whole update is deterministic for a fixed seed. iters may
// be 0 to only fold the new documents in and re-render Topics.
//
// On success the Result adopts cf's corpus (holding its own reference
// on the mapping, like CorpusFile.Run) and releases whatever backed
// the previous corpus. On error the Result is unchanged.
func (r *Result) UpdateTraining(cf *CorpusFile, iters int) error {
	if iters < 0 {
		return fmt.Errorf("topmine: UpdateTraining: iters must be >= 0, got %d", iters)
	}
	if !r.Resumable() {
		return fmt.Errorf("topmine: UpdateTraining: model carries no training state; save with SaveTrainingSnapshot (topmine train -save -save-state) to update later")
	}
	if r.Corpus == nil || r.Corpus.Vocab == nil {
		return fmt.Errorf("topmine: UpdateTraining: Result has no corpus")
	}
	// The model's documents are the training-corpus count; a Result
	// loaded from a training snapshot carries them even though its
	// Corpus deliberately stores no documents.
	oldD := len(r.Model.Docs)
	if n := len(r.Corpus.Docs); n != 0 && n != oldD {
		return fmt.Errorf("topmine: UpdateTraining: model trained on %d documents but the Result's corpus has %d",
			oldD, n)
	}
	if !cf.retain() {
		return fmt.Errorf("topmine: UpdateTraining: corpus file is closed (mapping released)")
	}
	c := cf.Corpus()
	fail := func(err error) error {
		cf.release()
		return err
	}
	if len(c.Docs) < oldD {
		return fail(fmt.Errorf("topmine: UpdateTraining: corpus file has %d documents, fewer than the model's %d — not a grown version of the training corpus",
			len(c.Docs), oldD))
	}
	if !r.Corpus.Vocab.IsPrefixOf(c.Vocab) {
		return fail(fmt.Errorf("topmine: UpdateTraining: the corpus file's vocabulary does not extend the model's — the file is not a grown version of the training corpus"))
	}

	// Phrase statistics must cover the union: reuse the file's bundled
	// artifacts when their parameters match, recompute otherwise (an
	// appended file always recomputes — its artifacts went stale).
	mined, segs := artifacts(c, cf, r.Options)

	newDocs := topicmodel.DocsFromSegmentation(c, segs[oldD:])
	if err := r.Model.Extend(newDocs, c.Vocab.Size(), r.Options.Seed); err != nil {
		return fail(err)
	}

	// Point of no return: the model now spans the union. Adopt the
	// grown corpus and release whatever backed the old one.
	r.Corpus, r.Mined, r.Segmented = c, mined, segs
	r.inferMu.Lock()
	oldCloser := r.closer
	r.closer = &resultCloser{cf: cf} // adopts the reference taken above
	r.inferer = nil                  // captured the pre-update corpus and counts
	r.inferMu.Unlock()
	if oldCloser != nil {
		oldCloser.Close()
	}

	if iters > 0 {
		return r.ResumeTraining(iters)
	}
	r.render()
	return nil
}
