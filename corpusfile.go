package topmine

import (
	"fmt"
	"sync"

	"topmine/internal/corpus"
	"topmine/internal/corpusfile"
)

// This file is the public face of the persistent corpus store
// (internal/corpusfile): preprocessing runs once, its output — the
// columnar corpus plus the mined phrases and phrase partitions — is
// persisted as a .tpc file, and every later training job starts from
// OpenCorpusFile in milliseconds with the token arena mmap'd straight
// out of the file (so corpora larger than RAM stay trainable; the
// kernel pages token data on demand).
//
//	# preprocess once
//	res, _ := topmine.Preprocess(src, opt)
//	topmine.SaveCorpusFile("corpus.tpc", res)
//
//	# train many, varying K/iterations/seed freely
//	res, _ := topmine.RunCorpusFile("corpus.tpc", opt)
//	defer res.Close()

// Preprocess runs the front half of the pipeline — streaming ingest,
// frequent phrase mining (Algorithm 1) and phrase segmentation
// (Algorithm 2) — without training a topic model. The returned Result
// carries Corpus, Mined and Segmented (Model and Topics are nil) and
// is what SaveCorpusFile persists. opt.Topics is not needed and
// defaults when unset.
func Preprocess(src Source, opt Options) (*Result, error) {
	copt := DefaultCorpusOptions()
	copt.Workers = opt.Workers
	c, err := corpus.BuildFromSource(src, copt)
	if err != nil {
		return nil, err
	}
	return PreprocessCorpus(c, opt)
}

// PreprocessCorpus is Preprocess over a prebuilt corpus.
func PreprocessCorpus(c *Corpus, opt Options) (*Result, error) {
	if opt.Topics <= 0 {
		opt.Topics = 10 // irrelevant to mining/segmentation; satisfy validation
	}
	if err := opt.Normalize(); err != nil {
		return nil, err
	}
	res := &Result{Corpus: c, Options: opt}
	res.Mined, res.Segmented = artifacts(c, nil, opt)
	return res, nil
}

// SaveCorpusFile persists a Result's preprocessed corpus as a .tpc
// corpus file at path (written atomically). When the Result carries
// mined phrases they are bundled — together with Segmented, when
// present — so a later RunCorpusFile with matching mining parameters
// skips straight to Gibbs training. A Result with only a Corpus saves
// a corpus-only file; training jobs then redo mining and segmentation
// (still skipping ingest).
func SaveCorpusFile(path string, r *Result) error {
	return saveCorpusFile("SaveCorpusFile", path, r, false)
}

// saveCorpusFile is the body of SaveCorpusFile and (with sketched)
// SaveCorpusFileSketched; caller names the entry point in errors.
func saveCorpusFile(caller, path string, r *Result, sketched bool) error {
	switch {
	case r == nil:
		return fmt.Errorf("topmine: %s: nil Result", caller)
	case r.Corpus == nil || r.Corpus.Vocab == nil:
		return fmt.Errorf("topmine: %s: Result has no corpus", caller)
	}
	var art *corpusfile.Artifacts
	if r.Mined != nil {
		art = &corpusfile.Artifacts{
			Params: artifactParams(r.Options),
			Mined:  r.Mined,
			Segs:   r.Segmented,
		}
	}
	if sketched {
		return corpusfile.WriteFileSketched(path, r.Corpus, art, corpusfile.ComputeSketches(r.Corpus, 0))
	}
	return corpusfile.WriteFile(path, r.Corpus, art)
}

// artifactParams extracts the option subset that determines mining and
// segmentation output. Artifacts are reused only under an exact match.
func artifactParams(opt Options) corpusfile.Params {
	return corpusfile.Params{
		MinSupport:      opt.MinSupport,
		RelativeSupport: opt.RelativeSupport,
		MaxPhraseLen:    opt.MaxPhraseLen,
		SigThreshold:    opt.SigThreshold,
	}
}

// CorpusFile is an opened .tpc corpus file. On little-endian unix
// hosts the corpus's token arena is a zero-copy view into the mmap'd
// file (Mapped reports true); elsewhere the file is read into memory
// with identical results.
//
// The mapping is reference-counted: the open handle holds one
// reference and every Result returned by Run holds another, so
// "preprocess once, train many" is safe — closing one Result (or the
// handle) never unmaps the arena out from under the others. The
// region is released when the handle and every Result are closed.
type CorpusFile struct {
	f *corpusfile.File

	mu     sync.Mutex
	refs   int  // open handle (1) + outstanding Results
	closed bool // the handle's own reference already released
}

// OpenCorpusFile opens a corpus file written by SaveCorpusFile.
// Corrupted, truncated or foreign files return errors classifiable
// with the corpusfile named error values — never a panic.
func OpenCorpusFile(path string) (*CorpusFile, error) {
	f, err := corpusfile.Open(path)
	if err != nil {
		return nil, err
	}
	return &CorpusFile{f: f, refs: 1}, nil
}

// retain adds one reference to the mapping, failing once the last
// reference has gone (the region may already be unmapped — handing
// out another view would trade this error for a segfault).
func (cf *CorpusFile) retain() bool {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.refs <= 0 {
		return false
	}
	cf.refs++
	return true
}

// release drops one reference, unmapping when the last one goes.
func (cf *CorpusFile) release() error {
	cf.mu.Lock()
	cf.refs--
	last := cf.refs == 0
	cf.mu.Unlock()
	if last {
		return cf.f.Close()
	}
	return nil
}

// resultCloser is the per-Result handle on the shared mapping.
type resultCloser struct{ cf *CorpusFile }

func (rc *resultCloser) Close() error { return rc.cf.release() }

// Corpus returns the reconstructed corpus (valid until Close).
func (cf *CorpusFile) Corpus() *Corpus { return cf.f.Corpus() }

// Mined returns the bundled phrase-mining result, or nil for a
// corpus-only file.
func (cf *CorpusFile) Mined() *MinedPhrases { return cf.f.Mined() }

// Segmented returns the bundled phrase partitions, or nil.
func (cf *CorpusFile) Segmented() []*SegmentedDoc { return cf.f.Segmented() }

// Mapped reports whether the token arena aliases an mmap'd file.
func (cf *CorpusFile) Mapped() bool { return cf.f.Mapped() }

// Close releases the handle's reference on the mapping. The region is
// actually unmapped once every Result trained from this file is also
// closed; until then their corpora stay valid. Close is idempotent.
func (cf *CorpusFile) Close() error {
	cf.mu.Lock()
	if cf.closed {
		cf.mu.Unlock()
		return nil
	}
	cf.closed = true
	cf.mu.Unlock()
	return cf.release()
}

// CanReuseArtifacts reports whether the file bundles mining artifacts
// produced under exactly the mining/segmentation parameters of opt.
// A Run with those options then skips phrase mining, and also skips
// segmentation when the file stores the phrase partitions (Segmented
// non-nil); a mined-only file still recomputes segmentation.
func (cf *CorpusFile) CanReuseArtifacts(opt Options) bool {
	if cf.f.Mined() == nil {
		return false
	}
	if opt.Topics <= 0 {
		opt.Topics = 10
	}
	if err := opt.Normalize(); err != nil {
		return false
	}
	return cf.f.Params() == artifactParams(opt)
}

// Run trains a topic model from the opened corpus file: stored mining
// and segmentation artifacts are reused when their parameters match
// opt (recomputed from the corpus otherwise), then PhraseLDA trains
// exactly as RunCorpus would — for a fixed seed the topics are
// byte-identical to a full in-memory run over the same documents.
//
// Run may be called any number of times per open file (varying K,
// seed, iterations); every returned Result holds its own reference on
// the mapping, released by Result.Close. The region is unmapped when
// the handle and all Results are closed.
func (cf *CorpusFile) Run(opt Options) (*Result, error) {
	if err := opt.Normalize(); err != nil {
		return nil, err
	}
	// Hold a reference for the whole run: training reads the mmap'd
	// arena throughout, and the returned Result keeps aliasing it.
	if !cf.retain() {
		return nil, fmt.Errorf("topmine: CorpusFile.Run: corpus file is closed (mapping released)")
	}
	c := cf.f.Corpus()
	mined, segs := artifacts(c, cf, opt)
	res := trained(c, mined, segs, TrainModel(c, segs, opt), opt)
	res.closer = &resultCloser{cf: cf} // adopts the reference taken above
	return res, nil
}

// RunCorpusFile executes the back half of the pipeline against a .tpc
// corpus file: open (mmap), reuse the stored preprocessing, train,
// visualize. Call Result.Close when done to release the mapping (the
// transient open handle is already released here).
func RunCorpusFile(path string, opt Options) (*Result, error) {
	cf, err := OpenCorpusFile(path)
	if err != nil {
		return nil, err
	}
	res, err := cf.Run(opt)
	cf.Close() // drop the handle's reference; res (if any) keeps its own
	if err != nil {
		return nil, err
	}
	return res, nil
}
