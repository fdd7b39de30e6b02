package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"topmine"
)

// phaseResult is what a child process hands back to the parent: named
// readings, operation counts for the contract's attempted/failed, and
// the reasons of any failed check.
type phaseResult struct {
	Values    map[string]float64 `json:"values"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	// Theta holds the in-memory Result's mixtures for the θ probes
	// (batch phase), compared with the loaded snapshot's by the load
	// phase.
	Theta [][]float64 `json:"theta,omitempty"`
}

func newPhaseResult() *phaseResult { return &phaseResult{Values: map[string]float64{}} }

func (r *phaseResult) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// stager times calls into the program's public stage functions. Every
// stage is a child span of the phase; in a traced run the stage's
// allocation volume is read from the runtime as well.
type stager struct {
	res    *phaseResult
	tr     *tracer
	root   int
	timed  time.Duration // sum of the timed stages
	traced bool
}

// run times f as one stage. f's error fails the stage.
func (s *stager) run(name string, f func() error) time.Duration {
	var before runtime.MemStats
	if s.traced {
		runtime.ReadMemStats(&before)
	}
	id := s.tr.begin(name, s.root, 0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	s.tr.end(id)
	s.timed += d
	s.res.Attempted++
	if err != nil {
		s.res.fail("%s: %v", name, err)
	}
	if s.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.res.Values[name+".alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return d
}

func corpusPath(dir string) string   { return filepath.Join(dir, "corpus.txt") }
func snapshotPath(dir string) string { return filepath.Join(dir, "model.tpm") }

// runBatch is the batch child: what a `topmine` user waits for, from a
// raw text file to a saved .tpm. The held-out split and everything
// after the save are set-up, not batch time.
func runBatch(w workload, seed uint64, dir string, traced bool) (*phaseResult, *tracer) {
	res := newPhaseResult()
	tr := newTracer("batch", traced)
	st := &stager{res: res, tr: tr, traced: traced}
	st.root = tr.begin("batch", 0, 0)
	v := res.Values
	opt := w.options()

	var full *topmine.Corpus
	ingest := st.run("corpus", func() error {
		f, err := os.Open(corpusPath(dir))
		if err != nil {
			return err
		}
		defer f.Close()
		copt := topmine.DefaultCorpusOptions()
		copt.Workers = opt.Workers
		full, err = topmine.BuildCorpusFromSource(topmine.LineSource(f), copt)
		return err
	})
	if full == nil {
		return res, tr
	}
	v["corpus.build_s"] = ingest.Seconds()
	v["corpus.ns_per_tok"] = float64(ingest) / float64(full.TotalTokens)
	v["corpus.docs"] = float64(len(full.Docs))
	v["corpus.tokens"] = float64(full.TotalTokens)
	v["corpus.vocab"] = float64(full.Vocab.Size())

	split := tr.begin("split-held-out", st.root, 0)
	ho := topmine.SplitHeldOut(full, heldOutFrac)
	tr.end(split)
	train := ho.Train
	trainTokens := float64(train.TotalTokens)

	var mined *topmine.MinedPhrases
	var segs []*topmine.SegmentedDoc
	d := st.run("phrasemine", func() error { mined = topmine.MinePhrases(train, opt); return nil })
	v["phrasemine.mine_s"] = d.Seconds()
	v["phrasemine.ns_per_tok"] = float64(d) / trainTokens
	v["phrasemine.phrases"] = float64(mined.Counts.Len())
	v["phrasemine.max_len"] = float64(mined.MaxPhraseLen)

	d = st.run("segment", func() error { segs = topmine.SegmentCorpus(train, mined, opt); return nil })
	v["segment.corpus_s"] = d.Seconds()
	v["segment.ns_per_tok"] = float64(d) / trainTokens

	pre := &topmine.Result{Corpus: train, Mined: mined, Segmented: segs, Options: opt}
	// The corpus store is part of batch_s on the workload that trains
	// from it; elsewhere a traced run writes and opens the file only to
	// read the corpusfile layer's own numbers.
	var cf *topmine.CorpusFile
	if w.corpusStore || traced {
		if cf = corpusStore(st, pre, dir, w.corpusStore); cf != nil {
			defer cf.Close()
		}
	}
	if w.corpusStore {
		// What CorpusFile.Run does: the mapped corpus and its stored
		// artifacts go to training. Run itself offers no per-sweep hook,
		// so the stages below make the calls it makes.
		if cf == nil {
			return res, tr
		}
		train, mined, segs = cf.Corpus(), cf.Mined(), cf.Segmented()
	}

	// Training goes through the per-sweep hook the path offers: the
	// serial sampler reports through the iteration callback, the parallel
	// one through sweep stats. The hook only reads the clock.
	var model *topmine.Model
	var sweeps []time.Duration
	var sample, reconcile time.Duration
	d = st.run("topicmodel.train", func() error {
		mark := time.Now()
		onSweep := func() {
			now := time.Now()
			sweeps = append(sweeps, now.Sub(mark))
			mark = now
		}
		if w.topicWorkers > 1 {
			model = topmine.TrainModelWithSweepStats(train, segs, opt, func(s topmine.SweepStats) {
				sample += s.Sample
				reconcile += s.Reconcile
				onSweep()
			})
		} else {
			model = topmine.TrainModelWithCallback(train, segs, opt, func(int, *topmine.Model) { onSweep() })
		}
		return nil
	})
	v["topicmodel.train_s"] = d.Seconds()
	v["topicmodel.sweep_tok_per_s"] = trainTokens * float64(w.sweeps) / d.Seconds()
	sweepReadings(v, sweeps, sample, reconcile)
	if traced {
		modelSparsity(v, model)
	}

	out := &topmine.Result{Corpus: train, Mined: mined, Segmented: segs, Model: model, Options: opt}
	d = st.run("topicmodel.visualize", func() error {
		out.Topics = model.Visualize(train, topmine.VisualizeOptions{TopUnigrams: opt.TopUnigrams, TopPhrases: opt.TopPhrases})
		return nil
	})
	v["topicmodel.visualize_s"] = d.Seconds()
	finishBatch(w, seed, dir, st, out, ho)
	return res, tr
}

// corpusStore saves the preprocessed corpus as a .tpc and maps it back.
// When the workload trains from the store the two calls are timed
// stages; otherwise they are a per-layer probe outside batch_s.
func corpusStore(st *stager, pre *topmine.Result, dir string, inBatch bool) *topmine.CorpusFile {
	v := st.res.Values
	path := filepath.Join(dir, "corpus.tpc")
	timed := st.timed
	d := st.run("corpusfile.save", func() error { return topmine.SaveCorpusFile(path, pre) })
	v["corpusfile.save_s"] = d.Seconds()
	if fi, err := os.Stat(path); err == nil {
		v["corpusfile.file_mb"] = float64(fi.Size()) / (1 << 20)
	}
	var cf *topmine.CorpusFile
	d = st.run("corpusfile.open", func() (err error) { cf, err = topmine.OpenCorpusFile(path); return err })
	if !inBatch {
		st.timed = timed
	}
	v["corpusfile.in_batch"] = b2f(inBatch)
	if cf == nil {
		return nil
	}
	v["corpusfile.open_ms"] = ms(d)
	if !cf.Mapped() {
		st.res.fail("corpus file was read into the heap, not mapped")
	}
	reused := cf.CanReuseArtifacts(pre.Options) && cf.Mined() != nil && cf.Segmented() != nil
	if !reused {
		st.res.fail("corpus file does not offer its stored artifacts for reuse")
	}
	v["corpusfile.reused"] = b2f(reused)
	if st.traced {
		// The per-layer reading is the median of 20 more opens, outside
		// batch_s.
		var opens []time.Duration
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			c2, err := topmine.OpenCorpusFile(path)
			opens = append(opens, time.Since(t0))
			if err != nil {
				st.res.fail("reopening corpus file: %v", err)
				break
			}
			c2.Close()
		}
		v["corpusfile.open_ms"] = median(durations(opens, ms))
	}
	return cf
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sweepReadings turns the per-sweep hook times into the sweep metrics.
func sweepReadings(v map[string]float64, sweeps []time.Duration, sample, reconcile time.Duration) {
	if len(sweeps) == 0 {
		return
	}
	// The first interval also holds model construction and random
	// initialisation; it is reported on its own and kept out of the
	// median.
	v["topicmodel.first_sweep_ms"] = ms(sweeps[0])
	v["topicmodel.sweep_p50_ms"] = median(durations(sweeps[min(1, len(sweeps)-1):], ms))
	if sample == 0 {
		// The serial sampler has no barrier to split a sweep at: all of
		// training, initialisation included, counts as sampling.
		for _, d := range sweeps {
			sample += d
		}
	}
	v["topicmodel.sample_s"] = sample.Seconds()
	v["topicmodel.reconcile_share"] = reconcile.Seconds() / (sample + reconcile).Seconds()
}

// modelSparsity reads how many topics a word row and a document row
// actually use: the quantity that makes a sparse sweep fast or slow.
func modelSparsity(v map[string]float64, m *topmine.Model) {
	nnz := func(rows [][]int32) float64 {
		var n, used int
		for _, row := range rows {
			rowN := 0
			for _, c := range row {
				if c != 0 {
					rowN++
				}
			}
			if rowN > 0 {
				used++
				n += rowN
			}
		}
		if used == 0 {
			return 0
		}
		return float64(n) / float64(used)
	}
	v["topicmodel.nnz_per_word"] = nnz(m.Nwk)
	v["topicmodel.nnz_per_doc"] = nnz(m.Ndk)
}

// finishBatch saves the snapshot (the last timed stage) and then does
// the batch child's share of set-up work: perplexity on the withheld
// tokens, the θ probes, segmentation and mining summaries.
func finishBatch(w workload, seed uint64, dir string, st *stager, out *topmine.Result, ho *topmine.HeldOut) {
	res, v := st.res, st.res.Values
	path := snapshotPath(dir)
	d := st.run("snapshot.save", func() error { return topmine.SaveSnapshotFile(path, out) })
	st.tr.end(st.root)
	v["snapshot.save_ms"] = ms(d)
	v["batch_s"] = st.timed.Seconds()
	if fi, err := os.Stat(path); err == nil {
		v["model_file_mb"] = float64(fi.Size()) / (1 << 20)
	}

	var gc runtime.MemStats
	runtime.ReadMemStats(&gc)
	v["gc.batch_pause_ms"] = float64(gc.PauseTotalNs) / 1e6
	v["gc.batch_cycles"] = float64(gc.NumGC)

	if ho.TestTokens == 0 {
		res.fail("held-out split withheld no tokens")
	} else {
		v["perplexity"] = topmine.Perplexity(out.Model, ho)
	}

	lang := newLanguage(w.profile, seed)
	for _, text := range lang.texts(streamProbes, thetaProbes) {
		res.Theta = append(res.Theta, out.InferTopics(text, inferIters))
	}

	phrases, multi := 0, 0
	for _, sd := range out.Segmented {
		for _, spans := range sd.Spans {
			for _, sp := range spans {
				phrases++
				if sp.Len() > 1 {
					multi++
				}
			}
		}
	}
	v["segment.phrases_out"] = float64(phrases)
	v["segment.multiword_share"] = float64(multi) / float64(max(phrases, 1))

	if st.traced {
		mined := make(map[string]bool)
		for _, p := range out.FrequentPhrases(2) {
			mined[out.PhraseString(p)] = true
		}
		found := 0
		for id := range lang.phrases {
			if mined[lang.phraseText(id)] {
				found++
			}
		}
		v["phrasemine.planted_recall"] = float64(found) / float64(len(lang.phrases))
	}
}
