// Command topmine runs the full ToPMine pipeline on a text corpus (one
// document per line) or a built-in synthetic domain, and prints the
// mined phrases and topical phrase visualisation.
//
// Usage:
//
//	topmine -input corpus.txt -k 10 -iters 1000
//	topmine -input reviews.jsonl -jsonl text -k 10
//	topmine -input corpus.txt.gz -k 10            # gzip auto-detected
//	zcat corpus.txt.gz | topmine -input - -k 10
//	topmine -synth yelp-reviews -docs 2000 -k 10
//
// Preprocessing (ingest, phrase mining, segmentation) can run once and
// be persisted as a .tpc corpus file; later training jobs mmap it and
// skip straight to Gibbs sampling:
//
//	topmine -input reviews.jsonl -jsonl text -preprocess reviews.tpc
//	topmine -corpus reviews.tpc -k 10 -iters 1000
//	topmine -corpus reviews.tpc -k 40 -seed 7 -save k40.tpm
//
// A stored corpus is a living index: it can grow in place, merge with
// independently preprocessed shards, and feed incremental training of
// an existing snapshot:
//
//	topmine -append reviews.tpc -input fresh.jsonl -jsonl text -dedup
//	topmine -merge all.tpc shard1.tpc shard2.tpc shard3.tpc
//	topmine -load model.tpm -update reviews.tpc -iters 200 -save model2.tpm -save-state
//
// A trained run can be persisted as a pipeline snapshot and reused
// without retraining (by this command or by the topmined server); with
// -save-state the snapshot keeps the full Gibbs state so training can
// continue later:
//
//	topmine -synth yelp-reviews -k 10 -save model.tpm
//	topmine -load model.tpm -infer "great food and friendly service"
//	topmine -synth yelp-reviews -k 10 -save model.tpm -save-state
//	topmine -load model.tpm -iters 500 -save model2.tpm -save-state
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"topmine"
	"topmine/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topmine: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/-help: usage already printed, exit 0
		}
		if errors.Is(err, errUsage) {
			os.Exit(2) // flag package already printed the complaint
		}
		log.Fatal(err)
	}
}

// errUsage marks a bad flag combination; main exits 2 without the
// "topmine:" error prefix duplicating what the flag package printed.
var errUsage = errors.New("usage error")

// run is the whole command behind an injectable stdin/stdout/stderr,
// so tests can drive every flag combination in-process — in particular
// the pin that `-input -` consumes stdin exactly once regardless of
// -save/-infer. All corpus input flows through the reader passed here;
// nothing else may touch os.Stdin.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("topmine", flag.ContinueOnError)
	fs.SetOutput(stderr)

	input := fs.String("input", "", "path to corpus file, one document per line ('-' reads stdin; .gz auto-detected)")
	jsonlField := fs.String("jsonl", "", "treat -input as JSON lines and take document text from this field")
	synthDomain := fs.String("synth", "", "generate a synthetic corpus instead: "+
		strings.Join(topmine.ExampleDomains(), ", "))
	docs := fs.Int("docs", 2000, "documents to generate with -synth")
	corpusFile := fs.String("corpus", "", "train from this preprocessed .tpc corpus file (mmap; skips ingest/mining/segmentation)")
	preprocess := fs.String("preprocess", "", "preprocess only: write the corpus, mined phrases and segmentation to this .tpc file and exit")
	appendPath := fs.String("append", "", "grow this .tpc corpus file in place with the documents from -input/-synth and exit")
	dedup := fs.Bool("dedup", false, "with -append: skip incoming documents that near-duplicate a stored (or earlier-in-batch) one")
	dedupThreshold := fs.Float64("dedup-threshold", 0.9, "with -append -dedup: estimated Jaccard similarity at or above which a document is skipped")
	sketch := fs.Bool("sketch", false, "with -preprocess/-append: store per-document min-hash sketches so later -append -dedup runs compare against the stored corpus without retokenizing it")
	mergePath := fs.String("merge", "", "merge the positional .tpc source files (2 or more) into this new .tpc file and exit")
	updatePath := fs.String("update", "", "with -load: continue training the snapshot incrementally over this grown .tpc corpus file")
	k := fs.Int("k", 10, "number of topics")
	iters := fs.Int("iters", 1000, "Gibbs iterations (with -load: continue training this many sweeps)")
	minSupport := fs.Int("minsup", 5, "minimum phrase support (epsilon)")
	relSupport := fs.Float64("relsup", 0, "relative support as a fraction of corpus tokens (overrides -minsup when larger)")
	sig := fs.Float64("alpha", 5, "significance threshold for merging (Algorithm 2)")
	maxLen := fs.Int("maxlen", 8, "maximum phrase length (0 = unbounded)")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := fs.Int("workers", 0, "parallel workers for ingest and segmentation (0 = all cores)")
	topicWorkers := fs.Int("topic-workers", 0, "parallel Gibbs workers for topic training (approximate AD-LDA sampler, "+
		"deterministic per worker count, O(touched cells) extra memory per sweep; 0/1 = exact serial sparse sampler)")
	trainCoordinator := fs.String("train-coordinator", "", "coordinate distributed training: listen on this address (host:port) "+
		"for -train-workers worker processes, then train over the -corpus file; byte-identical to -topic-workers with the same worker count")
	trainWorkers := fs.Int("train-workers", 2, "with -train-coordinator: worker processes to wait for")
	trainWorker := fs.String("train-worker", "", "serve one distributed training job as a worker: connect to the coordinator "+
		"at this address (-corpus overrides the coordinator-sent corpus path) and exit when training completes")
	trainTimeout := fs.Duration("train-timeout", 0, "distributed training barrier timeout; with -train-coordinator also bounds "+
		"the wait for workers to connect (0 = defaults: 120s barriers, 60s accept)")
	trainCheckpoint := fs.String("checkpoint", "", "with -train-coordinator: atomically rewrite a CRC-checked .tpd barrier checkpoint "+
		"at this path every -checkpoint-every sweeps; a dead run restarts from it with -resume")
	trainCkptEvery := fs.Int("checkpoint-every", 0, "with -checkpoint: sweeps between checkpoint writes (0 = 50)")
	trainResume := fs.String("resume", "", "with -train-coordinator: resume a dead run from this .tpd checkpoint with any worker count; "+
		"the training schedule and sampler state come from the checkpoint, the mining flags must match the original run")
	trainElastic := fs.Bool("elastic", false, "with -train-coordinator: survive lost workers by rolling back to the last barrier "+
		"snapshot, re-accepting replacements and re-sharding instead of failing the run")
	trainReconnect := fs.Duration("train-reconnect", 0, "with -train-worker: re-dial a lost coordinator for up to this long instead "+
		"of exiting, so a worker fleet rides out a coordinator restart with -resume (0 = exit on coordinator loss)")
	trainHTTP := fs.String("train-http", "", "with -train-coordinator: serve a live training status plane on this address "+
		"(host:port): Prometheus /metrics, /v1/progress JSON and /debug/pprof/; purely observational, the trained model is unchanged")
	trainTrace := fs.String("trace", "", "with -train-coordinator: append one JSON event per sweep, worker delta, checkpoint and "+
		"recovery to this file; replay it with toptrace for a barrier timeline with straggler attribution")
	verbose := fs.Bool("v", false, "verbose training logs: per-sweep sample/reconcile timing and, for in-process training, where the sampler's draws landed")
	topN := fs.Int("top", 10, "phrases and unigrams to display per topic")
	noHyper := fs.Bool("nohyper", false, "disable hyperparameter optimisation")
	filterBG := fs.Bool("filterbg", false, "filter background phrases from topic lists")
	phrasesOnly := fs.Bool("phrases-only", false, "stop after phrase mining and print frequent phrases")
	segmentOnly := fs.Bool("segment", false, "stop after segmentation and print each document as a bag of phrases")
	saveModel := fs.String("save", "", "save the trained pipeline snapshot to this path")
	saveState := fs.Bool("save-state", false, "make -save keep the full Gibbs training state so -load -iters can continue training")
	loadModel := fs.String("load", "", "load a pipeline snapshot instead of training")
	inferText := fs.String("infer", "", "infer the topic mixture of this text (after training, or against -load)")
	inferIters := fs.Int("infer-iters", 50, "Gibbs sweeps for -infer")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		// The FlagSet already printed the complaint and usage to
		// stderr; wrapping in errUsage keeps main from printing the
		// same message a second time via log.Fatal.
		return errUsage
	}

	// flagOptions is the one translation of the pipeline flags into
	// library Options. It normalises and validates exactly as the
	// library entry points do: zero selects documented defaults (-alpha
	// 0 -> 5), negative priors are rejected here instead of silently
	// corrupting training, and — critically — the direct path
	// mines/segments under the very same effective parameters that
	// -preprocess stores and -corpus matches against, keeping all three
	// routes byte-identical.
	flagOptions := func() (topmine.Options, error) {
		opt := topmine.DefaultOptions()
		opt.Topics = *k
		opt.Iterations = *iters
		opt.MinSupport = *minSupport
		opt.RelativeSupport = *relSupport
		opt.SigThreshold = *sig
		opt.MaxPhraseLen = *maxLen
		opt.Seed = *seed
		opt.Workers = *workers
		opt.TopicWorkers = *topicWorkers
		opt.TopPhrases = *topN
		opt.TopUnigrams = *topN
		opt.OptimizeHyper = !*noHyper
		opt.FilterBackground = *filterBG
		return opt, opt.Normalize()
	}

	if *saveState && *saveModel == "" {
		return fmt.Errorf("-save-state needs -save")
	}
	if *trainWorker != "" {
		// A worker has no say over training parameters — it receives
		// everything from the coordinator — so any pipeline flag here is
		// a misunderstanding worth failing loudly on.
		allowed := map[string]bool{"train-worker": true, "train-timeout": true,
			"train-reconnect": true, "corpus": true, "v": true}
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-train-worker receives all training parameters from the coordinator; %s would be ignored", strings.Join(ignored, ", "))
		}
		return runTrainWorker(*trainWorker, *corpusFile, *trainTimeout, *trainReconnect, stderr)
	}
	if flagWasSet(fs, "train-workers") && *trainCoordinator == "" {
		return fmt.Errorf("-train-workers needs -train-coordinator")
	}
	for _, name := range []string{"checkpoint", "checkpoint-every", "resume", "elastic", "train-http", "trace"} {
		if flagWasSet(fs, name) && *trainCoordinator == "" {
			return fmt.Errorf("-%s needs -train-coordinator", name)
		}
	}
	if flagWasSet(fs, "train-reconnect") {
		return fmt.Errorf("-train-reconnect needs -train-worker")
	}
	if flagWasSet(fs, "checkpoint-every") && *trainCheckpoint == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint")
	}
	if *trainCoordinator != "" {
		// The coordinator is a training mode: it takes the full set of
		// training flags but replaces the in-process samplers, so input
		// flags and -topic-workers are rejected rather than ignored.
		allowed := map[string]bool{"train-coordinator": true, "train-workers": true,
			"train-timeout": true, "checkpoint": true, "checkpoint-every": true,
			"resume": true, "elastic": true, "train-http": true, "trace": true,
			"corpus": true, "k": true, "iters": true,
			"minsup": true, "relsup": true, "alpha": true, "maxlen": true,
			"seed": true, "top": true, "nohyper": true, "filterbg": true,
			"save": true, "save-state": true, "infer": true, "infer-iters": true,
			"v": true}
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-train-coordinator trains over -corpus with external workers; %s would be ignored", strings.Join(ignored, ", "))
		}
		if *corpusFile == "" {
			return fmt.Errorf("-train-coordinator needs -corpus: workers rebuild their shards from the shared .tpc file")
		}
		if *trainWorkers < 1 {
			return fmt.Errorf("-train-workers must be at least 1, got %d", *trainWorkers)
		}
		if *trainResume != "" {
			// The schedule and sampler state live in the checkpoint; a
			// silently ignored -k or -iters would look like a different run.
			var clash []string
			for _, name := range []string{"k", "iters", "nohyper", "seed"} {
				if flagWasSet(fs, name) {
					clash = append(clash, "-"+name)
				}
			}
			if len(clash) > 0 {
				return fmt.Errorf("-resume takes the training schedule and sampler state from the checkpoint; %s would be ignored", strings.Join(clash, ", "))
			}
		}
		opt, err := flagOptions()
		if err != nil {
			return err
		}
		return runCoordinator(*trainCoordinator, *corpusFile, *trainWorkers, *trainTimeout,
			coordinatorConfig{
				checkpoint: *trainCheckpoint, checkpointEvery: *trainCkptEvery,
				resume: *trainResume, elastic: *trainElastic,
				statusAddr: *trainHTTP, trace: *trainTrace,
			},
			opt, *verbose, *saveModel, *saveState, *inferText, *inferIters, stdout, stderr)
	}
	if *mergePath != "" {
		var extra []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "merge" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			return fmt.Errorf("-merge reads its sources from the positional arguments; %s would be ignored", strings.Join(extra, ", "))
		}
		return runMerge(*mergePath, fs.Args(), stderr)
	}
	if *dedup && *appendPath == "" {
		return fmt.Errorf("-dedup needs -append")
	}
	if flagWasSet(fs, "dedup-threshold") && !*dedup {
		return fmt.Errorf("-dedup-threshold needs -append -dedup")
	}
	if *sketch && *appendPath == "" && *preprocess == "" {
		return fmt.Errorf("-sketch needs -preprocess or -append")
	}
	if *appendPath != "" {
		allowed := map[string]bool{"append": true, "input": true, "jsonl": true,
			"synth": true, "docs": true, "seed": true, "dedup": true,
			"dedup-threshold": true, "sketch": true}
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-append only grows the corpus file; %s would be ignored", strings.Join(ignored, ", "))
		}
		return runAppend(*appendPath, *input, *jsonlField, *synthDomain, *docs, *seed,
			topmine.AppendOptions{Dedup: *dedup, DedupThreshold: *dedupThreshold, Sketch: *sketch},
			stdin, stderr)
	}
	if *updatePath != "" && *loadModel == "" {
		return fmt.Errorf("-update continues training a snapshot; it needs -load")
	}
	if *loadModel != "" {
		// -load replaces training: reject explicitly-set flags it would
		// silently ignore. -iters is meaningful again — it continues
		// Gibbs training on a snapshot saved with -save-state.
		allowed := map[string]bool{"load": true, "save": true, "save-state": true,
			"infer": true, "infer-iters": true, "iters": true, "update": true}
		var ignored []string
		itersSet := false
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
			if f.Name == "iters" {
				itersSet = true
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-load replaces training; %s would be ignored", strings.Join(ignored, ", "))
		}
		resumeIters := 0
		if itersSet {
			resumeIters = *iters
		}
		return runLoaded(*loadModel, *saveModel, *updatePath, *saveState, *inferText, *inferIters, resumeIters, stdout, stderr)
	}
	if (*phrasesOnly || *segmentOnly) && (*saveModel != "" || *inferText != "") {
		return fmt.Errorf("-save and -infer need a trained model; do not combine them with -phrases-only or -segment")
	}
	if *preprocess != "" && (*saveModel != "" || *inferText != "" || *phrasesOnly || *segmentOnly || *corpusFile != "") {
		return fmt.Errorf("-preprocess writes a corpus file and exits; do not combine it with -corpus, -save, -infer, -phrases-only or -segment")
	}

	opt, err := flagOptions()
	if err != nil {
		return err
	}

	var (
		c  *topmine.Corpus
		cf *topmine.CorpusFile
	)
	switch {
	case *corpusFile != "" && (*input != "" || *synthDomain != ""):
		return fmt.Errorf("use -corpus or a raw input (-input/-synth), not both")
	case *corpusFile != "" && flagWasSet(fs, "docs"):
		// Mirror the -load path's reject-ignored-flags contract.
		return fmt.Errorf("-corpus trains on the stored corpus; -docs would be ignored")
	case *input != "" && *synthDomain != "":
		return fmt.Errorf("use either -input or -synth, not both")
	case *jsonlField != "" && *input == "":
		return fmt.Errorf("-jsonl needs -input")
	case *corpusFile != "":
		t0 := time.Now()
		var err error
		cf, err = topmine.OpenCorpusFile(*corpusFile)
		if err != nil {
			return err
		}
		defer cf.Close()
		c = cf.Corpus()
		how := "read"
		if cf.Mapped() {
			how = "mmap"
		}
		fmt.Fprintf(stderr, "corpus file %s opened (%s) in %v\n",
			*corpusFile, how, time.Since(t0).Round(time.Millisecond))
	case *input != "":
		var err error
		c, err = loadInput(*input, *jsonlField, *workers, stdin)
		if err != nil {
			return err
		}
	case *synthDomain != "":
		raw, err := topmine.GenerateExampleCorpus(*synthDomain, *docs, *seed)
		if err != nil {
			return err
		}
		copt := topmine.DefaultCorpusOptions()
		copt.Workers = *workers
		c, err = topmine.BuildCorpusFromSource(topmine.SliceSource(raw), copt)
		if err != nil {
			return err
		}
	default:
		fs.Usage()
		return errUsage
	}
	fmt.Fprintf(stderr, "corpus: %v\n", c.ComputeStats())

	if *preprocess != "" {
		t0 := time.Now()
		pre, err := topmine.PreprocessCorpus(c, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "phrase mining + segmentation: %v (%d frequent phrases)\n",
			time.Since(t0).Round(time.Millisecond), pre.Mined.Counts.Len())
		save := topmine.SaveCorpusFile
		if *sketch {
			save = topmine.SaveCorpusFileSketched
		}
		if err := save(*preprocess, pre); err != nil {
			return err
		}
		fi, err := os.Stat(*preprocess)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "corpus file saved to %s (%.1f MiB); train with: topmine -corpus %s\n",
			*preprocess, float64(fi.Size())/(1<<20), *preprocess)
		return nil
	}

	var mined *topmine.MinedPhrases
	var segs []*topmine.SegmentedDoc
	if cf != nil && cf.CanReuseArtifacts(opt) {
		mined, segs = cf.Mined(), cf.Segmented()
		fmt.Fprintf(stderr, "reusing stored phrase mining (%d frequent phrases)", mined.Counts.Len())
		if segs != nil {
			fmt.Fprintf(stderr, " and segmentation")
		}
		fmt.Fprintln(stderr)
	} else if cf != nil && cf.Mined() != nil {
		fmt.Fprintln(stderr, "stored artifacts use different mining parameters; recomputing")
	} else if cf != nil && cf.StaleArtifacts() != "" {
		fmt.Fprintf(stderr, "stored artifacts dropped: %s\n", cf.StaleArtifacts())
	}
	if mined == nil {
		t0 := time.Now()
		mined = topmine.MinePhrases(c, opt)
		fmt.Fprintf(stderr, "phrase mining: %v (%d frequent phrases, support %d, longest %d)\n",
			time.Since(t0).Round(time.Millisecond), mined.Counts.Len(), mined.MinSupport, mined.MaxPhraseLen)
	}

	if *phrasesOnly {
		for _, p := range mined.Counts.Entries(2) {
			fmt.Fprintf(stdout, "%8d  %s\n", p.Count, c.DisplayWords(p.Words))
		}
		return nil
	}

	if segs == nil {
		t0 := time.Now()
		segs = topmine.SegmentCorpus(c, mined, opt)
		fmt.Fprintf(stderr, "segmentation: %v\n", time.Since(t0).Round(time.Millisecond))
	}

	if *segmentOnly {
		for _, sd := range segs {
			d := c.Docs[sd.DocID]
			for si, spans := range sd.Spans {
				seg := &d.Segments[si]
				for _, sp := range spans {
					fmt.Fprintf(stdout, "[%s] ", c.DisplayPhrase(seg, sp.Start, sp.End))
				}
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}

	t0 := time.Now()
	var model *topmine.Model
	if *verbose {
		model = topmine.TrainModelWithSweepStats(c, segs, opt, sweepStatsLogger(stderr))
	} else {
		model = topmine.TrainModel(c, segs, opt)
	}
	fmt.Fprintf(stderr, "topic modeling: %v (%d sweeps)\n",
		time.Since(t0).Round(time.Millisecond), opt.Iterations)

	// Render exactly as the library's Run, RunCorpusFile and the
	// distributed coordinator do.
	sums := model.Visualize(c, core.VisualizeOptions(opt))
	fmt.Fprint(stdout, topmine.FormatTopics(sums))

	res := &topmine.Result{
		Corpus: c, Mined: mined, Segmented: segs,
		Model: model, Topics: sums, Options: opt,
	}
	if *saveModel != "" {
		if err := saveSnapshot(*saveModel, res, *saveState, stderr); err != nil {
			return err
		}
	}
	if *inferText != "" {
		printInference(res, *inferText, *inferIters, stdout)
	}
	return nil
}

// sweepStatsLogger returns a SweepStats hook that logs a timing
// breakdown every 25th sweep (and the first, every sweep that wrote a
// checkpoint, and every sweep after an elastic recovery), keeping -v
// readable over thousand-sweep runs while still showing the
// sample/reconcile split, checkpoint cost and elastic recoveries.
// In-process sweeps also report sampler health: the share of unigram
// draws that landed in the smoothing (s), document (r) and word (q)
// buckets, and of phrase draws that landed on a candidate topic.
// Checkpoint and recovery sweeps log unconditionally: they used to be
// dropped when they fell between 25-sweep multiples, which hid exactly
// the events worth watching for.
func sweepStatsLogger(stderr io.Writer) func(topmine.SweepStats) {
	n := 0
	lastRecovered := 0
	return func(st topmine.SweepStats) {
		n++
		// Distributed runs report the coordinator's schedule iteration;
		// the in-process parallel path reports its own call count. Either
		// way st.Sweep is authoritative when present — the local counter n
		// drifts from it after an elastic rollback replays sweeps.
		sweep := st.Sweep
		if sweep == 0 {
			sweep = n
		}
		recovered := st.Recovered != lastRecovered
		lastRecovered = st.Recovered
		if n != 1 && n%25 != 0 && st.Checkpoint == 0 && !recovered {
			return
		}
		line := fmt.Sprintf("sweep %4d: sample %v, reconcile %v (%d workers",
			sweep, st.Sample.Round(10*time.Microsecond), st.Reconcile.Round(10*time.Microsecond), st.Workers)
		if st.Recovered > 0 {
			line += fmt.Sprintf(", %d recovered", st.Recovered)
		}
		line += ")"
		if st.Checkpoint > 0 {
			line += fmt.Sprintf(", checkpoint %v", st.Checkpoint.Round(10*time.Microsecond))
		}
		dr := st.Draws
		if uni := dr.Smooth + dr.Doc + dr.Word; uni > 0 {
			pct := func(n, of int64) float64 { return 100 * float64(n) / float64(max(of, 1)) }
			line += fmt.Sprintf("; draws s %.1f%% r %.1f%% q %.1f%%, phrase on candidates %.1f%%, exact %d",
				pct(dr.Smooth, uni), pct(dr.Doc, uni), pct(dr.Word, uni), pct(dr.Cand, dr.Cand+dr.Rest), dr.Exact)
		}
		fmt.Fprintln(stderr, line)
	}
}

// coordinatorConfig carries the fault-tolerance flags into
// runCoordinator.
type coordinatorConfig struct {
	checkpoint      string
	checkpointEvery int
	resume          string
	elastic         bool
	statusAddr      string // -train-http: live status plane address
	trace           string // -trace: structured JSONL trace log path
}

// runCoordinator is the -train-coordinator mode: train over a shared
// corpus file with external worker processes, then print topics (and
// optionally snapshot/infer) exactly like an in-process run.
func runCoordinator(addr, corpusPath string, workers int, timeout time.Duration,
	cfg coordinatorConfig, opt topmine.Options, verbose bool, saveModel string, saveState bool,
	inferText string, inferIters int, stdout, stderr io.Writer) error {
	dopt := topmine.DistributedOptions{
		Addr:           addr,
		Workers:        workers,
		AcceptTimeout:  timeout,
		BarrierTimeout: timeout,
		Checkpoint:     topmine.CheckpointSpec{Path: cfg.checkpoint, Every: cfg.checkpointEvery},
		Elastic:        cfg.elastic,
		StatusAddr:     cfg.statusAddr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	if cfg.trace != "" {
		f, err := os.Create(cfg.trace)
		if err != nil {
			return fmt.Errorf("open trace log: %w", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "closing trace log: %v\n", err)
			}
		}()
		dopt.TraceLog = f
	}
	if verbose {
		dopt.SweepStats = sweepStatsLogger(stderr)
	}
	t0 := time.Now()
	var res *topmine.Result
	var err error
	if cfg.resume != "" {
		res, err = topmine.ResumeDistributed(corpusPath, cfg.resume, opt, dopt)
	} else {
		res, err = topmine.TrainDistributed(corpusPath, opt, dopt)
	}
	if err != nil {
		return err
	}
	defer res.Close()
	if cfg.resume != "" {
		fmt.Fprintf(stderr, "distributed training resumed from %s: %v (%d workers)\n",
			cfg.resume, time.Since(t0).Round(time.Millisecond), workers)
	} else {
		fmt.Fprintf(stderr, "distributed training: %v (%d workers, %d sweeps)\n",
			time.Since(t0).Round(time.Millisecond), workers, opt.Iterations)
	}
	fmt.Fprint(stdout, topmine.FormatTopics(res.Topics))
	if saveModel != "" {
		if err := saveSnapshot(saveModel, res, saveState, stderr); err != nil {
			return err
		}
	}
	if inferText != "" {
		printInference(res, inferText, inferIters, stdout)
	}
	return nil
}

// runTrainWorker is the -train-worker mode: serve one distributed
// training job and exit (re-dialing a lost coordinator when
// -train-reconnect is set).
func runTrainWorker(addr, corpusOverride string, timeout, reconnect time.Duration, stderr io.Writer) error {
	fmt.Fprintf(stderr, "connecting to coordinator at %s\n", addr)
	return topmine.ServeTrainingWorker(addr, topmine.TrainingWorkerOptions{
		CorpusPath:     corpusOverride,
		DialTimeout:    timeout,
		BarrierTimeout: timeout,
		Reconnect:      reconnect,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
}

// runMerge is the -merge mode: k-way-merge preprocessed shards into a
// fresh corpus file.
func runMerge(dst string, srcs []string, stderr io.Writer) error {
	if len(srcs) < 2 {
		return fmt.Errorf("-merge needs at least 2 source .tpc files as positional arguments, have %d", len(srcs))
	}
	t0 := time.Now()
	stats, err := topmine.MergeCorpusFiles(dst, srcs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "merged %d corpus files into %s: %d documents, %d tokens in %v\n",
		stats.Sources, dst, stats.Docs, stats.Tokens, time.Since(t0).Round(time.Millisecond))
	switch {
	case stats.ArtifactsMerged:
		fmt.Fprintln(stderr, "mined phrase statistics re-aggregated exactly")
	case stats.ArtifactsDropped != "":
		fmt.Fprintf(stderr, "mined phrase statistics dropped: %s\n", stats.ArtifactsDropped)
	}
	return nil
}

// runAppend is the -append mode: grow a stored corpus in place with a
// fresh document stream, optionally suppressing near-duplicates.
func runAppend(path, input, jsonlField, synthDomain string, docs int, seed uint64,
	opt topmine.AppendOptions, stdin io.Reader, stderr io.Writer) error {
	src, cleanup, err := openSource(input, jsonlField, synthDomain, docs, seed, stdin)
	if err != nil {
		return err
	}
	defer cleanup()
	t0 := time.Now()
	stats, err := topmine.AppendCorpusFile(path, src, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "appended %d documents (%d tokens) to %s in %v",
		stats.DocsAdded, stats.TokensAdded, path, time.Since(t0).Round(time.Millisecond))
	if stats.DocsAdded > 0 {
		fmt.Fprintf(stderr, " (%d appended segments; stored artifacts are now stale — retraining re-mines)", stats.Segments)
	}
	fmt.Fprintln(stderr)
	if opt.Dedup {
		fmt.Fprintf(stderr, "skipped %d near-duplicate documents (Jaccard >= %g)\n",
			stats.DocsSkipped, opt.DedupThreshold)
	}
	return nil
}

// openSource opens the raw document stream named by the input flags,
// for modes that consume documents without building an in-memory
// corpus first. The returned cleanup closes any underlying file.
func openSource(input, jsonlField, synthDomain string, docs int, seed uint64, stdin io.Reader) (topmine.Source, func(), error) {
	switch {
	case input != "" && synthDomain != "":
		return nil, nil, fmt.Errorf("use either -input or -synth, not both")
	case jsonlField != "" && input == "":
		return nil, nil, fmt.Errorf("-jsonl needs -input")
	case synthDomain != "":
		raw, err := topmine.GenerateExampleCorpus(synthDomain, docs, seed)
		if err != nil {
			return nil, nil, err
		}
		return topmine.SliceSource(raw), func() {}, nil
	case input == "":
		return nil, nil, fmt.Errorf("-append needs an input (-input or -synth)")
	}
	r := stdin
	cleanup := func() {}
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return nil, nil, err
		}
		r = f
		cleanup = func() { f.Close() }
	}
	rr, err := topmine.MaybeDecompress(r)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if jsonlField != "" {
		return topmine.JSONLSource(rr, jsonlField), cleanup, nil
	}
	return topmine.LineSource(rr), cleanup, nil
}

// flagWasSet reports whether the user set the named flag explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// loadInput streams the corpus off disk (or the given stdin reader
// when path is "-"), tokenizing on all requested cores; raw text is
// never accumulated, so multi-GB inputs ingest in memory proportional
// to their token count. gzip input — on disk or piped — is detected by
// magic bytes and decompressed transparently.
func loadInput(path, jsonlField string, workers int, stdin io.Reader) (*topmine.Corpus, error) {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	r, err := topmine.MaybeDecompress(r)
	if err != nil {
		return nil, err
	}
	var src topmine.Source
	if jsonlField != "" {
		src = topmine.JSONLSource(r, jsonlField)
	} else {
		src = topmine.LineSource(r)
	}
	opt := topmine.DefaultCorpusOptions()
	opt.Workers = workers
	return topmine.BuildCorpusFromSource(src, opt)
}

// saveSnapshot writes res to path, keeping the Gibbs training state
// when withState is set.
func saveSnapshot(path string, res *topmine.Result, withState bool, stderr io.Writer) error {
	save, kind := topmine.SaveSnapshotFile, "snapshot"
	if withState {
		save, kind = topmine.SaveTrainingSnapshotFile, "training snapshot (resumable with -load -iters)"
	}
	if err := save(path, res); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s saved to %s\n", kind, path)
	return nil
}

// runLoaded consumes a snapshot: prints its topics, optionally
// continues Gibbs training for resumeIters sweeps (snapshots saved
// with -save-state carry the training state this needs) — over the
// grown corpus at updatePath when given — re-saves when savePath is
// given, and when text is given, folds it into the model and reports
// the inferred mixture.
func runLoaded(path, savePath, updatePath string, saveState bool, text string, iters, resumeIters int, stdout, stderr io.Writer) error {
	res, err := topmine.LoadSnapshotFile(path)
	if err != nil {
		return err
	}
	defer res.Close()
	fmt.Fprintf(stderr, "snapshot %s: %d topics, %d stems, %d frequent phrases",
		path, res.Options.Topics, res.Corpus.Vocab.Size(), res.Mined.Counts.Len())
	if res.Resumable() {
		fmt.Fprintf(stderr, ", resumable")
	}
	fmt.Fprintln(stderr)
	switch {
	case updatePath != "":
		cf, err := topmine.OpenCorpusFile(updatePath)
		if err != nil {
			return err
		}
		defer cf.Close()
		oldDocs := len(res.Model.Docs)
		t0 := time.Now()
		if err := res.UpdateTraining(cf, resumeIters); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "updated training over %s: %d documents (%d new), %d sweeps in %v\n",
			updatePath, len(res.Model.Docs), len(res.Model.Docs)-oldDocs,
			resumeIters, time.Since(t0).Round(time.Millisecond))
	case resumeIters > 0:
		t0 := time.Now()
		if err := res.ResumeTraining(resumeIters); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "resumed training: %v (%d sweeps)\n",
			time.Since(t0).Round(time.Millisecond), resumeIters)
	}
	fmt.Fprint(stdout, topmine.FormatTopics(res.Topics))
	if savePath != "" {
		if err := saveSnapshot(savePath, res, saveState, stderr); err != nil {
			return err
		}
	}
	if text != "" {
		printInference(res, text, iters, stdout)
	}
	return nil
}

// printInference folds text into the trained model and reports the
// mixture.
func printInference(res *topmine.Result, text string, iters int, stdout io.Writer) {
	theta := res.InferTopics(text, iters)
	fmt.Fprintf(stdout, "\ninferred mixture for %q:\n", text)
	for k, v := range theta {
		fmt.Fprintf(stdout, "  topic %d: %.4f\n", k, v)
	}
	fmt.Fprintf(stdout, "best topic: %d\n", topmine.BestTopic(theta))
}
