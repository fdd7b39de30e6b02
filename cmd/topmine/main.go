// Command topmine runs the ToPMine pipeline — frequent phrase mining
// (Algorithm 1), phrase construction (Algorithm 2) and PhraseLDA — and
// the corpus-store, snapshot and distributed-training jobs around it,
// one command per job, each with its own flags:
//
//	topmine <command> [operand…] [flags]
//	topmine <command> -h                # the command's flags
//
//	topmine train -input corpus.txt -k 10 -iters 1000
//	topmine train -input reviews.jsonl -jsonl text -k 10
//	zcat corpus.txt.gz | topmine train -input - -k 10   # .gz is also auto-detected
//	topmine train -synth yelp-reviews -docs 2000 -k 10
//	topmine phrases -synth 20conf -docs 500      # stop after mining
//
// Preprocessing (ingest, mining, segmentation) can run once into a
// .tpc corpus file that later runs mmap, skipping to Gibbs sampling. A
// stored corpus grows in place, merges with other shards, and feeds
// incremental training of an existing snapshot:
//
//	topmine preprocess reviews.tpc -input reviews.jsonl -jsonl text
//	topmine train -corpus reviews.tpc -k 40 -seed 7 -save k40.tpm
//	topmine append reviews.tpc -input fresh.jsonl -jsonl text -dedup
//	topmine merge all.tpc shard1.tpc shard2.tpc shard3.tpc
//	topmine load model.tpm -update reviews.tpc -iters 200 -save model2.tpm -save-state
//
// A snapshot is reused without retraining (by this command or by the
// topmined server); with -save-state it keeps the full Gibbs state so
// training can continue:
//
//	topmine train -synth yelp-reviews -k 10 -save model.tpm -save-state
//	topmine load model.tpm -infer "great food and friendly service"
//	topmine load model.tpm -iters 500 -save model2.tpm -save-state
//
// Distributed training: a coordinator over a shared .tpc file, worker
// processes that dial it, and recovery from a barrier checkpoint:
//
//	topmine coordinate :7600 -corpus reviews.tpc -checkpoint run.tpd
//	topmine worker host:7600
//	topmine recover :7600 run.tpd -corpus reviews.tpc -train-workers 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
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
			if err != errUsage {
				log.Print(err)
			}
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// errUsage marks a bad command line; main exits 2. Bare, it means the
// flag package already printed the complaint.
var errUsage = errors.New("usage error")

// usagef is a bad command line that main prints before exiting 2.
func usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

// command is one topmine job. setup registers the command's flags and
// returns its body, which runs once the flags and operands are parsed.
// A command registers only the flags it reads, so no flag can be set
// where it would be ignored.
type command struct {
	name, operands, summary string
	min, max                int // operand count bounds; max < 0 is unbounded
	setup                   func(fs *flag.FlagSet, s streams) func(operands []string) error
}

// streams are a command's standard streams. All corpus input flows
// through stdin here; nothing else may touch os.Stdin.
type streams struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

var commands = []command{
	{"train", "", "mine, segment, train PhraseLDA and print the topics", 0, 0, setupStages("train")},
	{"phrases", "", "mine frequent phrases (Algorithm 1) and print them", 0, 0, setupStages("phrases")},
	{"segment", "", "segment each document into phrases (Algorithm 2) and print it", 0, 0, setupStages("segment")},
	{"preprocess", "OUT.tpc", "ingest, mine and segment once into a .tpc corpus file", 1, 1, setupPreprocess},
	{"append", "FILE.tpc", "grow a .tpc corpus file in place with new documents", 1, 1, setupAppend},
	{"merge", "DST.tpc SRC.tpc SRC.tpc…", "merge two or more .tpc files into a new one", 3, -1, setupMerge},
	{"load", "SNAP.tpm", "print a snapshot's topics; resume, update, re-save or infer", 1, 1, setupLoad},
	{"coordinate", "ADDR", "train over a .tpc file with worker processes that dial ADDR", 1, 1, setupDist(false)},
	{"recover", "ADDR CK.tpd", "resume a dead distributed run from its checkpoint", 2, 2, setupDist(true)},
	{"worker", "ADDR", "serve one distributed training job for the coordinator at ADDR", 1, 1, setupWorker},
}

// run is the whole command behind an injectable stdin/stdout/stderr,
// so tests can drive every command in-process — in particular the pin
// that `train -input -` consumes stdin exactly once regardless of -save
// and -infer.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	i := slices.IndexFunc(commands, func(c command) bool { return len(args) > 0 && c.name == args[0] })
	if i < 0 {
		fmt.Fprint(stderr, "usage: topmine <command> [operand…] [flags]\n\ncommands:\n")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-10s %-25s %s\n", c.name, c.operands, c.summary)
		}
		fmt.Fprint(stderr, "\n'topmine <command> -h' lists the command's flags.\n")
		if len(args) == 1 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
			return flag.ErrHelp
		}
		return errUsage
	}
	c := commands[i]
	synopsis := strings.TrimSpace("topmine " + c.name + " " + c.operands)
	fs := flag.NewFlagSet("topmine "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags]\n\n%s\n\n", synopsis, c.summary)
		fs.PrintDefaults()
	}
	body := c.setup(fs, streams{stdin, stdout, stderr})
	n := slices.IndexFunc(args[1:], func(a string) bool { return strings.HasPrefix(a, "-") })
	if n < 0 {
		n = len(args) - 1
	}
	operands := args[1 : 1+n]
	if err := fs.Parse(args[1+n:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the FlagSet printed the complaint and the usage
	}
	if fs.NArg() > 0 || n < c.min || c.max >= 0 && n > c.max {
		fs.Usage() // operands missing, too many, or after the flags
		return errUsage
	}
	return body(operands)
}

const (
	defaultDocs           = 2000 // -docs; another value needs -synth
	defaultSeed           = 42
	defaultDedupThreshold = 0.9 // -dedup-threshold; another value needs -dedup
	verboseHelp           = "verbose training logs: per-sweep sample/reconcile timing and, for in-process training, where the sampler's draws landed"
)

// sourceFlags are the raw-text input flags of every command that
// ingests documents; train, phrases and segment can read a stored
// corpus instead.
type sourceFlags struct {
	input, jsonl, synth, corpus string
	docs                        int
	choice                      string // the flags that choose the source
}

func addSourceFlags(fs *flag.FlagSet, stored bool) *sourceFlags {
	s := &sourceFlags{choice: "-input or -synth"}
	fs.StringVar(&s.input, "input", "", "path to corpus file, one document per line ('-' reads stdin; .gz auto-detected)")
	fs.StringVar(&s.jsonl, "jsonl", "", "treat -input as JSON lines and take document text from this field")
	fs.StringVar(&s.synth, "synth", "", "generate a synthetic corpus instead: "+strings.Join(topmine.ExampleDomains(), ", "))
	fs.IntVar(&s.docs, "docs", defaultDocs, "documents to generate with -synth")
	if stored {
		s.choice = "-input, -synth or -corpus"
		fs.StringVar(&s.corpus, "corpus", "", "read this preprocessed .tpc corpus file instead (mmap; reuses its stored mining and segmentation when the mining flags match)")
	}
	return s
}

// check enforces the source choice: exactly one of -input, -synth and,
// where the command has it, -corpus.
func (s *sourceFlags) check() error {
	given := 0
	for _, v := range []string{s.input, s.synth, s.corpus} {
		if v != "" {
			given++
		}
	}
	switch {
	case given != 1:
		return usagef("give one corpus source: %s", s.choice)
	case s.jsonl != "" && s.input == "":
		return usagef("-jsonl needs -input")
	case s.docs != defaultDocs && s.synth == "":
		return usagef("-docs needs -synth")
	}
	return nil
}

// open opens the raw document stream; closeSrc closes any file it
// opened. gzip input — on disk or piped — is detected by magic bytes
// and decompressed transparently.
func (s *sourceFlags) open(seed uint64, stdin io.Reader) (src topmine.Source, closeSrc func(), err error) {
	if s.synth != "" {
		raw, err := topmine.GenerateExampleCorpus(s.synth, s.docs, seed)
		if err != nil {
			return nil, nil, err
		}
		return topmine.SliceSource(raw), func() {}, nil
	}
	r, closeSrc := stdin, func() {}
	if s.input != "-" {
		f, err := os.Open(s.input)
		if err != nil {
			return nil, nil, err
		}
		r, closeSrc = f, func() { f.Close() }
	}
	rr, err := topmine.MaybeDecompress(r)
	if err != nil {
		closeSrc()
		return nil, nil, err
	}
	if s.jsonl != "" {
		return topmine.JSONLSource(rr, s.jsonl), closeSrc, nil
	}
	return topmine.LineSource(rr), closeSrc, nil
}

// load validates the source and pipeline flags, then opens the -corpus
// file (cf is non-nil; the caller closes it) or streams the raw source
// through ingest on opt.Workers cores. Raw text is never accumulated,
// so multi-GB inputs ingest in memory proportional to their token
// count.
func (s *sourceFlags) load(p *pipelineFlags, st streams) (opt topmine.Options, c *topmine.Corpus, cf *topmine.CorpusFile, err error) {
	if err := s.check(); err != nil {
		return opt, nil, nil, err
	}
	if opt, err = p.options(); err != nil {
		return opt, nil, nil, err
	}
	if s.corpus != "" {
		t0 := time.Now()
		if cf, err = topmine.OpenCorpusFile(s.corpus); err != nil {
			return opt, nil, nil, err
		}
		c = cf.Corpus()
		how := "read"
		if cf.Mapped() {
			how = "mmap"
		}
		fmt.Fprintf(st.stderr, "corpus file %s opened (%s) in %v\n",
			s.corpus, how, time.Since(t0).Round(time.Millisecond))
	} else {
		src, closeSrc, err := s.open(opt.Seed, st.stdin)
		if err != nil {
			return opt, nil, nil, err
		}
		defer closeSrc()
		copt := topmine.DefaultCorpusOptions()
		copt.Workers = opt.Workers
		if c, err = topmine.BuildCorpusFromSource(src, copt); err != nil {
			return opt, nil, nil, err
		}
	}
	fmt.Fprintf(st.stderr, "corpus: %v\n", c.ComputeStats())
	return opt, c, cf, nil
}

// pipelineFlags feed topmine.Options. Each command registers the groups
// it reads; a field no flag sets keeps the default its flag has, so
// every command builds the Options it always did.
type pipelineFlags struct {
	opt     topmine.Options
	top     int
	noHyper bool
}

func newPipelineFlags() *pipelineFlags {
	p := &pipelineFlags{opt: topmine.DefaultOptions(), top: 10}
	p.opt.Seed = defaultSeed
	return p
}

// mining registers the parameters of Algorithms 1 and 2; a stored
// corpus's artifacts are reused only when they match.
func (p *pipelineFlags) mining(fs *flag.FlagSet) {
	fs.IntVar(&p.opt.MinSupport, "minsup", p.opt.MinSupport, "minimum phrase support (epsilon)")
	fs.Float64Var(&p.opt.RelativeSupport, "relsup", 0, "relative support as a fraction of corpus tokens (overrides -minsup when larger)")
	fs.Float64Var(&p.opt.SigThreshold, "alpha", p.opt.SigThreshold, "significance threshold for merging (Algorithm 2)")
	fs.IntVar(&p.opt.MaxPhraseLen, "maxlen", p.opt.MaxPhraseLen, "maximum phrase length (0 = unbounded)")
}

func (p *pipelineFlags) seed(fs *flag.FlagSet) {
	fs.Uint64Var(&p.opt.Seed, "seed", p.opt.Seed, "random seed")
}

func (p *pipelineFlags) workers(fs *flag.FlagSet) {
	fs.IntVar(&p.opt.Workers, "workers", 0, "parallel workers for ingest and segmentation (0 = all cores)")
}

// schedule registers the PhraseLDA training schedule.
func (p *pipelineFlags) schedule(fs *flag.FlagSet) {
	fs.IntVar(&p.opt.Topics, "k", p.opt.Topics, "number of topics")
	fs.IntVar(&p.opt.Iterations, "iters", p.opt.Iterations, "Gibbs iterations")
	fs.BoolVar(&p.noHyper, "nohyper", false, "disable hyperparameter optimisation")
}

// render registers how the trained topics print.
func (p *pipelineFlags) render(fs *flag.FlagSet) {
	fs.IntVar(&p.top, "top", p.top, "phrases and unigrams to display per topic")
	fs.BoolVar(&p.opt.FilterBackground, "filterbg", false, "filter background phrases from topic lists")
}

// options is the one translation of the pipeline flags into library
// Options. It normalises and validates exactly as the library entry
// points do: zero selects documented defaults (-alpha 0 -> 5), negative
// priors are rejected here instead of silently corrupting training,
// and — critically — train mines and segments under the very same
// effective parameters that preprocess stores and train -corpus
// matches against, keeping all three routes byte-identical.
func (p *pipelineFlags) options() (topmine.Options, error) {
	opt := p.opt
	opt.TopPhrases, opt.TopUnigrams = p.top, p.top
	opt.OptimizeHyper = !p.noHyper
	return opt, opt.Normalize()
}

// outputFlags say what becomes of a trained or loaded model besides
// printing its topics.
type outputFlags struct {
	save, infer string
	saveState   bool
	inferIters  int
}

func addOutputFlags(fs *flag.FlagSet) *outputFlags {
	o := &outputFlags{}
	fs.StringVar(&o.save, "save", "", "save the trained pipeline snapshot to this path")
	fs.BoolVar(&o.saveState, "save-state", false, "make -save keep the full Gibbs training state so 'topmine load -iters' can continue training")
	fs.StringVar(&o.infer, "infer", "", "infer the topic mixture of this text")
	fs.IntVar(&o.inferIters, "infer-iters", 50, "sampling sweeps for -infer, each call running as many burn-in sweeps first (2×N Gibbs sweeps in all)")
	return o
}

func (o *outputFlags) check() error {
	if o.saveState && o.save == "" {
		return usagef("-save-state needs -save")
	}
	return nil
}

// write prints res's topics, then saves and queries res as the flags
// ask.
func (o *outputFlags) write(res *topmine.Result, s streams) error {
	fmt.Fprint(s.stdout, topmine.FormatTopics(res.Topics))
	if o.save != "" {
		save, kind := topmine.SaveSnapshotFile, "snapshot"
		if o.saveState {
			save, kind = topmine.SaveTrainingSnapshotFile, "training snapshot (resumable with 'topmine load -iters')"
		}
		if err := save(o.save, res); err != nil {
			return err
		}
		fmt.Fprintf(s.stderr, "%s saved to %s\n", kind, o.save)
	}
	if o.infer == "" {
		return nil
	}
	inf, err := res.Inferencer()
	if err != nil {
		return err
	}
	theta, tokens := inf.InferTopicsTokens(o.infer, o.inferIters)
	if tokens == 0 {
		// The mixture would be the bare prior: its argmax says nothing
		// about the text.
		fmt.Fprintf(s.stdout, "\nno word of %q is in the model's vocabulary: no topic inferred\n", o.infer)
		return nil
	}
	fmt.Fprintf(s.stdout, "\ninferred mixture for %q:\n", o.infer)
	for k, v := range theta {
		fmt.Fprintf(s.stdout, "  topic %d: %.4f\n", k, v)
	}
	fmt.Fprintf(s.stdout, "best topic: %d\n", topmine.BestTopic(theta))
	return nil
}

// setupStages is train, phrases and segment: build the corpus, then
// mine it, segment it and train on it, up to the named stage, and print
// what that stage made. A -corpus file's stored artifacts are reused
// when their parameters match.
func setupStages(stage string) func(*flag.FlagSet, streams) func([]string) error {
	return func(fs *flag.FlagSet, s streams) func([]string) error {
		src := addSourceFlags(fs, true)
		p := newPipelineFlags()
		p.mining(fs)
		p.seed(fs)
		p.workers(fs)
		var verbose bool
		out := &outputFlags{}
		if stage == "train" {
			p.schedule(fs)
			fs.IntVar(&p.opt.TopicWorkers, "topic-workers", 0, "parallel Gibbs workers for topic training (approximate AD-LDA sampler, "+
				"deterministic per worker count, O(touched cells) extra memory per sweep; 0/1 = exact serial sparse sampler)")
			p.render(fs)
			fs.BoolVar(&verbose, "v", false, verboseHelp)
			out = addOutputFlags(fs)
		}
		return func([]string) error {
			if err := out.check(); err != nil {
				return err
			}
			opt, c, cf, err := src.load(p, s)
			if err != nil {
				return err
			}
			if cf != nil {
				defer cf.Close()
			}
			res := &topmine.Result{Corpus: c, Options: opt}
			switch {
			case cf != nil && cf.CanReuseArtifacts(opt):
				res.Mined, res.Segmented = cf.Mined(), cf.Segmented()
				fmt.Fprintf(s.stderr, "reusing stored phrase mining (%d frequent phrases)", res.Mined.Counts.Len())
				if res.Segmented != nil {
					fmt.Fprintf(s.stderr, " and segmentation")
				}
				fmt.Fprintln(s.stderr)
			case cf != nil && cf.Mined() != nil:
				fmt.Fprintln(s.stderr, "stored artifacts use different mining parameters; recomputing")
			case cf != nil && cf.StaleArtifacts() != "":
				fmt.Fprintf(s.stderr, "stored artifacts dropped: %s\n", cf.StaleArtifacts())
			}
			if res.Mined == nil {
				t0 := time.Now()
				res.Mined = topmine.MinePhrases(c, opt)
				fmt.Fprintf(s.stderr, "phrase mining: %v (%d frequent phrases, support %d, longest %d)\n",
					time.Since(t0).Round(time.Millisecond), res.Mined.Counts.Len(), res.Mined.MinSupport, res.Mined.MaxPhraseLen)
			}
			if stage == "phrases" {
				for _, pc := range res.Mined.Counts.Entries(2) {
					fmt.Fprintf(s.stdout, "%8d  %s\n", pc.Count, c.DisplayWords(pc.Words))
				}
				return nil
			}
			if res.Segmented == nil {
				t0 := time.Now()
				res.Segmented = topmine.SegmentCorpus(c, res.Mined, opt)
				fmt.Fprintf(s.stderr, "segmentation: %v\n", time.Since(t0).Round(time.Millisecond))
			}
			if stage == "segment" {
				for _, sd := range res.Segmented {
					d := c.Docs[sd.DocID]
					for si, spans := range sd.Spans {
						for _, sp := range spans {
							fmt.Fprintf(s.stdout, "[%s] ", c.DisplayPhrase(&d.Segments[si], sp.Start, sp.End))
						}
					}
					fmt.Fprintln(s.stdout)
				}
				return nil
			}
			var stats func(topmine.SweepStats)
			if verbose {
				stats = sweepStatsLogger(s.stderr)
			}
			t0 := time.Now()
			res.Model = topmine.TrainModelWithSweepStats(c, res.Segmented, opt, stats)
			fmt.Fprintf(s.stderr, "topic modeling: %v (%d sweeps)\n",
				time.Since(t0).Round(time.Millisecond), opt.Iterations)
			// Render exactly as the library's Run, RunCorpusFile and the
			// distributed coordinator do.
			res.Topics = res.Model.Visualize(c, core.VisualizeOptions(opt))
			return out.write(res, s)
		}
	}
}

func setupPreprocess(fs *flag.FlagSet, s streams) func([]string) error {
	src := addSourceFlags(fs, false)
	p := newPipelineFlags()
	p.mining(fs)
	p.seed(fs)
	p.workers(fs)
	sketch := fs.Bool("sketch", false, "store per-document min-hash sketches so later 'topmine append -dedup' runs compare against the stored corpus without retokenizing it")
	return func(operands []string) error {
		out := operands[0]
		opt, c, _, err := src.load(p, s)
		if err != nil {
			return err
		}
		t0 := time.Now()
		pre, err := topmine.PreprocessCorpus(c, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.stderr, "phrase mining + segmentation: %v (%d frequent phrases)\n",
			time.Since(t0).Round(time.Millisecond), pre.Mined.Counts.Len())
		save := topmine.SaveCorpusFile
		if *sketch {
			save = topmine.SaveCorpusFileSketched
		}
		if err := save(out, pre); err != nil {
			return err
		}
		fi, err := os.Stat(out)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.stderr, "corpus file saved to %s (%.1f MiB); train with: topmine train -corpus %s\n",
			out, float64(fi.Size())/(1<<20), out)
		return nil
	}
}

// setupAppend grows a stored corpus in place with a fresh document
// stream, optionally suppressing near-duplicates.
func setupAppend(fs *flag.FlagSet, s streams) func([]string) error {
	src := addSourceFlags(fs, false)
	seed := fs.Uint64("seed", defaultSeed, "random seed")
	var opt topmine.AppendOptions
	fs.BoolVar(&opt.Dedup, "dedup", false, "skip incoming documents that near-duplicate a stored (or earlier-in-batch) one")
	fs.Float64Var(&opt.DedupThreshold, "dedup-threshold", defaultDedupThreshold, "with -dedup: estimated Jaccard similarity at or above which a document is skipped")
	fs.BoolVar(&opt.Sketch, "sketch", false, "store per-document min-hash sketches so later -dedup runs compare against the stored corpus without retokenizing it")
	return func(operands []string) error {
		path := operands[0]
		if err := src.check(); err != nil {
			return err
		}
		if opt.DedupThreshold != defaultDedupThreshold && !opt.Dedup {
			return usagef("-dedup-threshold needs -dedup")
		}
		docs, closeSrc, err := src.open(*seed, s.stdin)
		if err != nil {
			return err
		}
		defer closeSrc()
		t0 := time.Now()
		stats, err := topmine.AppendCorpusFile(path, docs, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.stderr, "appended %d documents (%d tokens) to %s in %v",
			stats.DocsAdded, stats.TokensAdded, path, time.Since(t0).Round(time.Millisecond))
		if stats.DocsAdded > 0 {
			fmt.Fprintf(s.stderr, " (%d appended segments; stored artifacts are now stale — retraining re-mines)", stats.Segments)
		}
		fmt.Fprintln(s.stderr)
		if opt.Dedup {
			fmt.Fprintf(s.stderr, "skipped %d near-duplicate documents (Jaccard >= %g)\n",
				stats.DocsSkipped, opt.DedupThreshold)
		}
		return nil
	}
}

// setupMerge k-way-merges preprocessed shards into a fresh corpus file.
func setupMerge(_ *flag.FlagSet, s streams) func([]string) error {
	return func(operands []string) error {
		dst := operands[0]
		t0 := time.Now()
		stats, err := topmine.MergeCorpusFiles(dst, operands[1:]...)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.stderr, "merged %d corpus files into %s: %d documents, %d tokens in %v\n",
			stats.Sources, dst, stats.Docs, stats.Tokens, time.Since(t0).Round(time.Millisecond))
		switch {
		case stats.ArtifactsMerged:
			fmt.Fprintln(s.stderr, "mined phrase statistics re-aggregated exactly")
		case stats.ArtifactsDropped != "":
			fmt.Fprintf(s.stderr, "mined phrase statistics dropped: %s\n", stats.ArtifactsDropped)
		}
		return nil
	}
}

// setupLoad consumes a snapshot: it prints the topics, optionally
// continues Gibbs training (snapshots saved with -save-state carry the
// training state this needs) — over a grown corpus with -update —
// and re-saves and infers as the output flags ask.
func setupLoad(fs *flag.FlagSet, s streams) func([]string) error {
	out := addOutputFlags(fs)
	iters := fs.Int("iters", 0, "continue Gibbs training this many sweeps (needs a snapshot saved with -save-state)")
	update := fs.String("update", "", "continue training the snapshot incrementally over this grown .tpc corpus file")
	return func(operands []string) error {
		path := operands[0]
		if err := out.check(); err != nil {
			return err
		}
		res, err := topmine.LoadSnapshotFile(path)
		if err != nil {
			return err
		}
		defer res.Close()
		fmt.Fprintf(s.stderr, "snapshot %s: %d topics, %d stems, %d frequent phrases",
			path, res.Options.Topics, res.Corpus.Vocab.Size(), res.Mined.Counts.Len())
		if res.Resumable() {
			fmt.Fprintf(s.stderr, ", resumable")
		}
		fmt.Fprintln(s.stderr)
		switch {
		case *update != "":
			cf, err := topmine.OpenCorpusFile(*update)
			if err != nil {
				return err
			}
			defer cf.Close()
			oldDocs := len(res.Model.Docs)
			t0 := time.Now()
			if err := res.UpdateTraining(cf, *iters); err != nil {
				return err
			}
			fmt.Fprintf(s.stderr, "updated training over %s: %d documents (%d new), %d sweeps in %v\n",
				*update, len(res.Model.Docs), len(res.Model.Docs)-oldDocs,
				*iters, time.Since(t0).Round(time.Millisecond))
		case *iters > 0:
			t0 := time.Now()
			if err := res.ResumeTraining(*iters); err != nil {
				return err
			}
			fmt.Fprintf(s.stderr, "resumed training: %v (%d sweeps)\n",
				time.Since(t0).Round(time.Millisecond), *iters)
		}
		return out.write(res, s)
	}
}

// distFlags are the coordinator's flags, shared by coordinate and
// recover.
type distFlags struct {
	corpus, trace string
	timeout       time.Duration
	verbose       bool
	dopt          topmine.DistributedOptions
	p             *pipelineFlags
	out           *outputFlags
}

func addDistFlags(fs *flag.FlagSet) *distFlags {
	d := &distFlags{p: newPipelineFlags()}
	fs.StringVar(&d.corpus, "corpus", "", "train over this preprocessed .tpc corpus file; workers rebuild their shards from the same file")
	fs.IntVar(&d.dopt.Workers, "train-workers", 2, "worker processes to wait for; byte-identical to train -topic-workers with the same count")
	fs.DurationVar(&d.timeout, "train-timeout", 0, "barrier timeout, also bounding the wait for workers to connect (0 = defaults: 120s barriers, 60s accept)")
	fs.StringVar(&d.dopt.Checkpoint.Path, "checkpoint", "", "atomically rewrite a CRC-checked .tpd barrier checkpoint "+
		"at this path every -checkpoint-every sweeps; 'topmine recover' restarts a dead run from it")
	fs.IntVar(&d.dopt.Checkpoint.Every, "checkpoint-every", 0, "with -checkpoint: sweeps between checkpoint writes (0 = 50)")
	fs.BoolVar(&d.dopt.Elastic, "elastic", false, "survive lost workers by rolling back to the last barrier "+
		"snapshot, re-accepting replacements and re-sharding instead of failing the run")
	fs.StringVar(&d.dopt.StatusAddr, "train-http", "", "serve a live training status plane on this address "+
		"(host:port): Prometheus /metrics, /v1/progress JSON and /debug/pprof/; purely observational, the trained model is unchanged")
	fs.StringVar(&d.trace, "trace", "", "append one JSON event per sweep, worker delta, checkpoint and "+
		"recovery to this file; replay it with toptrace for a barrier timeline with straggler attribution")
	fs.BoolVar(&d.verbose, "v", false, verboseHelp)
	d.p.mining(fs)
	d.p.render(fs)
	d.out = addOutputFlags(fs)
	return d
}

// setupDist is coordinate and, with resume set, recover: train over a
// shared corpus file with external worker processes, then print topics
// (and optionally snapshot and infer) exactly like an in-process run.
// recover restarts a dead run from its .tpd checkpoint with any worker
// count; the schedule and sampler state come from the checkpoint, so it
// has no -k, -iters, -seed or -nohyper, and the mining flags must match
// the original run.
func setupDist(resume bool) func(*flag.FlagSet, streams) func([]string) error {
	return func(fs *flag.FlagSet, s streams) func([]string) error {
		d := addDistFlags(fs)
		if !resume {
			d.p.seed(fs)
			d.p.schedule(fs)
		}
		return func(operands []string) error { return d.run(operands, s) }
	}
}

// run coordinates training on operands[0], from the checkpoint at
// operands[1] when there is one.
func (d *distFlags) run(operands []string, s streams) error {
	switch {
	case d.corpus == "":
		return usagef("-corpus is required: workers rebuild their shards from the shared .tpc file")
	case d.dopt.Workers < 1:
		return usagef("-train-workers must be at least 1, got %d", d.dopt.Workers)
	case d.dopt.Checkpoint.Every != 0 && d.dopt.Checkpoint.Path == "":
		return usagef("-checkpoint-every needs -checkpoint")
	}
	if err := d.out.check(); err != nil {
		return err
	}
	opt, err := d.p.options()
	if err != nil {
		return err
	}
	dopt := d.dopt
	dopt.Addr = operands[0]
	dopt.AcceptTimeout, dopt.BarrierTimeout = d.timeout, d.timeout
	dopt.Logf = logf(s.stderr)
	if d.trace != "" {
		f, err := os.Create(d.trace)
		if err != nil {
			return fmt.Errorf("open trace log: %w", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(s.stderr, "closing trace log: %v\n", err)
			}
		}()
		dopt.TraceLog = f
	}
	if d.verbose {
		dopt.SweepStats = sweepStatsLogger(s.stderr)
	}
	t0 := time.Now()
	var res *topmine.Result
	if len(operands) > 1 {
		res, err = topmine.ResumeDistributed(d.corpus, operands[1], opt, dopt)
	} else {
		res, err = topmine.TrainDistributed(d.corpus, opt, dopt)
	}
	if err != nil {
		return err
	}
	defer res.Close()
	if len(operands) > 1 {
		fmt.Fprintf(s.stderr, "distributed training resumed from %s: %v (%d workers)\n",
			operands[1], time.Since(t0).Round(time.Millisecond), dopt.Workers)
	} else {
		fmt.Fprintf(s.stderr, "distributed training: %v (%d workers, %d sweeps)\n",
			time.Since(t0).Round(time.Millisecond), dopt.Workers, opt.Iterations)
	}
	return d.out.write(res, s)
}

// setupWorker serves one distributed training job and exits, re-dialing
// a lost coordinator when -train-reconnect is set.
func setupWorker(fs *flag.FlagSet, s streams) func([]string) error {
	var wopt topmine.TrainingWorkerOptions
	fs.StringVar(&wopt.CorpusPath, "corpus", "", "read the corpus from this .tpc file instead of the path the coordinator sends")
	timeout := fs.Duration("train-timeout", 0, "barrier timeout, also bounding the wait to connect (0 = defaults: 120s barriers, 60s dial)")
	fs.DurationVar(&wopt.Reconnect, "train-reconnect", 0, "re-dial a lost coordinator for up to this long instead "+
		"of exiting, so a worker fleet rides out a coordinator restart by 'topmine recover' (0 = exit on coordinator loss)")
	return func(operands []string) error {
		addr := operands[0]
		wopt.DialTimeout, wopt.BarrierTimeout = *timeout, *timeout
		wopt.Logf = logf(s.stderr)
		fmt.Fprintf(s.stderr, "connecting to coordinator at %s\n", addr)
		return topmine.ServeTrainingWorker(addr, wopt)
	}
}

// logf is a library Logf that prints lines to w.
func logf(w io.Writer) func(string, ...any) {
	return func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
}

// sweepStatsLogger returns a SweepStats hook that logs a timing
// breakdown every 25th sweep (and the first, every sweep that wrote a
// checkpoint, and every sweep after an elastic recovery), keeping -v
// readable over thousand-sweep runs while still showing the
// sample/reconcile split, checkpoint cost and elastic recoveries.
// In-process sweeps also report sampler health: the share of unigram
// draws that landed in the smoothing (s), document (r) and word (q)
// buckets, and of phrase draws that landed on a candidate topic.
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
