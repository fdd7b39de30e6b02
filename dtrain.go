package topmine

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"topmine/internal/core"
	"topmine/internal/dtrain"
	"topmine/internal/topicmodel"
)

// This file is the public face of distributed training
// (internal/dtrain): one coordinator process owning the model and the
// sweep schedule, plus worker processes each training one contiguous
// document range of a shared .tpc corpus file. Every worker draw
// replicates the corresponding in-process TopicWorkers goroutine bit
// for bit, so a distributed run's topics are byte-identical to
// `Options.TopicWorkers = N` with the same topology (worker count,
// seed) — and, like that sampler, deliberately different from the
// serial one: the AD-LDA approximation, deterministic per topology.
//
//	# coordinator (requires the .tpc path to resolve on all hosts)
//	res, err := topmine.TrainDistributed("corpus.tpc", opt,
//	    topmine.DistributedOptions{Addr: "127.0.0.1:7600", Workers: 2})
//
//	# each worker process
//	err := topmine.ServeTrainingWorker("127.0.0.1:7600",
//	    topmine.TrainingWorkerOptions{})

// SweepStats is one sweep's breakdown: Sample is the barrier wait for
// the slowest worker, Reconcile the delta fold + (for distributed
// runs) the rebroadcast, WorkerSample the per-worker sample times,
// Draws where the sampler's draws landed (in-process training only),
// Checkpoint the barrier's .tpd write (zero when none happened),
// Recovered the cumulative count of workers re-accepted after
// failures. A serial sweep reports as one worker with no reconcile.
type SweepStats = topicmodel.SweepStats

// CheckpointSpec configures barrier checkpointing of a distributed
// run: Path is the .tpd file the coordinator atomically rewrites,
// Every the sweep cadence (default 50 when Path is set).
type CheckpointSpec = dtrain.CheckpointSpec

// Named distributed-training failure classes.
var (
	// ErrWorkerLost is returned by TrainDistributed when a worker
	// process dies or misses a barrier deadline mid-run and the run is
	// not elastic (or its recovery budget is exhausted).
	ErrWorkerLost = dtrain.ErrWorkerLost
	// ErrCoordinatorLost is returned by ServeTrainingWorker when the
	// coordinator connection dies mid-run and TrainingWorkerOptions.
	// Reconnect is zero (otherwise the worker re-dials).
	ErrCoordinatorLost = dtrain.ErrCoordinatorLost
	// ErrCheckpointCorrupt is wrapped by every torn/bit-rotted .tpd
	// failure from ResumeDistributed's checkpoint read.
	ErrCheckpointCorrupt = dtrain.ErrCkptChecksum
	// ErrCheckpointMismatch is returned by ResumeDistributed when the
	// corpus file (or the mining/segmentation options) does not rebuild
	// the documents the checkpoint was trained against.
	ErrCheckpointMismatch = dtrain.ErrCorpusMismatch
)

// DistributedOptions configures the coordinator side of a distributed
// training run.
type DistributedOptions struct {
	// Addr is the address to listen on for workers, e.g.
	// "127.0.0.1:7600" for same-host workers or ":7600" to accept
	// workers from other hosts.
	Addr string
	// Workers is the number of worker processes the run waits for. The
	// trained model depends on it (more workers = more AD-LDA shards),
	// so it is part of the reproducibility contract alongside the seed.
	Workers int
	// AcceptTimeout bounds the wait for all workers to connect
	// (default 60s).
	AcceptTimeout time.Duration
	// BarrierTimeout bounds every per-worker frame exchange; a worker
	// that dies or stalls past it fails the run with ErrWorkerLost —
	// or triggers recovery when Elastic is set (default 120s).
	BarrierTimeout time.Duration
	// Checkpoint enables barrier checkpoints: at the configured sweep
	// cadence (and with state also captured at every hyperparameter
	// barrier) the coordinator writes the globally synchronized model
	// state — priors, every document's assignments, sweep number, RNG
	// position, corpus checksum — to a CRC-checked .tpd file via temp
	// file + rename. ResumeDistributed restarts a dead run from it.
	Checkpoint CheckpointSpec
	// Elastic keeps the run alive when workers are lost: the
	// coordinator rolls back to the last synchronized barrier snapshot,
	// re-accepts replacements for up to ReacceptTimeout, re-shards and
	// continues. If the worker count ends up unchanged, the final model
	// is byte-identical to an uninterrupted run.
	Elastic bool
	// ReacceptTimeout bounds the wait for replacement workers during
	// one elastic recovery (default 15s); when it elapses the run
	// continues with the survivors.
	ReacceptTimeout time.Duration
	// MaxRecoveries caps elastic recoveries per run (default 5).
	MaxRecoveries int
	// SweepStats, when set, receives one timing breakdown per sweep.
	SweepStats func(SweepStats)
	// StatusAddr, when non-empty, serves a live status plane for the
	// run over HTTP on that address (e.g. "127.0.0.1:7700", or
	// "127.0.0.1:0" for an ephemeral port reported via Logf):
	// /metrics (Prometheus text, the topmine_train_* series),
	// /v1/progress (a TrainingProgress JSON snapshot) and
	// /debug/pprof/*. The server lives for the duration of the run and
	// reads atomic snapshots only — it never touches the sweep barrier
	// path.
	StatusAddr string
	// TraceLog, when non-nil, receives the structured training trace:
	// one JSON line per run/setup/worker-delta/sweep/checkpoint/
	// recovery/finish event with monotonic t_ms timestamps. The
	// cmd/toptrace analyzer replays it into a barrier timeline with
	// straggler attribution. Purely observational: enabling it does not
	// change the trained model.
	TraceLog io.Writer
	// Logf, when set, receives lifecycle log lines.
	Logf func(format string, args ...any)
}

// TrainingProgress is the JSON schema served at the status plane's
// /v1/progress endpoint; see DistributedOptions.StatusAddr.
type TrainingProgress = dtrain.Progress

func (dopt DistributedOptions) internal() dtrain.Options {
	return dtrain.Options{
		Workers:         dopt.Workers,
		AcceptTimeout:   dopt.AcceptTimeout,
		BarrierTimeout:  dopt.BarrierTimeout,
		Checkpoint:      dopt.Checkpoint,
		Elastic:         dopt.Elastic,
		ReacceptTimeout: dopt.ReacceptTimeout,
		MaxRecoveries:   dopt.MaxRecoveries,
		SweepStats:      dopt.SweepStats,
		Logf:            dopt.Logf,
	}
}

// TrainingWorkerOptions configures one ServeTrainingWorker call.
type TrainingWorkerOptions struct {
	// CorpusPath overrides the coordinator-sent corpus path, for
	// workers on hosts where the .tpc lives elsewhere. Empty uses the
	// coordinator's path.
	CorpusPath string
	// DialTimeout bounds the connection attempt, retrying while the
	// coordinator is not yet listening (default 60s).
	DialTimeout time.Duration
	// BarrierTimeout bounds every frame exchange with the coordinator
	// (default 120s).
	BarrierTimeout time.Duration
	// Reconnect, when positive, makes the worker survive a coordinator
	// loss: each time the connection dies mid-run it re-dials for up to
	// this long (jittered exponential backoff) and serves the next job
	// — typically a coordinator restarted by `topmine recover`. Explicit aborts
	// and protocol errors are never retried.
	Reconnect time.Duration
	// Logf, when set, receives lifecycle log lines.
	Logf func(format string, args ...any)
}

// TrainDistributed trains a topic model over the corpus file at path
// using opt.Workers external worker processes instead of in-process
// goroutines: it listens on dopt.Addr, waits for the workers, assigns
// each a disjoint document range, and runs the sweep-barrier protocol
// to completion. Stored mining and segmentation artifacts are reused
// exactly as RunCorpusFile would; workers rebuild their shards from
// their own mapping of the corpus file, so document token data never
// crosses the wire.
//
// The returned Result is bit-identical to RunCorpusFile with
// opt.TopicWorkers = dopt.Workers (same seed, same worker count) when
// dopt.Workers >= 2. A single distributed worker has no in-process
// twin — TopicWorkers 1 selects the exact serial sampler, which no
// sharded run reproduces — so Workers 1 is supported but only
// comparable to other distributed runs. By default any worker failure
// fails the whole run (ErrWorkerLost for deaths and stalls);
// dopt.Elastic recovers from lost workers instead, and dopt.Checkpoint
// + ResumeDistributed survive coordinator death too.
func TrainDistributed(path string, opt Options, dopt DistributedOptions) (*Result, error) {
	return runDistributed(path, opt, dopt, dtrain.Train)
}

// ResumeDistributed restarts a dead distributed run from a .tpd
// barrier checkpoint written by a TrainDistributed coordinator with
// DistributedOptions.Checkpoint set. Any worker count works — shards
// are recomputed after the restore — and the training schedule
// (K, iterations, hyperparameter cadence) comes from the checkpoint:
// the Result's Options carry the checkpoint's Topics, Iterations and
// OptimizeHyper in place of opt's. Options.Seed stays opt's, since a
// checkpoint stores the sampler's RNG position, not the seed. opt must
// carry the same mining/segmentation parameters as the original run:
// the rebuilt documents are verified against the checkpoint's corpus
// checksum (ErrCheckpointMismatch otherwise) before any worker is
// accepted. A resumed run's final model is byte-identical to a fresh
// run launched from that checkpoint state with the same worker count.
func ResumeDistributed(path, ckptPath string, opt Options, dopt DistributedOptions) (*Result, error) {
	ck, err := dtrain.ReadCheckpointFile(ckptPath)
	if err != nil {
		return nil, err
	}
	opt.Topics, opt.Iterations, opt.OptimizeHyper = ck.K, ck.Iterations, ck.OptimizeHyper
	return runDistributed(path, opt, dopt, func(ln net.Listener, job dtrain.Job, iopt dtrain.Options) (*topicmodel.Model, error) {
		return dtrain.Resume(ln, job, ck, iopt)
	})
}

// runDistributed is the shared coordinator-side harness: open (and
// possibly re-mine) the corpus, listen, stand up the observability
// plane when requested, run the protocol via train, wrap the trained
// model into a Result.
func runDistributed(path string, opt Options, dopt DistributedOptions, train func(net.Listener, dtrain.Job, dtrain.Options) (*topicmodel.Model, error)) (*Result, error) {
	if err := opt.Normalize(); err != nil {
		return nil, err
	}
	if opt.TopicWorkers > 1 {
		return nil, fmt.Errorf("topmine: TrainDistributed: TopicWorkers selects the in-process sampler; set DistributedOptions.Workers instead")
	}
	cf, err := OpenCorpusFile(path)
	if err != nil {
		return nil, err
	}
	// The handle's reference transfers to the Result on success; every
	// earlier exit must release it.
	c := cf.Corpus()
	mined, segs := artifacts(c, cf, opt)
	docs := topicmodel.DocsFromSegmentation(c, segs)

	ln, err := net.Listen("tcp", dopt.Addr)
	if err != nil {
		cf.Close()
		return nil, fmt.Errorf("topmine: TrainDistributed: %w", err)
	}
	defer ln.Close()

	iopt := dopt.internal()
	if dopt.StatusAddr != "" || dopt.TraceLog != nil {
		iopt.Telemetry = dtrain.NewTelemetry(dopt.TraceLog)
	}
	if dopt.StatusAddr != "" {
		statusLn, err := net.Listen("tcp", dopt.StatusAddr)
		if err != nil {
			cf.Close()
			return nil, fmt.Errorf("topmine: TrainDistributed: status plane: %w", err)
		}
		srv := &http.Server{Handler: iopt.Telemetry.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(statusLn)
		// The plane serves the final "done"/"failed" snapshot until the
		// run returns; in-flight scrapes after that race the close, which
		// is fine for a monitoring endpoint.
		defer srv.Close()
		if dopt.Logf != nil {
			dopt.Logf("topmine: training status plane on http://%s (/metrics, /v1/progress, /debug/pprof/)", statusLn.Addr())
		}
	}

	model, err := train(ln, dtrain.Job{
		CorpusPath:   path,
		Docs:         docs,
		VocabSize:    c.Vocab.Size(),
		Mined:        mined,
		SigAlpha:     opt.SigThreshold,
		MaxPhraseLen: opt.MaxPhraseLen,
		Model:        core.ModelOptions(opt),
	}, iopt)
	if err != nil {
		cf.Close()
		return nil, err
	}
	res := trained(c, mined, segs, model, opt)
	res.closer = &resultCloser{cf: cf} // adopts the open handle's reference
	return res, nil
}

// ServeTrainingWorker serves one distributed training job as a worker:
// it dials the coordinator at addr (retrying with jittered exponential
// backoff until it is listening), rebuilds its assigned document range
// from the corpus file, and answers sweep barriers until training
// completes. It returns nil after a successful run and an error
// describing the cause when the run aborts (local failure, coordinator
// abort, lost connection). With wopt.Reconnect set, a lost coordinator
// connection re-dials instead of failing — the path by which a worker
// fleet rides out a coordinator restart + resume.
func ServeTrainingWorker(addr string, wopt TrainingWorkerOptions) error {
	dialTimeout := wopt.DialTimeout
	for {
		conn, err := dtrain.Dial(addr, dialTimeout)
		if err != nil {
			return err
		}
		err = dtrain.RunWorker(conn, dtrain.WorkerOptions{
			CorpusPath:     wopt.CorpusPath,
			BarrierTimeout: wopt.BarrierTimeout,
			Logf:           wopt.Logf,
		})
		if err == nil || wopt.Reconnect <= 0 || !errors.Is(err, dtrain.ErrCoordinatorLost) {
			return err
		}
		if wopt.Logf != nil {
			wopt.Logf("topmine: worker lost coordinator (%v); re-dialing %s for up to %v", err, addr, wopt.Reconnect)
		}
		// Each loss grants one fresh Reconnect window for the re-dial;
		// a coordinator that stays down ends the worker when it closes.
		dialTimeout = wopt.Reconnect
	}
}
