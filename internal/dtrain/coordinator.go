package dtrain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"topmine/internal/corpusfile"
	"topmine/internal/phrasemine"
	"topmine/internal/topicmodel"
)

// Job describes one distributed training run. The coordinator builds
// the full model (so initialisation consumes the seed exactly like
// in-process training) and ships each worker everything it needs to
// rebuild its shard from the corpus file: the mined phrase statistics,
// segmentation parameters and the shard's initial assignments.
type Job struct {
	// CorpusPath is the .tpc file workers open; it must resolve on the
	// worker hosts (workers may override it locally).
	CorpusPath string
	// Docs are the coordinator's modeling documents for the whole
	// corpus, in corpus order — the same DocsFromSegmentation output an
	// in-process run would train on.
	Docs      []topicmodel.Doc
	VocabSize int
	// Mined and the segmentation parameters let each worker re-segment
	// its document range locally: per-document partitioning depends
	// only on the document's tokens and the mined counts, so the shard
	// rebuild is deterministic (and cross-checked via READY checksums).
	Mined        *phrasemine.Result
	SigAlpha     float64
	MaxPhraseLen int
	// Model parameterises training; custom significance scores cannot
	// cross a process boundary, so jobs using segment.Options.Score
	// overrides are not supported.
	Model topicmodel.Options
}

// CheckpointSpec configures barrier checkpointing.
type CheckpointSpec struct {
	// Path is the .tpd file the coordinator rewrites (atomically, via
	// temp file + rename) at checkpoint barriers. Empty disables
	// on-disk checkpoints.
	Path string
	// Every is the sweep interval between checkpoint barriers; 0
	// defaults to 50 when Path is set. With Path empty and Elastic set,
	// Every still controls how often the in-memory recovery snapshot is
	// refreshed (its own default is every 25 sweeps).
	Every int
}

// Options configures the coordinator side of a run.
type Options struct {
	// Workers is the number of worker processes to wait for.
	Workers int
	// AcceptTimeout is the total budget for all Workers handshakes at
	// startup — accept plus HELLO, so neither slow connectors nor
	// half-open connections can stretch startup past it (default 60s).
	AcceptTimeout time.Duration
	// BarrierTimeout bounds every per-worker frame exchange; a worker
	// that dies or stalls past it fails the run with ErrWorkerLost —
	// or, with Elastic set, triggers recovery — instead of hanging
	// (default 120s).
	BarrierTimeout time.Duration
	// Checkpoint enables barrier checkpointing to a .tpd file; see
	// Resume for restarting a dead run from one.
	Checkpoint CheckpointSpec
	// Elastic keeps the run alive across lost workers: the coordinator
	// rolls the model back to the last synchronized barrier snapshot,
	// re-accepts replacement workers for up to ReacceptTimeout,
	// re-shards over the resulting worker set and continues. Results
	// stay deterministic per topology: if the worker count ends up the
	// same, the final model is byte-identical to an uninterrupted run.
	Elastic bool
	// ReacceptTimeout bounds the wait for replacement workers during
	// one elastic recovery (default 15s). When it elapses the run
	// continues with the survivors; if none remain, it fails.
	ReacceptTimeout time.Duration
	// MaxRecoveries caps elastic recoveries per run so a flapping
	// fleet cannot loop forever (default 5).
	MaxRecoveries int
	// SweepStats, when set, receives one timing breakdown per sweep:
	// Sample is the barrier wait for the slowest worker's delta,
	// WorkerSample the workers' self-reported sample times, Reconcile
	// the fold + rebroadcast, Checkpoint the .tpd write (when one
	// happened), Recovered the cumulative re-accepted worker count.
	SweepStats func(topicmodel.SweepStats)
	// Telemetry, when set, receives the full observability feed — per
	// sweep, per worker-delta, per checkpoint and per recovery — and
	// exposes it as /metrics, /v1/progress and a structured trace log
	// (see NewTelemetry). Purely observational: a nil Telemetry runs
	// the identical training trajectory.
	Telemetry *Telemetry
	// Logf, when set, receives lifecycle log lines.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.AcceptTimeout <= 0 {
		o.AcceptTimeout = 60 * time.Second
	}
	if o.BarrierTimeout <= 0 {
		o.BarrierTimeout = 120 * time.Second
	}
	if o.Checkpoint.Path != "" && o.Checkpoint.Every <= 0 {
		o.Checkpoint.Every = 50
	}
	if o.ReacceptTimeout <= 0 {
		o.ReacceptTimeout = 15 * time.Second
	}
	if o.MaxRecoveries <= 0 {
		o.MaxRecoveries = 5
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// wconn is the coordinator's handle on one worker.
type wconn struct {
	fr     *framer
	index  int
	lo, hi int
}

// coordinator carries one run's state across epochs. An epoch is a
// stretch of sweeps under a fixed worker topology; a lost worker ends
// the epoch, and (when Elastic) recovery rolls the model back to recov
// — the last globally synchronized barrier snapshot — and starts the
// next epoch over the surviving + re-accepted workers.
type coordinator struct {
	ln        net.Listener
	job       Job
	opt       Options
	mopt      topicmodel.Options
	corpusSum uint32
	// recov is the rollback point: always valid, captured before the
	// first sweep and refreshed at every wantZ barrier. Its Sweep field
	// is where the next epoch resumes.
	recov      *Checkpoint
	recovered  int   // workers re-accepted after failures, cumulative
	recoveries int   // recovery rounds consumed, vs opt.MaxRecoveries
	syncEvery  int   // in-memory snapshot cadence (0 = only hyper/ckpt barriers)
	tokens     int64 // corpus tokens sampled per sweep (for throughput telemetry)
}

func validateJob(job Job, opt Options) error {
	if opt.Workers < 1 {
		return fmt.Errorf("dtrain: need at least 1 worker, got %d", opt.Workers)
	}
	if len(job.Docs) < 2*opt.Workers {
		return fmt.Errorf("dtrain: corpus of %d docs is too small for %d workers (need >= %d)",
			len(job.Docs), opt.Workers, 2*opt.Workers)
	}
	return nil
}

func newCoordinator(ln net.Listener, job Job, opt Options, mopt topicmodel.Options, recov *Checkpoint) *coordinator {
	c := &coordinator{ln: ln, job: job, opt: opt, mopt: mopt, corpusSum: recov.CorpusChecksum, recov: recov}
	for i := range job.Docs {
		c.tokens += int64(job.Docs[i].NumTokens())
	}
	if opt.Elastic {
		c.syncEvery = opt.Checkpoint.Every
		if c.syncEvery <= 0 {
			c.syncEvery = 25
		}
	}
	return c
}

// Train runs one distributed training job over ln, waiting for
// opt.Workers workers to connect, and returns the trained model. The
// listener is not closed. Without opt.Elastic, any worker failure —
// death, stall past the barrier timeout, shard mismatch, explicit
// abort — fails the whole run; with it, lost workers trigger rollback
// to the last barrier snapshot and the run continues (see Options).
func Train(ln net.Listener, job Job, opt Options) (*topicmodel.Model, error) {
	opt.fill()
	if err := validateJob(job, opt); err != nil {
		return nil, err
	}
	mopt := job.Model.Filled()
	m := topicmodel.NewModel(job.Docs, job.VocabSize, mopt)
	ck := captureCheckpoint(m, mopt, 0, topicmodel.DocsChecksum(job.Docs))
	return newCoordinator(ln, job, opt, mopt, ck).train()
}

// Resume restarts a dead run from a barrier checkpoint, with any
// worker count — the shard split happens after the restore, so the
// topology is free to change (the final model then corresponds to the
// new topology's deterministic trajectory from that barrier). The
// training schedule (iterations, hyperparameter cadence, burn-in)
// comes from the checkpoint, not job.Model; job must rebuild the same
// documents the checkpoint was trained against, which is verified via
// the stored corpus checksum before any worker is accepted.
func Resume(ln net.Listener, job Job, ck *Checkpoint, opt Options) (*topicmodel.Model, error) {
	opt.fill()
	if err := validateJob(job, opt); err != nil {
		return nil, err
	}
	// Fail fast — a checkpoint/corpus mismatch should surface before we
	// sit waiting for workers. The trial restore also proves the stored
	// counts are consistent with the stored assignments.
	if _, err := ck.restoreModel(job.Docs, job.VocabSize); err != nil {
		return nil, err
	}
	return newCoordinator(ln, job, opt, ck.schedule(), ck).train()
}

func (c *coordinator) train() (*topicmodel.Model, error) {
	tel := c.opt.Telemetry
	tel.runStarted(c.mopt.Iterations, c.recov.Sweep, c.tokens, c.opt.Workers, c.recov.Sweep > 0)
	ws, err := acceptWorkers(c.ln, c.opt.Workers, time.Now().Add(c.opt.AcceptTimeout), c.opt, false)
	if err != nil {
		tel.runFinished(err)
		return nil, err
	}
	defer func() {
		for _, w := range ws {
			_ = w.fr.conn.Close()
		}
	}()
	for {
		m, failed, err := c.epoch(ws)
		if err == nil {
			tel.runFinished(nil)
			return m, nil
		}
		ws, err = c.recoverOrFail(ws, failed, err)
		if err != nil {
			tel.runFinished(err)
			return nil, err
		}
	}
}

// recoverOrFail decides what a failed epoch means: a lost worker under
// Elastic (with recovery budget left) shrinks/refills the worker set
// and lets the caller start the next epoch; everything else aborts the
// surviving workers and fails the run. failed == nil marks an internal
// coordinator failure (fold, restore, checkpoint write), always fatal.
func (c *coordinator) recoverOrFail(ws []*wconn, failed *wconn, cause error) ([]*wconn, error) {
	if failed == nil {
		abortAll(ws, cause.Error())
		return nil, cause
	}
	err := classify(failed, cause)
	if !errors.Is(err, ErrWorkerLost) || !c.opt.Elastic {
		abortAll(ws, err.Error())
		return nil, err
	}
	if c.recoveries >= c.opt.MaxRecoveries {
		err = fmt.Errorf("%w (recovery budget of %d exhausted)", err, c.opt.MaxRecoveries)
		abortAll(ws, err.Error())
		return nil, err
	}
	c.recoveries++
	_ = failed.fr.conn.Close()
	survivors := make([]*wconn, 0, len(ws))
	for _, w := range ws {
		if w != failed {
			survivors = append(survivors, w)
		}
	}
	want := c.opt.Workers - len(survivors)
	c.opt.logf("dtrain: worker %d lost (%v); rolling back to sweep %d, %d survivors, accepting up to %d replacements for %v",
		failed.index, cause, c.recov.Sweep, len(survivors), want, c.opt.ReacceptTimeout)
	fresh, err := acceptWorkers(c.ln, want, time.Now().Add(c.opt.ReacceptTimeout), c.opt, true)
	if err != nil {
		abortAll(survivors, err.Error())
		return nil, err
	}
	if len(survivors)+len(fresh) == 0 {
		return nil, fmt.Errorf("%w: all %d workers lost and none reconnected within %v",
			ErrWorkerLost, c.opt.Workers, c.opt.ReacceptTimeout)
	}
	c.recovered += len(fresh)
	c.opt.logf("dtrain: recovery %d/%d: continuing from sweep %d with %d workers (%d re-accepted)",
		c.recoveries, c.opt.MaxRecoveries, c.recov.Sweep, len(survivors)+len(fresh), len(fresh))
	c.opt.Telemetry.recoveryDone(c.recov.Sweep, failed.index, len(survivors), len(fresh), cause.Error())
	return append(survivors, fresh...), nil
}

// epoch restores the model from the recovery snapshot, (re)distributes
// shards over ws, and trains from recov.Sweep+1 to the end. It returns
// the failing worker alongside the error when one worker's exchange
// failed (recoverable under Elastic), or a nil worker for internal
// coordinator failures (always fatal).
func (c *coordinator) epoch(ws []*wconn) (*topicmodel.Model, *wconn, error) {
	// Rolling the model forward from the snapshot — rather than keeping
	// a separate live model — makes the first epoch and every recovery
	// epoch take the identical code path, which is what the determinism
	// contract (resumed == uninterrupted, per topology) leans on.
	m, err := c.recov.restoreModel(c.job.Docs, c.job.VocabSize)
	if err != nil {
		return nil, nil, err
	}
	ranges := topicmodel.ShardRanges(c.job.Docs, len(ws))
	for wi, w := range ws {
		w.index, w.lo, w.hi = wi, ranges[wi][0], ranges[wi][1]
	}
	c.opt.logf("dtrain: %d workers connected, shard ranges %v", len(ws), ranges)

	// SETUP + GLOBALS, then the READY checksum barrier. Setup frames
	// carry per-shard state; sends run per worker concurrently.
	globals := encodeGlobals(m)
	err = each(ws, func(w *wconn) error {
		return c.setupWorker(w, m, globals, len(ws))
	})
	if err != nil {
		w, cause := splitWorkerErr(ws, err)
		return nil, w, cause
	}
	c.opt.logf("dtrain: all shards verified, training sweeps %d..%d", c.recov.Sweep+1, c.mopt.Iterations)
	c.opt.Telemetry.epochStarted(len(ws), c.recov.Sweep+1)

	deltas := make([]*topicmodel.CountRows, len(ws))
	zs := make([][][]int32, len(ws))
	sampleNs := make([]int64, len(ws))
	// Telemetry capture slots, written lock-free by the per-worker
	// barrier goroutines (each owns its own index, like sampleNs) and
	// consumed synchronously after the barrier.
	arrivalNs := make([]int64, len(ws))
	deltaBytes := make([]int64, len(ws))
	deltaRows := make([]int64, len(ws))
	for it := c.recov.Sweep + 1; it <= c.mopt.Iterations; it++ {
		base := m.NextSweepBase()
		hyper := c.mopt.HyperDue(it)
		ckptDue := c.opt.Checkpoint.Path != "" && it%c.opt.Checkpoint.Every == 0
		// wantZ barriers pull every shard's assignments up: hyper
		// optimization needs the document-topic rows, and snapshots need
		// the globally synchronized Z. Both recompute from Z, so the two
		// uses share one upload.
		wantZ := hyper || ckptDue || (c.syncEvery > 0 && it%c.syncEvery == 0)

		// SWEEP broadcast: iteration, RNG base, wantZ flag, current priors.
		var sweep []byte
		sweep = binary.LittleEndian.AppendUint32(sweep, uint32(it))
		sweep = binary.LittleEndian.AppendUint64(sweep, base)
		if wantZ {
			sweep = append(sweep, 1)
		} else {
			sweep = append(sweep, 0)
		}
		for _, a := range m.Alpha {
			sweep = appendF64(sweep, a)
		}
		sweep = appendF64(sweep, m.AlphaSum)
		sweep = appendF64(sweep, m.Beta)
		sweep = appendF64(sweep, m.BetaSum)

		t0 := time.Now()
		err = each(ws, func(w *wconn) error {
			if err := w.fr.send(fSweep, sweep); err != nil {
				return err
			}
			payload, err := w.fr.recvExpect(fDelta)
			if err != nil {
				return err
			}
			arrivalNs[w.index] = int64(time.Since(t0))
			deltaBytes[w.index] = int64(len(payload))
			if err := decodeDelta(payload, w, m.K, m.V, deltas, sampleNs); err != nil {
				return err
			}
			deltaRows[w.index] = int64(len(deltas[w.index].Words))
			if wantZ {
				payload, err := w.fr.recvExpect(fCkpt)
				if err != nil {
					return err
				}
				z, err := decodeZ(payload, w.hi-w.lo, m.K)
				if err != nil {
					return fmt.Errorf("%w: shard state: %v", ErrProtocol, err)
				}
				zs[w.index] = z
			}
			return nil
		})
		if err != nil {
			w, cause := splitWorkerErr(ws, err)
			return nil, w, cause
		}
		sampleDur := time.Since(t0)

		t1 := time.Now()
		combined, err := m.FoldShardDeltas(deltas)
		if err != nil {
			return nil, nil, fmt.Errorf("dtrain: reconcile failed: %w", err)
		}
		if wantZ {
			// Install every shard's assignments: Ndk rows recompute from Z
			// (bit-identical to uploading them, since counts are pure
			// functions of assignments) and m.Z becomes globally
			// synchronized — exactly the state a snapshot may capture.
			for _, w := range ws {
				if err := m.InstallShardState(w.lo, zs[w.index]); err != nil {
					return nil, nil, fmt.Errorf("dtrain: install shard state: %w", err)
				}
			}
		}
		rows := combined.AppendTo(nil)
		err = each(ws, func(w *wconn) error {
			return w.fr.send(fRows, rows)
		})
		if err != nil {
			w, cause := splitWorkerErr(ws, err)
			return nil, w, cause
		}
		if hyper {
			m.OptimizeAlpha(5)
			m.OptimizeBeta(5)
		}
		reconcileDur := time.Since(t1)

		var ckptDur time.Duration
		if wantZ {
			// The in-memory snapshot is refreshed at every wantZ barrier
			// (post hyper update, so rollback replays the same priors);
			// the .tpd write only at its own cadence.
			c.recov = captureCheckpoint(m, c.mopt, it, c.corpusSum)
			if ckptDue {
				tc := time.Now()
				if err := WriteCheckpointFile(c.opt.Checkpoint.Path, c.recov); err != nil {
					return nil, nil, fmt.Errorf("dtrain: sweep %d: writing checkpoint: %w", it, err)
				}
				ckptDur = time.Since(tc)
				c.opt.logf("dtrain: sweep %d: checkpoint written to %s (%v)", it, c.opt.Checkpoint.Path, ckptDur)
				c.opt.Telemetry.checkpointWritten(it, ckptDur, c.opt.Checkpoint.Path)
			}
		}

		if c.opt.SweepStats != nil {
			per := make([]time.Duration, len(ws))
			for i, ns := range sampleNs {
				per[i] = time.Duration(ns)
			}
			c.opt.SweepStats(topicmodel.SweepStats{
				Sweep:        it,
				Workers:      len(ws),
				Sample:       sampleDur,
				Reconcile:    reconcileDur,
				WorkerSample: per,
				Checkpoint:   ckptDur,
				Recovered:    c.recovered,
			})
		}
		c.opt.Telemetry.sweepDone(sweepObs{
			sweep:       it,
			totalSweeps: c.mopt.Iterations,
			workers:     len(ws),
			sample:      sampleDur,
			reconcile:   reconcileDur,
			checkpoint:  ckptDur,
			arrivalNs:   arrivalNs,
			sampleNs:    sampleNs,
			deltaBytes:  deltaBytes,
			deltaRows:   deltaRows,
			tokens:      c.tokens,
			recoveries:  c.recoveries,
			recovered:   c.recovered,
		})
	}

	// FINISH: collect final shard assignments and install them.
	finals := make([][][]int32, len(ws))
	err = each(ws, func(w *wconn) error {
		if err := w.fr.send(fFinish, nil); err != nil {
			return err
		}
		payload, err := w.fr.recvExpect(fFinal)
		if err != nil {
			return err
		}
		z, err := decodeZ(payload, w.hi-w.lo, m.K)
		if err != nil {
			return fmt.Errorf("%w: final shard state: %v", ErrProtocol, err)
		}
		finals[w.index] = z
		return nil
	})
	if err != nil {
		w, cause := splitWorkerErr(ws, err)
		return nil, w, cause
	}
	for _, w := range ws {
		if err := m.InstallShardState(w.lo, finals[w.index]); err != nil {
			return nil, nil, fmt.Errorf("dtrain: install final state: %w", err)
		}
	}
	c.opt.logf("dtrain: training complete")
	return m, nil, nil
}

// setupWorker ships one worker its shard and waits for the READY
// checksum. A surviving worker being resynced after a recovery may
// still have stale barrier output (DELTA, CKPT) in flight from the
// interrupted sweep; those frames are drained and discarded until the
// READY for this SETUP arrives.
func (c *coordinator) setupWorker(w *wconn, m *topicmodel.Model, globals []byte, numWorkers int) error {
	payload := (&setupMsg{
		Lo:         w.lo,
		Hi:         w.hi,
		Index:      w.index,
		NumWorkers: numWorkers,
		K:          m.K,
		V:          m.V,
		Alpha:      m.Alpha,
		AlphaSum:   m.AlphaSum,
		Beta:       m.Beta,
		CorpusPath: c.job.CorpusPath,
		Params:     corpusfile.Params{MaxPhraseLen: c.job.MaxPhraseLen, SigThreshold: c.job.SigAlpha},
		Mined:      c.job.Mined,
		Z:          m.Z[w.lo:w.hi],
	}).appendTo(nil)
	if err := w.fr.sendOrAbort(fSetup, payload); err != nil {
		return err
	}
	if err := w.fr.sendOrAbort(fGlobals, globals); err != nil {
		return err
	}
	for stale := 0; ; {
		t, ready, err := w.fr.recv()
		if err != nil {
			return err
		}
		switch t {
		case fDelta, fCkpt:
			// Stale output from the barrier the recovery interrupted; at
			// most one of each can be in flight per lockstep sweep.
			stale++
			if stale > 2 {
				return fmt.Errorf("%w: worker still streaming barrier frames after SETUP", ErrProtocol)
			}
			continue
		case fAbort:
			return &abortError{msg: string(ready)}
		case fReady:
			r := wireReader{data: ready}
			sum, tokens := r.u32(), r.u64()
			if r.err != nil {
				return r.err
			}
			shard := c.job.Docs[w.lo:w.hi]
			wantTokens := 0
			for i := range shard {
				wantTokens += shard[i].NumTokens()
			}
			if want := topicmodel.DocsChecksum(shard); sum != want || tokens != uint64(wantTokens) {
				return fmt.Errorf("shard mismatch: worker rebuilt checksum %08x/%d tokens, coordinator has %08x/%d — differing corpus file or parameters",
					sum, tokens, want, wantTokens)
			}
			return nil
		default:
			return fmt.Errorf("%w: got frame type %d, want %d", ErrProtocol, t, fReady)
		}
	}
}

// acceptWorkers collects up to `want` HELLO handshakes by `deadline` —
// a total budget covering accepts and handshake reads both, so neither
// slow connectors nor half-open connections can stretch it N-fold.
// Worker index is assignment order; any assignment yields the same
// result, since the topology is (count, ranges, seed), not which
// process got which shard. In tolerant mode (elastic re-accept) the
// deadline and broken handshakes just end the collection early: the
// caller proceeds with whoever showed up.
func acceptWorkers(ln net.Listener, want int, deadline time.Time, opt Options, tolerant bool) ([]*wconn, error) {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		_ = d.SetDeadline(deadline)
		defer func() { _ = d.SetDeadline(time.Time{}) }()
	}
	ws := make([]*wconn, 0, max(want, 0))
	fail := func(err error) ([]*wconn, error) {
		for _, w := range ws {
			_ = w.fr.conn.Close()
		}
		return nil, err
	}
	for len(ws) < want {
		conn, err := ln.Accept()
		if err != nil {
			if tolerant {
				return ws, nil
			}
			return fail(fmt.Errorf("%w: %d/%d workers connected: %v", ErrWorkerLost, len(ws), want, err))
		}
		// The HELLO read is bounded by the remaining accept budget, not
		// BarrierTimeout: a connection that never completes the handshake
		// must not consume more than the loop's total allowance.
		rem := time.Until(deadline)
		if rem <= 0 {
			rem = time.Millisecond
		}
		fr := &framer{conn: conn, timeout: rem}
		hello, err := fr.recvExpect(fHello)
		if err == nil {
			r := wireReader{data: hello}
			if v := r.u32(); r.err == nil && int(v) != protoVersion {
				err = fmt.Errorf("%w: worker speaks protocol %d, coordinator %d", ErrProtocol, v, protoVersion)
			} else {
				err = r.err
			}
		}
		if err != nil {
			fr.abort(fmt.Sprintf("handshake failed: %v", err))
			_ = conn.Close()
			if tolerant {
				continue
			}
			return fail(fmt.Errorf("dtrain: worker handshake: %w", err))
		}
		fr.timeout = opt.BarrierTimeout
		ws = append(ws, &wconn{fr: fr})
	}
	return ws, nil
}

// abortAll best-effort notifies every worker of the failure,
// concurrently — combined with the abort write deadline, a wedged
// connection costs the fan-out abortTimeout once, not per peer.
func abortAll(ws []*wconn, msg string) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *wconn) {
			defer wg.Done()
			w.fr.abort(msg)
		}(w)
	}
	wg.Wait()
}

// decodeDelta parses a DELTA payload into the per-worker slots.
func decodeDelta(payload []byte, w *wconn, k, v int, deltas []*topicmodel.CountRows, sampleNs []int64) error {
	r := wireReader{data: payload}
	sampleNs[w.index] = int64(r.u64())
	if r.err != nil {
		return r.err
	}
	cr, n, err := topicmodel.DecodeCountRows(r.data, v, k)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if n != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes after delta", ErrProtocol, len(r.data)-n)
	}
	deltas[w.index] = cr
	return nil
}

// encodeGlobals serialises the dense word-topic counts + topic totals.
func encodeGlobals(m *topicmodel.Model) []byte {
	buf := make([]byte, 0, 8+4*m.V*m.K+8*m.K)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.V))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.K))
	for w := 0; w < m.V; w++ {
		buf = appendI32s(buf, m.Nwk[w])
	}
	return appendI64s(buf, m.Nk)
}

// workerErr tags an error with the worker it came from so the
// concurrent barrier helper can report which one failed.
type workerErr struct {
	index int
	err   error
}

func (e *workerErr) Error() string { return fmt.Sprintf("worker %d: %v", e.index, e.err) }
func (e *workerErr) Unwrap() error { return e.err }

// each runs fn for every worker concurrently and waits for all of
// them, returning the first failure (lowest worker index) wrapped as a
// *workerErr.
func each(ws []*wconn, fn func(w *wconn) error) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *wconn) {
			defer wg.Done()
			errs[i] = fn(w)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return &workerErr{index: i, err: err}
		}
	}
	return nil
}

// splitWorkerErr recovers the failing worker from an each() error.
func splitWorkerErr(ws []*wconn, err error) (*wconn, error) {
	var we *workerErr
	if errors.As(err, &we) {
		return ws[we.index], we.err
	}
	return ws[0], err
}

// classify turns a worker failure into the caller-facing error: an
// explicit ABORT keeps its message; a dead or stalled connection is
// ErrWorkerLost (the one class elastic recovery acts on).
func classify(w *wconn, err error) error {
	var ae *abortError
	if errors.As(err, &ae) {
		return fmt.Errorf("dtrain: worker %d aborted: %s", w.index, ae.msg)
	}
	if errors.Is(err, ErrProtocol) {
		return fmt.Errorf("dtrain: worker %d: %w", w.index, err)
	}
	return fmt.Errorf("%w: worker %d: %v", ErrWorkerLost, w.index, err)
}
