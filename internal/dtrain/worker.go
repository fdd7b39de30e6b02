package dtrain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"topmine/internal/corpusfile"
	"topmine/internal/segment"
	"topmine/internal/topicmodel"
	"topmine/internal/xrand"
)

// WorkerOptions configures one worker run.
type WorkerOptions struct {
	// CorpusPath overrides the coordinator-sent path — for workers on
	// hosts where the .tpc lives elsewhere. Empty uses the job's path.
	CorpusPath string
	// BarrierTimeout bounds every frame exchange with the coordinator
	// (default 120s). It must cover the coordinator's slowest barrier
	// work (fold + hyperparameter optimisation) and the other shards'
	// sample time.
	BarrierTimeout time.Duration
	// Logf, when set, receives lifecycle log lines.
	Logf func(format string, args ...any)
}

// RunWorker serves one training job over an established coordinator
// connection: it rebuilds its assigned document range from the corpus
// file (mmap doc-range view + local re-segmentation with the
// coordinator's mined phrase statistics), then answers sweep barriers
// until FINISH. A SETUP arriving mid-run means the coordinator
// recovered from a lost peer and resharded: the worker abandons its
// current shard and rebuilds from the new SETUP. The caller dials; the
// connection is closed on return.
//
// Failures split into two classes. Local and protocol failures are
// fatal and reported to the coordinator as ABORT frames before
// returning, so the run fails loudly on both sides. Connection-level
// failures — the coordinator died or stalled — wrap
// ErrCoordinatorLost, which the reconnecting loop in the public API
// treats as retryable (the coordinator may come back via Resume).
func RunWorker(conn net.Conn, opt WorkerOptions) error {
	defer conn.Close()
	if opt.BarrierTimeout <= 0 {
		opt.BarrierTimeout = 120 * time.Second
	}
	logf := func(format string, args ...any) {
		if opt.Logf != nil {
			opt.Logf(format, args...)
		}
	}
	fr := &framer{conn: conn, timeout: opt.BarrierTimeout}

	var hello []byte
	hello = binary.LittleEndian.AppendUint32(hello, protoVersion)
	if err := fr.send(fHello, hello); err != nil {
		return coordErr("hello", err)
	}
	setup, err := fr.recvExpect(fSetup)
	if err != nil {
		return coordErr("setup", err)
	}
	for {
		next, err := serveShard(fr, setup, opt, logf)
		if err != nil {
			return err
		}
		if next == nil {
			return nil
		}
		setup = next
	}
}

// serveShard handles one SETUP's worth of work: rebuild the shard,
// verify it via READY, answer sweep barriers. It returns (nil, nil)
// after FINISH, or the payload of a new SETUP when the coordinator
// resharded mid-run (elastic recovery) so the caller can start over.
func serveShard(fr *framer, payload []byte, opt WorkerOptions, logf func(string, ...any)) ([]byte, error) {
	abortf := func(format string, args ...any) error {
		err := fmt.Errorf(format, args...)
		fr.abort(err.Error())
		return err
	}
	setup, err := decodeSetup(payload)
	if err != nil {
		return nil, abortf("dtrain: decode setup: %v", err)
	}

	// Rebuild the shard: zero-copy doc-range view of the corpus file,
	// re-segmented locally with the coordinator's mined counts. The
	// per-document partition depends only on the document's tokens and
	// those counts, so this reproduces the coordinator's docs exactly —
	// cross-checked by the READY checksum.
	path := setup.CorpusPath
	if opt.CorpusPath != "" {
		path = opt.CorpusPath
	}
	f, err := corpusfile.Open(path)
	if err != nil {
		return nil, abortf("dtrain: open corpus %s: %v", path, err)
	}
	defer f.Close()
	sub, err := f.DocRange(setup.Lo, setup.Hi)
	if err != nil {
		return nil, abortf("dtrain: doc range [%d, %d): %v", setup.Lo, setup.Hi, err)
	}
	segs := segment.NewSegmenter(setup.Mined, segment.Options{
		Alpha:        setup.Params.SigThreshold,
		MaxPhraseLen: setup.Params.MaxPhraseLen,
	}).SegmentCorpus(sub)
	docs := topicmodel.DocsFromSegmentation(sub, segs)
	tokens := 0
	for i := range docs {
		tokens += docs[i].NumTokens()
	}
	logf("dtrain: worker %d/%d: shard [%d, %d), %d docs, %d tokens",
		setup.Index, setup.NumWorkers, setup.Lo, setup.Hi, len(docs), tokens)

	globals, err := fr.recvExpect(fGlobals)
	if err != nil {
		return nil, coordErr("globals", err)
	}
	gr := wireReader{data: globals}
	gv, gk := int(gr.u32()), int(gr.u32())
	if gr.err == nil && (gv != setup.V || gk != setup.K || len(globals) != 8+4*gv*gk+8*gk) {
		gr.err = fmt.Errorf("%w: %d bytes of %dx%d globals, setup says %dx%d", ErrProtocol, len(globals), gv, gk, setup.V, setup.K)
	}
	if gr.err != nil {
		return nil, abortf("dtrain: globals: %v", gr.err)
	}
	nwk := gr.i32s(make([]int32, setup.V*setup.K))
	nk := gr.i64s(make([]int64, setup.K))

	m, err := topicmodel.NewShardModel(docs, setup.V, setup.K,
		setup.Alpha, setup.AlphaSum, setup.Beta, setup.Z, nwk, nk)
	if err != nil {
		return nil, abortf("dtrain: shard model: %v", err)
	}

	var ready []byte
	ready = binary.LittleEndian.AppendUint32(ready, topicmodel.DocsChecksum(docs))
	ready = binary.LittleEndian.AppendUint64(ready, uint64(tokens))
	if err := fr.send(fReady, ready); err != nil {
		return nil, coordErr("ready", err)
	}

	alpha := make([]float64, setup.K)
	var out []byte
	sweeps := 0
	for {
		t, payload, err := fr.recv()
		if err != nil {
			return nil, coordErr("barrier", err)
		}
		switch t {
		case fSweep:
			r := wireReader{data: payload}
			r.u32() // iteration, for symmetry/debugging only
			base := r.u64()
			wantZ := r.u8() == 1
			alpha = r.f64s(alpha)
			alphaSum, beta, betaSum := r.f64(), r.f64(), r.f64()
			if r.err != nil {
				return nil, abortf("dtrain: sweep frame: %v", r.err)
			}
			if err := m.SetPriors(alpha, alphaSum, beta, betaSum); err != nil {
				return nil, abortf("dtrain: priors: %v", err)
			}
			t0 := time.Now()
			delta := m.ShardSweep(setup.Index, base)
			sampleNs := time.Since(t0).Nanoseconds()

			out = out[:0]
			out = binary.LittleEndian.AppendUint64(out, uint64(sampleNs))
			out = delta.AppendTo(out)
			if err := fr.send(fDelta, out); err != nil {
				return nil, coordErr("delta", err)
			}
			if wantZ {
				out = appendZ(out[:0], m.Z)
				if err := fr.send(fCkpt, out); err != nil {
					return nil, coordErr("ckpt", err)
				}
			}

			// The post-fold rows normally follow; a SETUP here instead
			// means a peer died during this barrier and the coordinator is
			// resharding — hand it up and start over.
			t, rows, err := fr.recv()
			if err != nil {
				return nil, coordErr("rows", err)
			}
			switch t {
			case fRows:
			case fSetup:
				logf("dtrain: worker %d: resync at mid-sweep barrier", setup.Index)
				return append([]byte(nil), rows...), nil
			case fAbort:
				return nil, fmt.Errorf("dtrain: coordinator aborted: %s", string(rows))
			default:
				return nil, abortf("dtrain: unexpected frame type %d awaiting rows", t)
			}
			cr, _, err := topicmodel.DecodeCountRows(rows, setup.V, setup.K)
			if err != nil {
				return nil, abortf("dtrain: rows: %v", err)
			}
			if err := m.SetGlobalRows(cr); err != nil {
				return nil, abortf("dtrain: rows: %v", err)
			}
			sweeps++

		case fFinish:
			out = appendZ(out[:0], m.Z)
			if err := fr.send(fFinal, out); err != nil {
				return nil, coordErr("final", err)
			}
			logf("dtrain: worker %d: done after %d sweeps", setup.Index, sweeps)
			return nil, nil

		case fSetup:
			logf("dtrain: worker %d: resync after %d sweeps", setup.Index, sweeps)
			return append([]byte(nil), payload...), nil

		case fAbort:
			return nil, fmt.Errorf("dtrain: coordinator aborted: %s", string(payload))

		default:
			return nil, abortf("dtrain: unexpected frame type %d", t)
		}
	}
}

// coordErr classifies a coordinator-exchange failure: explicit aborts
// and protocol violations stay fatal verbatim; anything else is a
// connection-level loss, wrapped in retryable ErrCoordinatorLost.
func coordErr(op string, err error) error {
	var ae *abortError
	if errors.As(err, &ae) || errors.Is(err, ErrProtocol) {
		return fmt.Errorf("dtrain: %s: %w", op, err)
	}
	return fmt.Errorf("%w: %s: %v", ErrCoordinatorLost, op, err)
}

// Dial connects to a coordinator, retrying with jittered exponential
// backoff until the coordinator is listening or the timeout elapses —
// worker processes are routinely started before (or while) the
// coordinator binds its port, and they reconnect through the same path
// after a coordinator restart. The jitter keeps a fleet of workers
// restarted together from hammering the port in lockstep.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	deadline := time.Now().Add(timeout)
	rng := xrand.New(uint64(time.Now().UnixNano()))
	backoff := 50 * time.Millisecond
	for {
		attempt := time.Until(deadline)
		if attempt > 5*time.Second {
			attempt = 5 * time.Second
		}
		if attempt <= 0 {
			attempt = time.Millisecond
		}
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err == nil {
			return conn, nil
		}
		// Sleep a uniform draw from [backoff/2, backoff), doubling the
		// ceiling up to 2s; give up when the next attempt would start
		// past the deadline.
		sleep := backoff/2 + time.Duration(rng.Intn(int(backoff/2)))
		if time.Now().Add(sleep).After(deadline) {
			return nil, fmt.Errorf("dtrain: dial %s: %w", addr, err)
		}
		time.Sleep(sleep)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}
