package dtrain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"topmine/internal/corpus"
	"topmine/internal/corpusfile"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
	"topmine/internal/topicmodel"
)

// fixture is one preprocessed corpus on disk plus the coordinator-side
// view of it: the exact docs an in-process run would train on.
type fixture struct {
	path  string
	docs  []topicmodel.Doc
	v     int
	mined *phrasemine.Result
	job   Job
}

const (
	fixSigAlpha = 3.0
	fixMaxLen   = 8
)

// withWorkers is opt for in-process training on the given number of
// topic workers, the run a distributed one must reproduce.
func withWorkers(opt topicmodel.Options, workers int) topicmodel.Options {
	opt.Workers = workers
	return opt
}

func buildFixture(tb testing.TB, domain string, nDocs int) *fixture {
	tb.Helper()
	c := synth.GenerateCorpus(synth.Domains()[domain](),
		synth.Options{Docs: nDocs, Seed: 7}, corpus.DefaultBuildOptions())
	path := filepath.Join(tb.TempDir(), "corpus.tpc")
	if err := corpusfile.WriteFile(path, c, nil); err != nil {
		tb.Fatalf("write corpus: %v", err)
	}
	// Preprocess from the file's own view of the corpus, exactly as a
	// coordinator process would.
	f, err := corpusfile.Open(path)
	if err != nil {
		tb.Fatalf("open corpus: %v", err)
	}
	tb.Cleanup(func() { f.Close() })
	fc := f.Corpus()
	mined := phrasemine.Mine(fc, phrasemine.Options{MinSupport: 5, MaxLen: fixMaxLen})
	segs := segment.NewSegmenter(mined, segment.Options{Alpha: fixSigAlpha, MaxPhraseLen: fixMaxLen}).
		SegmentCorpus(fc)
	docs := topicmodel.DocsFromSegmentation(fc, segs)
	return &fixture{
		path:  path,
		docs:  docs,
		v:     fc.Vocab.Size(),
		mined: mined,
		job: Job{
			CorpusPath:   path,
			Docs:         docs,
			VocabSize:    fc.Vocab.Size(),
			Mined:        mined,
			SigAlpha:     fixSigAlpha,
			MaxPhraseLen: fixMaxLen,
		},
	}
}

// startWorkers dials n workers at addr in goroutines, each optionally
// wrapping its connection, and returns a channel per worker carrying
// RunWorker's result.
func startWorkers(t *testing.T, addr string, n int, wopt WorkerOptions, wrap func(i int, c net.Conn) net.Conn) []chan error {
	t.Helper()
	chs := make([]chan error, n)
	for i := range chs {
		ch := make(chan error, 1)
		chs[i] = ch
		go func(i int) {
			conn, err := Dial(addr, 10*time.Second)
			if err != nil {
				ch <- err
				return
			}
			if wrap != nil {
				conn = wrap(i, conn)
			}
			ch <- RunWorker(conn, wopt)
		}(i)
	}
	return chs
}

func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

func assertModelsIdentical(t *testing.T, got, want *topicmodel.Model) {
	t.Helper()
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("distributed model invariants: %v", err)
	}
	for d := range want.Z {
		for i := range want.Z[d] {
			if got.Z[d][i] != want.Z[d][i] {
				t.Fatalf("Z[%d][%d] = %d, want %d", d, i, got.Z[d][i], want.Z[d][i])
			}
		}
	}
	for w := range want.Nwk {
		for k := range want.Nwk[w] {
			if got.Nwk[w][k] != want.Nwk[w][k] {
				t.Fatalf("Nwk[%d][%d] = %d, want %d", w, k, got.Nwk[w][k], want.Nwk[w][k])
			}
		}
	}
	for k := range want.Nk {
		if got.Nk[k] != want.Nk[k] {
			t.Fatalf("Nk[%d] = %d, want %d", k, got.Nk[k], want.Nk[k])
		}
	}
	for k := range want.Alpha {
		if got.Alpha[k] != want.Alpha[k] {
			t.Fatalf("Alpha[%d] = %v, want %v (bits differ)", k, got.Alpha[k], want.Alpha[k])
		}
	}
	if got.AlphaSum != want.AlphaSum || got.Beta != want.Beta || got.BetaSum != want.BetaSum {
		t.Fatalf("priors differ: alphaSum %v/%v beta %v/%v betaSum %v/%v",
			got.AlphaSum, want.AlphaSum, got.Beta, want.Beta, got.BetaSum, want.BetaSum)
	}
}

// TestDistributedMatchesInProcess is the tentpole gate: a real
// multi-process-shaped run (coordinator + workers over loopback TCP,
// workers rebuilding shards from the corpus file) must land on the
// bit-exact model state of in-process SweepParallel with the same
// topology — including through hyperparameter-optimisation barriers.
func TestDistributedMatchesInProcess(t *testing.T) {
	fix := buildFixture(t, "20conf", 120)
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := topicmodel.Options{
				K: 4, Iterations: 40, Seed: 11,
				OptimizeHyper: true, HyperEvery: 10, BurnIn: 5,
			}
			want := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, workers))

			ln := listen(t)
			chs := startWorkers(t, ln.Addr().String(), workers, WorkerOptions{}, nil)
			job := fix.job
			job.Model = opt
			sweeps := 0
			got, err := Train(ln, job, Options{
				Workers: workers,
				SweepStats: func(st topicmodel.SweepStats) {
					sweeps++
					if st.Workers != workers || len(st.WorkerSample) != workers {
						t.Errorf("sweep stats shape: %+v", st)
					}
				},
			})
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			for i, ch := range chs {
				if werr := <-ch; werr != nil {
					t.Fatalf("worker %d: %v", i, werr)
				}
			}
			if sweeps != opt.Iterations {
				t.Fatalf("got %d sweep stats, want %d", sweeps, opt.Iterations)
			}
			assertModelsIdentical(t, got, want)
		})
	}
}

func TestTrainValidation(t *testing.T) {
	fix := buildFixture(t, "20conf", 10)
	job := fix.job
	job.Model = topicmodel.Options{K: 2, Iterations: 2, Seed: 1}
	if _, err := Train(nil, job, Options{Workers: 0}); err == nil {
		t.Fatal("Train with 0 workers succeeded")
	}
	if _, err := Train(nil, job, Options{Workers: len(fix.docs)}); err == nil {
		t.Fatal("Train with more workers than corpus can shard succeeded")
	}
}

// dyingConn closes its connection after a fixed number of writes,
// simulating a worker process crashing mid-run.
type dyingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	limit  int
}

func (c *dyingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	dead := c.writes > c.limit
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		return 0, errors.New("injected worker death")
	}
	return c.Conn.Write(p)
}

// TestWorkerDeathAborts: a worker that dies mid-training (connection
// closed between barriers) must fail the run with ErrWorkerLost —
// promptly, not after the barrier timeout, since the coordinator sees
// the closed connection immediately.
func TestWorkerDeathAborts(t *testing.T) {
	fix := buildFixture(t, "20conf", 60)
	ln := listen(t)
	// The framer writes header and payload separately: HELLO and READY
	// cost two writes each, every sweep's DELTA two more. A limit of 8
	// kills worker 0 on its third sweep, well inside the run.
	wrap := func(i int, c net.Conn) net.Conn {
		if i != 0 {
			return c
		}
		return &dyingConn{Conn: c, limit: 8}
	}
	chs := startWorkers(t, ln.Addr().String(), 2, WorkerOptions{}, wrap)
	job := fix.job
	job.Model = topicmodel.Options{K: 3, Iterations: 200, Seed: 5}
	start := time.Now()
	_, err := Train(ln, job, Options{Workers: 2, BarrierTimeout: 30 * time.Second})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("Train error = %v, want ErrWorkerLost", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("coordinator took %v to notice a dead worker", elapsed)
	}
	// The surviving worker must be released too (abort or closed conn),
	// not left hanging.
	for i, ch := range chs {
		select {
		case werr := <-ch:
			if werr == nil {
				t.Fatalf("worker %d finished cleanly after an aborted run", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d still running after coordinator abort", i)
		}
	}
}

// stallConn stops delivering writes after a fixed count without
// closing the connection — the pathological case where a worker
// process is alive but wedged. Only the barrier deadline can save the
// coordinator here.
type stallConn struct {
	net.Conn
	mu      sync.Mutex
	writes  int
	limit   int
	release chan struct{}
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	stalled := c.writes > c.limit
	c.mu.Unlock()
	if stalled {
		<-c.release
		return 0, errors.New("stalled write released")
	}
	return c.Conn.Write(p)
}

func TestWorkerStallTimesOut(t *testing.T) {
	fix := buildFixture(t, "20conf", 60)
	ln := listen(t)
	release := make(chan struct{})
	defer close(release)
	wrap := func(i int, c net.Conn) net.Conn {
		if i != 0 {
			return c
		}
		return &stallConn{Conn: c, limit: 8, release: release}
	}
	startWorkers(t, ln.Addr().String(), 2, WorkerOptions{}, wrap)
	job := fix.job
	job.Model = topicmodel.Options{K: 3, Iterations: 200, Seed: 5}
	barrier := 1500 * time.Millisecond
	start := time.Now()
	_, err := Train(ln, job, Options{Workers: 2, BarrierTimeout: barrier})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("Train error = %v, want ErrWorkerLost", err)
	}
	if elapsed > barrier+8*time.Second {
		t.Fatalf("coordinator took %v to time out a stalled worker (barrier %v)", elapsed, barrier)
	}
}

// TestWorkerAbortPropagates: a worker that fails locally (here: its
// corpus path does not resolve) reports the cause in an ABORT frame,
// and the coordinator surfaces that exact cause instead of a generic
// connection error.
func TestWorkerAbortPropagates(t *testing.T) {
	fix := buildFixture(t, "20conf", 60)
	ln := listen(t)
	wopt := func(i int) WorkerOptions {
		if i == 1 {
			return WorkerOptions{CorpusPath: filepath.Join(t.TempDir(), "missing.tpc")}
		}
		return WorkerOptions{}
	}
	for i := 0; i < 2; i++ {
		go func(i int) {
			conn, err := Dial(ln.Addr().String(), 10*time.Second)
			if err != nil {
				return
			}
			_ = RunWorker(conn, wopt(i))
		}(i)
	}
	job := fix.job
	job.Model = topicmodel.Options{K: 3, Iterations: 5, Seed: 5}
	_, err := Train(ln, job, Options{Workers: 2, BarrierTimeout: 30 * time.Second})
	if err == nil {
		t.Fatal("Train succeeded with a worker that cannot open the corpus")
	}
	if errors.Is(err, ErrWorkerLost) {
		t.Fatalf("worker abort misclassified as lost connection: %v", err)
	}
	if !strings.Contains(err.Error(), "aborted") || !strings.Contains(err.Error(), "open corpus") {
		t.Fatalf("abort cause not propagated: %v", err)
	}
}

// TestAbortBeforeSetupWins: a worker that gives up before reading its
// SETUP — here an in-test protocol speaker that sends HELLO, then ABORT,
// then closes without reading, resetting the connection — makes the
// coordinator's SETUP or GLOBALS write fail. Its ABORT is already in
// the coordinator's socket buffer, so the run must fail with that
// abort, not with ErrWorkerLost.
func TestAbortBeforeSetupWins(t *testing.T) {
	fix := buildFixture(t, "20conf", 60)
	ln := listen(t)
	go func() {
		conn, err := Dial(ln.Addr().String(), 10*time.Second)
		if err != nil {
			return
		}
		fr := &framer{conn: conn, timeout: 10 * time.Second}
		_ = fr.send(fHello, binary.LittleEndian.AppendUint32(nil, protoVersion))
		_ = fr.send(fAbort, []byte("open corpus: no such file"))
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // close with a reset, not a FIN
		}
		conn.Close()
	}()
	job := fix.job
	job.Model = topicmodel.Options{K: 3, Iterations: 5, Seed: 5}
	_, err := Train(ln, job, Options{Workers: 1, BarrierTimeout: 30 * time.Second})
	if err == nil {
		t.Fatal("Train succeeded with a worker that aborted")
	}
	if errors.Is(err, ErrWorkerLost) {
		t.Fatalf("worker abort misclassified as lost connection: %v", err)
	}
	if !strings.Contains(err.Error(), "aborted") || !strings.Contains(err.Error(), "open corpus") {
		t.Fatalf("abort cause not propagated: %v", err)
	}
}

// TestShardMismatchAborts: a worker whose rebuilt shard does not match
// the coordinator's documents must be rejected at the READY checksum
// barrier, before any sweep runs. Worker 1 is a minimal in-test
// protocol speaker that reports a bogus checksum.
func TestShardMismatchAborts(t *testing.T) {
	fix := buildFixture(t, "20conf", 60)
	ln := listen(t)
	go func() {
		conn, err := Dial(ln.Addr().String(), 10*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		_ = RunWorker(conn, WorkerOptions{})
	}()
	go func() {
		conn, err := Dial(ln.Addr().String(), 10*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		fr := &framer{conn: conn, timeout: 10 * time.Second}
		var hello []byte
		hello = binary.LittleEndian.AppendUint32(hello, protoVersion)
		_ = fr.send(fHello, hello)
		if _, err := fr.recvExpect(fSetup); err != nil {
			return
		}
		if _, err := fr.recvExpect(fGlobals); err != nil {
			return
		}
		var ready []byte
		ready = binary.LittleEndian.AppendUint32(ready, 0xdeadbeef)
		ready = binary.LittleEndian.AppendUint64(ready, 1)
		_ = fr.send(fReady, ready)
		_, _, _ = fr.recv() // coordinator's abort
	}()
	job := fix.job
	job.Model = topicmodel.Options{K: 3, Iterations: 5, Seed: 5}
	_, err := Train(ln, job, Options{Workers: 2, BarrierTimeout: 30 * time.Second})
	if err == nil {
		t.Fatal("Train succeeded with a worker reporting a wrong shard checksum")
	}
	if !strings.Contains(err.Error(), "shard mismatch") {
		t.Fatalf("checksum failure not reported as shard mismatch: %v", err)
	}
}
