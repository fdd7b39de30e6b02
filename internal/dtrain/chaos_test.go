package dtrain

// Fault-injection coverage for the elastic/checkpoint layer: checkpoint
// round-trips and corruption sweeps, resume byte-identity, elastic
// recovery with replacement workers, a chaos proxy that kills, wedges
// or truncates worker connections mid-run, worker-side error
// classification, and the accept-loop total budget. The invariant
// every test leans on: whatever faults fire, a run either completes
// with the byte-exact model of an uninterrupted run of the same
// topology, or fails with a named error — never a hang, never silent
// divergence.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"topmine/internal/topicmodel"
)

// trainOpts is the shared schedule for the recovery tests: long enough
// to cross checkpoint and hyperparameter barriers, short enough to stay
// fast. It matches TestDistributedMatchesInProcess so the byte-identity
// baseline is the same trajectory the tentpole gate already pins.
func trainOpts() topicmodel.Options {
	return topicmodel.Options{
		K: 4, Iterations: 40, Seed: 11,
		OptimizeHyper: true, HyperEvery: 10, BurnIn: 5,
	}
}

func namedCkptErr(err error) bool {
	for _, want := range []error{ErrCkptBadMagic, ErrCkptVersion, ErrCkptTruncated, ErrCkptChecksum, ErrCkptFormat} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestCheckpointRoundTrip: a captured checkpoint survives the .tpd
// container byte-for-byte — decode restores every field, and the
// restored model is bit-identical to the captured one, RNG position
// included.
func TestCheckpointRoundTrip(t *testing.T) {
	fix := buildFixture(t, "20conf", 20)
	opt := topicmodel.Options{K: 3, Iterations: 8, Seed: 2, OptimizeHyper: true, HyperEvery: 4, BurnIn: 2}
	m := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, 1))
	ck := captureCheckpoint(m, opt.Filled(), 8, topicmodel.DocsChecksum(fix.docs))

	dir := t.TempDir()
	path := filepath.Join(dir, "ck.tpd")
	if err := WriteCheckpointFile(path, ck); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Older builds set meta flag bit 1 on runs of the dense reference
	// sampler. Such a file still reads, and restores the same model.
	old := ck.encode()
	meta := old[ckptHeaderSize+4*ckptEntrySize:]
	meta[36] |= 2
	binary.LittleEndian.PutUint32(old[ckptHeaderSize+4:], crc32.ChecksumIEEE(meta[:ckptMetaSize]))
	oldPath := filepath.Join(dir, "dense.tpd")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, oldPath} {
		got, err := ReadCheckpointFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", filepath.Base(p), err)
		}
		if got.K != ck.K || got.V != ck.V || got.Sweep != ck.Sweep ||
			got.Iterations != ck.Iterations || got.HyperEvery != ck.HyperEvery ||
			got.BurnIn != ck.BurnIn || got.OptimizeHyper != ck.OptimizeHyper ||
			got.CorpusChecksum != ck.CorpusChecksum ||
			got.TotalTokens != ck.TotalTokens || got.RNG != ck.RNG ||
			got.AlphaSum != ck.AlphaSum || got.Beta != ck.Beta || got.BetaSum != ck.BetaSum {
			t.Fatalf("%s: scalar fields did not round-trip:\ngot  %+v\nwant %+v", filepath.Base(p), got, ck)
		}
		rm, err := got.restoreModel(fix.docs, fix.v)
		if err != nil {
			t.Fatalf("restore %s: %v", filepath.Base(p), err)
		}
		assertModelsIdentical(t, rm, m)
		if rm.SamplerState() != m.SamplerState() {
			t.Fatalf("%s: RNG position did not round-trip: %v vs %v", filepath.Base(p), rm.SamplerState(), m.SamplerState())
		}
	}
}

// TestCheckpointCorruption sweeps every single-byte flip and every
// truncation length over a written .tpd and demands a named checkpoint
// error for each — no panic, no silent acceptance. The per-section CRCs
// cover the payloads, and the header/table validation covers the rest,
// so the sweep is exhaustive by construction; this pins that no
// unvalidated byte sneaks into a future format revision.
func TestCheckpointCorruption(t *testing.T) {
	fix := buildFixture(t, "20conf", 20)
	opt := topicmodel.Options{K: 3, Iterations: 5, Seed: 2}
	m := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, 1))
	ck := captureCheckpoint(m, opt.Filled(), 3, topicmodel.DocsChecksum(fix.docs))
	path := filepath.Join(t.TempDir(), "ck.tpd")
	if err := WriteCheckpointFile(path, ck); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if _, err := decodeCheckpoint(data); err != nil {
		t.Fatalf("pristine checkpoint does not decode: %v", err)
	}

	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		_, err := decodeCheckpoint(mut)
		if err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(data))
		}
		if !namedCkptErr(err) {
			t.Fatalf("flipping byte %d: error %v does not wrap a named checkpoint error", i, err)
		}
	}
	for n := 0; n < len(data); n++ {
		_, err := decodeCheckpoint(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(data))
		}
		if !namedCkptErr(err) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap a named checkpoint error", n, err)
		}
	}

	// The same classification must reach callers going through the file
	// path (a byte-flipped file on disk, as the CI chaos step sees it).
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad.tpd")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatalf("write mutated: %v", err)
	}
	if _, err := ReadCheckpointFile(bad); !namedCkptErr(err) {
		t.Fatalf("ReadCheckpointFile on a corrupted file: %v", err)
	}

	// A checkpoint resumed against the wrong corpus (different .tpc, or
	// different mining parameters) fails with ErrCorpusMismatch before
	// any worker is accepted — Resume's fail-fast trial restore.
	other := buildFixture(t, "20conf", 30)
	if _, err := ck.restoreModel(other.docs, other.v); !errors.Is(err, ErrCorpusMismatch) {
		t.Fatalf("restore against a different corpus: %v, want ErrCorpusMismatch", err)
	}
	otherJob := other.job
	if _, err := Resume(nil, otherJob, ck, Options{Workers: 1}); !errors.Is(err, ErrCorpusMismatch) {
		t.Fatalf("Resume against a different corpus: %v, want ErrCorpusMismatch", err)
	}
}

// drainWorkers asserts every worker goroutine terminates, returning the
// collected errors; a worker still running after the run ended is a
// propagation bug.
func drainWorkers(t *testing.T, chs []chan error, within time.Duration) []error {
	t.Helper()
	errs := make([]error, len(chs))
	for i, ch := range chs {
		select {
		case errs[i] = <-ch:
		case <-time.After(within):
			t.Fatalf("worker %d still running %v after the coordinator returned", i, within)
		}
	}
	return errs
}

// TestResumeFromCheckpoint is the crash-recovery pin: a run that dies
// mid-run (after its sweep-10 checkpoint) restarts from the .tpd with
// `Resume` and lands on the byte-exact model of a run that was never
// interrupted — and a resumed run is free to change its worker count,
// staying deterministic for the new topology.
func TestResumeFromCheckpoint(t *testing.T) {
	fix := buildFixture(t, "20conf", 120)
	opt := trainOpts()
	want := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, 2))
	ckpt := filepath.Join(t.TempDir(), "run.tpd")

	// Run 1 crashes: worker 0 dies around sweep 14, without Elastic, so
	// the run fails — the "coordinator lost between checkpoints"
	// scenario, leaving the sweep-10 checkpoint on disk.
	ln := listen(t)
	wrap := func(i int, c net.Conn) net.Conn {
		if i != 0 {
			return c
		}
		return &dyingConn{Conn: c, limit: 34}
	}
	chs := startWorkers(t, ln.Addr().String(), 2, WorkerOptions{BarrierTimeout: 15 * time.Second}, wrap)
	job := fix.job
	job.Model = opt
	_, err := Train(ln, job, Options{
		Workers: 2, BarrierTimeout: 15 * time.Second,
		Checkpoint: CheckpointSpec{Path: ckpt, Every: 10},
	})
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("interrupted run: %v, want ErrWorkerLost", err)
	}
	drainWorkers(t, chs, 20*time.Second)

	ck, err := ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatalf("reading checkpoint of crashed run: %v", err)
	}
	if ck.Sweep != 10 {
		t.Fatalf("checkpoint is at sweep %d, want 10", ck.Sweep)
	}

	// Run 2 resumes with the same worker count. job.Model is left zero:
	// the schedule must come from the checkpoint.
	ln2 := listen(t)
	chs2 := startWorkers(t, ln2.Addr().String(), 2, WorkerOptions{}, nil)
	job2 := fix.job
	got, err := Resume(ln2, job2, ck, Options{Workers: 2, BarrierTimeout: 15 * time.Second})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	for i, werr := range drainWorkers(t, chs2, 20*time.Second) {
		if werr != nil {
			t.Fatalf("resume worker %d: %v", i, werr)
		}
	}
	assertModelsIdentical(t, got, want)

	// Runs 3 and 4 resume with a different worker count: the trajectory
	// differs from the 2-worker one (AD-LDA is deterministic per
	// topology, not across them) but must be reproducible.
	models := make([]*topicmodel.Model, 2)
	for round := range models {
		ln3 := listen(t)
		chs3 := startWorkers(t, ln3.Addr().String(), 3, WorkerOptions{}, nil)
		m3, err := Resume(ln3, fix.job, ck, Options{Workers: 3, BarrierTimeout: 15 * time.Second})
		if err != nil {
			t.Fatalf("Resume with 3 workers (round %d): %v", round, err)
		}
		drainWorkers(t, chs3, 20*time.Second)
		models[round] = m3
	}
	assertModelsIdentical(t, models[1], models[0])
}

// TestElasticRecovery: with Elastic set, a worker dying mid-run rolls
// the model back to the last barrier snapshot, a spare worker is
// re-accepted, and the run completes — byte-identical to a run that
// never lost anyone, because the recovered topology matches.
func TestElasticRecovery(t *testing.T) {
	fix := buildFixture(t, "20conf", 120)
	opt := trainOpts()
	want := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, 2))

	ln := listen(t)
	addr := ln.Addr().String()
	wrap := func(i int, c net.Conn) net.Conn {
		if i != 0 {
			return c
		}
		return &dyingConn{Conn: c, limit: 30}
	}
	chs := startWorkers(t, addr, 2, WorkerOptions{BarrierTimeout: 15 * time.Second}, wrap)

	// The spare dials only once the run is underway, so startup
	// deterministically accepts the two original workers; it then sits
	// in the accept backlog until recovery picks it up.
	started := make(chan struct{})
	var once sync.Once
	spare := make(chan error, 1)
	go func() {
		<-started
		conn, err := Dial(addr, 10*time.Second)
		if err != nil {
			spare <- err
			return
		}
		spare <- RunWorker(conn, WorkerOptions{BarrierTimeout: 15 * time.Second})
	}()

	job := fix.job
	job.Model = opt
	recovered := 0
	got, err := Train(ln, job, Options{
		Workers: 2, BarrierTimeout: 15 * time.Second,
		Elastic: true, Checkpoint: CheckpointSpec{Every: 10},
		ReacceptTimeout: 10 * time.Second,
		SweepStats: func(st topicmodel.SweepStats) {
			once.Do(func() { close(started) })
			recovered = st.Recovered
		},
	})
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("SweepStats reported %d recovered workers, want 1", recovered)
	}
	assertModelsIdentical(t, got, want)

	errs := drainWorkers(t, append(chs, spare), 20*time.Second)
	if errs[0] == nil {
		t.Fatal("the killed worker finished cleanly")
	}
	if errs[1] != nil {
		t.Fatalf("surviving worker failed to resync: %v", errs[1])
	}
	if errs[2] != nil {
		t.Fatalf("replacement worker: %v", errs[2])
	}
}

// chaosProxy forwards a single worker connection to the coordinator and
// injects one fault in the worker→coordinator direction once a byte
// budget is spent: kill closes both sides, truncate forwards a partial
// frame first, wedge silently discards everything from then on while
// keeping the connection open (the worst case: only deadlines help).
func chaosProxy(t *testing.T, target, fault string, after int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", target)
		if err != nil {
			conn.Close()
			return
		}
		go func() {
			buf := make([]byte, 4096)
			for {
				n, err := up.Read(buf)
				if n > 0 {
					if _, werr := conn.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
		sent, wedged := 0, false
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if n > 0 && !wedged {
				if sent+n >= after {
					switch fault {
					case "kill":
						conn.Close()
						up.Close()
						return
					case "truncate":
						_, _ = up.Write(buf[:after-sent])
						conn.Close()
						up.Close()
						return
					case "wedge":
						wedged = true
					}
				}
				if !wedged {
					if _, werr := up.Write(buf[:n]); werr != nil {
						conn.Close()
						return
					}
				}
			}
			sent += n
			if err != nil {
				up.Close()
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestChaosMatrix drives an elastic run through the chaos proxy across
// the fault matrix: killed mid-handshake (at READY), killed mid-sweep,
// a torn frame, and a wedged-but-open connection. Every scenario must
// recover via the spare worker and finish byte-identical to the
// uninterrupted 2-worker run, inside a hard watchdog.
func TestChaosMatrix(t *testing.T) {
	fix := buildFixture(t, "20conf", 120)
	opt := trainOpts()
	want := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, 2))

	cases := []struct {
		fault string
		after int // worker→coordinator bytes before the fault fires
	}{
		{"kill", 30},       // mid-READY: dies during the setup handshake
		{"kill", 6000},     // mid-sweep: dies between barriers
		{"truncate", 9000}, // torn frame: partial DELTA then EOF
		{"wedge", 6000},    // alive but silent: only the barrier deadline saves the run
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s@%d", tc.fault, tc.after), func(t *testing.T) {
			ln := listen(t)
			addr := ln.Addr().String()
			proxied := chaosProxy(t, addr, tc.fault, tc.after)

			wopt := WorkerOptions{BarrierTimeout: 5 * time.Second}
			chs := make([]chan error, 3)
			for i := range chs {
				chs[i] = make(chan error, 1)
			}
			dialVia := func(i int, via string) {
				conn, err := Dial(via, 10*time.Second)
				if err != nil {
					chs[i] <- err
					return
				}
				chs[i] <- RunWorker(conn, wopt)
			}
			go dialVia(0, proxied)
			go dialVia(1, addr)
			// The spare dials only after startup accepted the two
			// originals (epoch start logs "workers connected"), so every
			// recovery — even one during the READY handshake — refills the
			// topology back to 2 workers.
			started := make(chan struct{})
			var once sync.Once
			go func() {
				<-started
				dialVia(2, addr)
			}()

			job := fix.job
			job.Model = opt
			type result struct {
				m   *topicmodel.Model
				err error
			}
			done := make(chan result, 1)
			go func() {
				m, err := Train(ln, job, Options{
					Workers: 2, BarrierTimeout: 1500 * time.Millisecond,
					Elastic: true, Checkpoint: CheckpointSpec{Every: 5},
					ReacceptTimeout: 10 * time.Second,
					Logf: func(format string, args ...any) {
						if strings.Contains(format, "workers connected") {
							once.Do(func() { close(started) })
						}
					},
				})
				done <- result{m, err}
			}()

			select {
			case res := <-done:
				if res.err != nil {
					t.Fatalf("chaos run (%s after %d bytes) failed: %v", tc.fault, tc.after, res.err)
				}
				assertModelsIdentical(t, res.m, want)
			case <-time.After(90 * time.Second):
				t.Fatalf("chaos run (%s after %d bytes) hung", tc.fault, tc.after)
			}
			errs := drainWorkers(t, chs, 30*time.Second)
			if errs[0] == nil {
				t.Fatalf("faulted worker finished cleanly despite %s", tc.fault)
			}
			if errs[1] != nil {
				t.Fatalf("direct worker: %v", errs[1])
			}
			if errs[2] != nil {
				t.Fatalf("spare worker: %v", errs[2])
			}
		})
	}
}

// TestWorkerErrorClassification pins the worker-side retryability
// split: a dead coordinator connection wraps ErrCoordinatorLost (the
// public reconnect loop's signal), while an explicit coordinator ABORT
// stays fatal with its message intact.
func TestWorkerErrorClassification(t *testing.T) {
	client, server := net.Pipe()
	server.Close()
	if err := RunWorker(client, WorkerOptions{}); !errors.Is(err, ErrCoordinatorLost) {
		t.Fatalf("dead peer: %v, want ErrCoordinatorLost", err)
	}

	client, server = net.Pipe()
	go func() {
		fr := &framer{conn: server, timeout: 10 * time.Second}
		if _, err := fr.recvExpect(fHello); err != nil {
			return
		}
		_ = fr.send(fAbort, []byte("scheduled maintenance"))
	}()
	err := RunWorker(client, WorkerOptions{BarrierTimeout: 10 * time.Second})
	if err == nil || errors.Is(err, ErrCoordinatorLost) {
		t.Fatalf("explicit abort must stay fatal, got %v", err)
	}
	if !strings.Contains(err.Error(), "scheduled maintenance") {
		t.Fatalf("abort cause lost: %v", err)
	}
}

// TestAcceptBudgetIsTotal pins the accept-loop fix: AcceptTimeout is a
// total budget for the whole startup handshake, so a connection that
// never completes HELLO cannot stretch startup past it (previously each
// accept got its own timeout, N-fold in the worst case).
func TestAcceptBudgetIsTotal(t *testing.T) {
	fix := buildFixture(t, "20conf", 20)
	ln := listen(t)
	addr := ln.Addr().String()
	go func() {
		conn, err := Dial(addr, 10*time.Second)
		if err == nil {
			_ = RunWorker(conn, WorkerOptions{BarrierTimeout: 3 * time.Second})
		}
	}()
	mute, err := net.Dial("tcp", addr) // connects but never sends HELLO
	if err != nil {
		t.Fatalf("mute dial: %v", err)
	}
	defer mute.Close()

	job := fix.job
	job.Model = topicmodel.Options{K: 2, Iterations: 2, Seed: 1}
	budget := 1 * time.Second
	start := time.Now()
	_, err = Train(ln, job, Options{Workers: 2, AcceptTimeout: budget, BarrierTimeout: 3 * time.Second})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Train succeeded without a second worker handshake")
	}
	if elapsed > budget+3*time.Second {
		t.Fatalf("startup took %v against a %v total accept budget", elapsed, budget)
	}
}
