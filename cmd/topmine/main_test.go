package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"topmine"
	"topmine/internal/obs"
)

// oneShotReader yields its content once and then fails hard on any
// further Read after EOF — modelling a pipe: rereading stdin is
// impossible, and any code path that tries must surface as an error
// rather than silently training on an empty corpus.
type oneShotReader struct {
	r     io.Reader
	done  bool
	reads int
}

func (o *oneShotReader) Read(p []byte) (int, error) {
	if o.done {
		return 0, fmt.Errorf("stdin reread detected: Read called after EOF")
	}
	n, err := o.r.Read(p)
	o.reads++
	if err == io.EOF {
		o.done = true
	}
	return n, err
}

func testStdinDocs() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString("great food and friendly service, great food indeed.\n")
		b.WriteString("slow service and terrible food; never again.\n")
	}
	return b.String()
}

// testStdinDocs2 is a second, topically distinct shard for the
// living-corpus workflows.
func testStdinDocs2() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString("fast shipping and careful packaging, fast shipping always.\n")
		b.WriteString("damaged box and missing parts; fast shipping cannot save this.\n")
	}
	return b.String()
}

// fastArgs keeps in-process pipeline runs quick.
func fastArgs(extra ...string) []string {
	return append([]string{"-k", "2", "-iters", "3", "-minsup", "2", "-top", "3"}, extra...)
}

// trainArgs is `topmine train` with fastArgs.
func trainArgs(extra ...string) []string { return append([]string{"train"}, fastArgs(extra...)...) }

// preprocessArgs is `topmine preprocess out` with fastArgs' mining
// flags, so that a train run with fastArgs reuses the stored artifacts.
func preprocessArgs(out string, extra ...string) []string {
	return append([]string{"preprocess", out, "-minsup", "2"}, extra...)
}

// TestStdinReadOnce pins the satellite fix: `-input -` combined with
// -save and -infer must consume stdin exactly once — the infer path
// folds text into the in-memory result and must never touch stdin
// again.
func TestStdinReadOnce(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "model.tpm")
	stdin := &oneShotReader{r: strings.NewReader(testStdinDocs())}
	var stdout, stderr bytes.Buffer
	args := trainArgs("-input", "-", "-save", snap, "-infer", "great food")
	if err := run(args, stdin, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "inferred mixture") {
		t.Fatalf("no inference output:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "snapshot saved") {
		t.Fatalf("no snapshot confirmation:\n%s", stderr.String())
	}
	// Loading the snapshot back must not need stdin at all.
	stdin2 := &oneShotReader{r: strings.NewReader("")}
	stdin2.done = true // any read explodes
	var out2, err2 bytes.Buffer
	if err := run([]string{"load", snap, "-infer", "terrible slow service"}, stdin2, &out2, &err2); err != nil {
		t.Fatalf("run -load: %v\nstderr:\n%s", err, err2.String())
	}
	if !strings.Contains(out2.String(), "best topic:") {
		t.Fatalf("no inference from loaded snapshot:\n%s", out2.String())
	}
}

// TestPreprocessAndTrainFromCorpusFile drives the .tpc workflow end to
// end through the CLI: preprocess once, then train from the corpus
// file with stored artifacts reused.
func TestPreprocessAndTrainFromCorpusFile(t *testing.T) {
	dir := t.TempDir()
	tpc := filepath.Join(dir, "corpus.tpc")
	stdin := &oneShotReader{r: strings.NewReader(testStdinDocs())}
	var out, errb bytes.Buffer
	if err := run(preprocessArgs(tpc, "-input", "-"), stdin, &out, &errb); err != nil {
		t.Fatalf("preprocess: %v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "corpus file saved") {
		t.Fatalf("no save confirmation:\n%s", errb.String())
	}

	var out2, errb2 bytes.Buffer
	if err := run(trainArgs("-corpus", tpc), strings.NewReader(""), &out2, &errb2); err != nil {
		t.Fatalf("train from corpus file: %v\nstderr:\n%s", err, errb2.String())
	}
	if !strings.Contains(errb2.String(), "reusing stored phrase mining") {
		t.Fatalf("stored artifacts not reused:\n%s", errb2.String())
	}
	if !strings.Contains(out2.String(), "Topic 0") {
		t.Fatalf("no topics printed:\n%s", out2.String())
	}

	// Different mining parameters must trigger a recompute, loudly.
	var out3, errb3 bytes.Buffer
	if err := run(trainArgs("-corpus", tpc, "-minsup", "3"), strings.NewReader(""), &out3, &errb3); err != nil {
		t.Fatalf("train with different params: %v", err)
	}
	if !strings.Contains(errb3.String(), "recomputing") {
		t.Fatalf("param mismatch not surfaced:\n%s", errb3.String())
	}
}

// TestResumeWorkflow drives -save-state / -load -iters -save through
// the CLI.
func TestResumeWorkflow(t *testing.T) {
	dir := t.TempDir()
	s1 := filepath.Join(dir, "s1.tpm")
	s2 := filepath.Join(dir, "s2.tpm")
	stdin := &oneShotReader{r: strings.NewReader(testStdinDocs())}
	var out, errb bytes.Buffer
	if err := run(trainArgs("-input", "-", "-save", s1, "-save-state"), stdin, &out, &errb); err != nil {
		t.Fatalf("train+save-state: %v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "training snapshot") {
		t.Fatalf("no training-snapshot confirmation:\n%s", errb.String())
	}
	var out2, errb2 bytes.Buffer
	if err := run([]string{"load", s1, "-iters", "4", "-save", s2}, strings.NewReader(""), &out2, &errb2); err != nil {
		t.Fatalf("resume: %v\nstderr:\n%s", err, errb2.String())
	}
	if !strings.Contains(errb2.String(), "resumed training") {
		t.Fatalf("resume not reported:\n%s", errb2.String())
	}
	// The frozen re-save must refuse a further resume.
	var out3, errb3 bytes.Buffer
	err := run([]string{"load", s2, "-iters", "4"}, strings.NewReader(""), &out3, &errb3)
	if err == nil || !strings.Contains(err.Error(), "training state") {
		t.Fatalf("resume of a frozen snapshot should fail helpfully, got %v", err)
	}
}

// TestLivingCorpusWorkflow drives the living-corpus modes end to end
// through the CLI: -preprocess -sketch, -append (with and without
// -dedup), training from the grown file, -merge, and -load -update.
func TestLivingCorpusWorkflow(t *testing.T) {
	dir := t.TempDir()
	tpc := filepath.Join(dir, "c.tpc")

	// Preprocess shard 1, storing sketches for later dedup.
	stdin := &oneShotReader{r: strings.NewReader(testStdinDocs())}
	var out, errb bytes.Buffer
	if err := run(preprocessArgs(tpc, "-input", "-", "-sketch"), stdin, &out, &errb); err != nil {
		t.Fatalf("preprocess: %v\nstderr:\n%s", err, errb.String())
	}

	// Re-appending shard 1 with dedup must skip every document and log
	// the counted total.
	errb.Reset()
	stdin = &oneShotReader{r: strings.NewReader(testStdinDocs())}
	if err := run([]string{"append", tpc, "-input", "-", "-dedup"}, stdin, &out, &errb); err != nil {
		t.Fatalf("dedup append: %v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "skipped 80 near-duplicate documents") {
		t.Fatalf("skip total not logged:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "appended 0 documents") {
		t.Fatalf("append count not logged:\n%s", errb.String())
	}

	// Appending a fresh shard grows the file.
	errb.Reset()
	stdin = &oneShotReader{r: strings.NewReader(testStdinDocs2())}
	if err := run([]string{"append", tpc, "-input", "-", "-dedup"}, stdin, &out, &errb); err != nil {
		t.Fatalf("append: %v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "appended 2 documents") {
		t.Fatalf("fresh shard not appended (the 78 repeats dedup within the batch):\n%s", errb.String())
	}

	// Training from the grown file surfaces the stale artifacts.
	var out2, errb2 bytes.Buffer
	if err := run(trainArgs("-corpus", tpc), strings.NewReader(""), &out2, &errb2); err != nil {
		t.Fatalf("train from grown file: %v\nstderr:\n%s", err, errb2.String())
	}
	if !strings.Contains(errb2.String(), "stored artifacts dropped") {
		t.Fatalf("stale artifacts not surfaced:\n%s", errb2.String())
	}
	if !strings.Contains(out2.String(), "Topic 0") {
		t.Fatalf("no topics printed:\n%s", out2.String())
	}

	// Merge two preprocessed shards.
	shard2 := filepath.Join(dir, "shard2.tpc")
	stdin = &oneShotReader{r: strings.NewReader(testStdinDocs2())}
	errb.Reset()
	if err := run(preprocessArgs(shard2, "-input", "-"), stdin, &out, &errb); err != nil {
		t.Fatalf("preprocess shard 2: %v\nstderr:\n%s", err, errb.String())
	}
	shard1 := filepath.Join(dir, "shard1.tpc")
	stdin = &oneShotReader{r: strings.NewReader(testStdinDocs())}
	if err := run(preprocessArgs(shard1, "-input", "-"), stdin, &out, &errb); err != nil {
		t.Fatalf("preprocess shard 1: %v\nstderr:\n%s", err, errb.String())
	}
	merged := filepath.Join(dir, "merged.tpc")
	errb.Reset()
	if err := run([]string{"merge", merged, shard1, shard2}, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatalf("merge: %v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "merged 2 corpus files") {
		t.Fatalf("merge not reported:\n%s", errb.String())
	}

	// Incremental update: train shard 1 with state, update over the
	// grown file.
	snap := filepath.Join(dir, "m.tpm")
	var errb3 bytes.Buffer
	if err := run(trainArgs("-corpus", shard1, "-save", snap, "-save-state"), strings.NewReader(""), &out, &errb3); err != nil {
		t.Fatalf("train shard 1: %v\nstderr:\n%s", err, errb3.String())
	}
	var out4, errb4 bytes.Buffer
	if err := run([]string{"load", snap, "-update", tpc, "-iters", "3"}, strings.NewReader(""), &out4, &errb4); err != nil {
		t.Fatalf("update: %v\nstderr:\n%s", err, errb4.String())
	}
	if !strings.Contains(errb4.String(), "updated training over") || !strings.Contains(errb4.String(), "(2 new)") {
		t.Fatalf("update not reported:\n%s", errb4.String())
	}
	if !strings.Contains(out4.String(), "Topic 0") {
		t.Fatalf("no topics printed after update:\n%s", out4.String())
	}

	// Two identical updates over the merged file print identical
	// topics.
	var updates [2]bytes.Buffer
	for i := range updates {
		if err := run([]string{"load", snap, "-update", merged, "-iters", "3"}, strings.NewReader(""), &updates[i], &errb); err != nil {
			t.Fatalf("update %d over the merged file: %v\nstderr:\n%s", i+1, err, errb.String())
		}
	}
	if updates[0].String() != updates[1].String() {
		t.Fatalf("identical updates diverged:\n%s\nvs\n%s", updates[0].String(), updates[1].String())
	}

	// A file grown by -append without -dedup trains to the topics of
	// the concatenated input.
	grown := filepath.Join(dir, "grown.tpc")
	if err := run(preprocessArgs(grown, "-input", "-"), strings.NewReader(testStdinDocs()), &out, &errb); err != nil {
		t.Fatalf("preprocess grown: %v\nstderr:\n%s", err, errb.String())
	}
	if err := run([]string{"append", grown, "-input", "-"}, strings.NewReader(testStdinDocs2()), &out, &errb); err != nil {
		t.Fatalf("append: %v\nstderr:\n%s", err, errb.String())
	}
	var fromGrown, fromScratch bytes.Buffer
	if err := run(trainArgs("-corpus", grown), strings.NewReader(""), &fromGrown, &errb); err != nil {
		t.Fatalf("train from grown file: %v\nstderr:\n%s", err, errb.String())
	}
	if err := run(trainArgs("-input", "-"), strings.NewReader(testStdinDocs()+testStdinDocs2()), &fromScratch, &errb); err != nil {
		t.Fatalf("train from concatenated input: %v\nstderr:\n%s", err, errb.String())
	}
	if fromGrown.String() != fromScratch.String() {
		t.Fatalf("grown file trains differently from the concatenated input:\n%s\nvs\n%s", fromGrown.String(), fromScratch.String())
	}
}

// freePort reserves an ephemeral port long enough to learn its number.
// The tiny race before the coordinator rebinds it is acceptable in
// tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// cliEnv, when set, makes the test binary run as the topmine command
// itself, so the distributed tests train against real worker
// processes: separate address spaces, real loopback TCP, and a real
// SIGKILL in the chaos test.
const cliEnv = "TOPMINE_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliProc is one topmine process started from the test binary.
type cliProc struct {
	*exec.Cmd
	stderr bytes.Buffer
}

// startWorker starts a `topmine worker addr` process. It is
// killed at cleanup if the test has not reaped it.
func startWorker(t *testing.T, addr string) *cliProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &cliProc{Cmd: exec.Command(exe, "worker", addr, "-train-timeout", "60s")}
	p.Env = append(os.Environ(), cliEnv+"=1")
	p.Stderr = &p.stderr
	if err := p.Start(); err != nil {
		t.Fatalf("start worker: %v", err)
	}
	t.Cleanup(func() {
		p.Process.Kill()
		p.Wait()
	})
	return p
}

// reap waits for a worker and fails the test if it did not exit
// cleanly.
func (p *cliProc) reap(t *testing.T) {
	t.Helper()
	if err := p.Wait(); err != nil {
		t.Errorf("worker %d: %v\nstderr:\n%s", p.Process.Pid, err, p.stderr.String())
	}
}

// runDistributed trains in-process as the coordinator of two worker
// processes — `topmine coordinate`, or `topmine recover` from the
// checkpoint ckpt when it is set — and returns the coordinator's stdout
// and stderr.
func runDistributed(t *testing.T, ckpt string, args ...string) (string, string) {
	t.Helper()
	addr := freePort(t)
	workers := []*cliProc{startWorker(t, addr), startWorker(t, addr)}
	var out, errb bytes.Buffer
	argv := []string{"coordinate", addr}
	if ckpt != "" {
		argv = []string{"recover", addr, ckpt}
	}
	err := run(append(append(argv, "-train-workers", "2", "-train-timeout", "60s"), args...),
		strings.NewReader(""), &out, &errb)
	for _, w := range workers {
		w.reap(t)
	}
	if err != nil {
		t.Fatalf("coordinator %v: %v\nstderr:\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

// preprocessTestDocs writes testStdinDocs to dir/corpus.tpc.
func preprocessTestDocs(t *testing.T, dir string) string {
	t.Helper()
	tpc := filepath.Join(dir, "corpus.tpc")
	var errb bytes.Buffer
	if err := run(preprocessArgs(tpc, "-input", "-"), strings.NewReader(testStdinDocs()), io.Discard, &errb); err != nil {
		t.Fatalf("preprocess: %v\nstderr:\n%s", err, errb.String())
	}
	return tpc
}

// TestDistributedCLIWorkflow drives -train-coordinator/-train-worker
// end to end through the CLI and pins the headline guarantee: the
// distributed run's stdout (the rendered topics) is byte-identical to
// an in-process -topic-workers run with the same worker count and
// seed.
func TestDistributedCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	tpc := preprocessTestDocs(t, dir)

	dout, derr := runDistributed(t, "", fastArgs("-corpus", tpc, "-v")...)
	if !strings.Contains(derr, "distributed training:") {
		t.Fatalf("no training confirmation:\n%s", derr)
	}
	if !strings.Contains(derr, "sweep ") {
		t.Fatalf("-v did not log sweep timings:\n%s", derr)
	}
	if !strings.Contains(dout, "Topic 0") {
		t.Fatalf("no topics printed:\n%s", dout)
	}

	var pout, perr bytes.Buffer
	if err := run(trainArgs("-corpus", tpc, "-topic-workers", "2"),
		strings.NewReader(""), &pout, &perr); err != nil {
		t.Fatalf("in-process run: %v\nstderr:\n%s", err, perr.String())
	}
	if dout != pout.String() {
		t.Fatalf("distributed topics differ from in-process -topic-workers 2:\n--- distributed ---\n%s\n--- in-process ---\n%s",
			dout, pout.String())
	}
}

// TestDistributedCheckpointResumeCLI drives -checkpoint / -resume
// through the CLI: a coordinator run that checkpoints every sweep, then
// a -resume run over the final checkpoint. The resumed run replays zero
// sweeps (the checkpoint is at the schedule's end) and must render the
// byte-identical topics — the schedule flags stay off the resume
// command line, because the checkpoint owns them.
func TestDistributedCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()
	tpc := preprocessTestDocs(t, dir)
	ck := filepath.Join(dir, "run.tpd")

	out1, err1 := runDistributed(t, "", append(fastArgs("-corpus", tpc), "-checkpoint", ck, "-checkpoint-every", "1", "-v")...)
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	if !strings.Contains(err1, "checkpoint ") {
		t.Fatalf("-v did not log checkpoint timings:\n%s", err1)
	}
	// -minsup/-top must match the original run (they shape the corpus
	// rebuild and rendering); -k/-iters/-seed must NOT be passed — the
	// checkpoint carries the schedule.
	out2, err2 := runDistributed(t, ck, "-corpus", tpc, "-minsup", "2", "-top", "3")
	if !strings.Contains(err2, "resumed from") {
		t.Fatalf("resume not reported:\n%s", err2)
	}
	if out1 != out2 {
		t.Fatalf("resumed topics differ from the original run:\n--- original ---\n%s\n--- resumed ---\n%s", out1, out2)
	}
}

// TestRecoverSavesCheckpointOptions: the snapshot `topmine recover
// -save` writes records the checkpoint's K, iterations and
// hyperparameter switch, not the defaults of the schedule flags recover
// does not have.
func TestRecoverSavesCheckpointOptions(t *testing.T) {
	dir := t.TempDir()
	tpc := preprocessTestDocs(t, dir)
	ck := filepath.Join(dir, "run.tpd")
	runDistributed(t, "", append(fastArgs("-corpus", tpc), "-nohyper", "-checkpoint", ck, "-checkpoint-every", "1")...)
	snap := filepath.Join(dir, "r.tpm")
	runDistributed(t, ck, "-corpus", tpc, "-minsup", "2", "-top", "3", "-save", snap)
	res, err := topmine.LoadSnapshotFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if o := res.Options; o.Topics != 2 || o.Iterations != 3 || o.OptimizeHyper || res.Model.K != 2 {
		t.Fatalf("recovered snapshot records K=%d, %d iterations, hyper %v over a K=%d model; want K=2, 3 iterations, no hyper",
			o.Topics, o.Iterations, o.OptimizeHyper, res.Model.K)
	}
}

// TestDistributedObservabilityCLI drives -train-http and -trace
// end to end: a distributed run with the status plane and trace log on
// must print byte-identical topics to one with them off, the plane
// must answer live scrapes mid-run, and the trace file must replay as
// one JSON event per sweep plus a finish marker.
func TestDistributedObservabilityCLI(t *testing.T) {
	dir := t.TempDir()
	tpc := preprocessTestDocs(t, dir)
	traceFile := filepath.Join(dir, "trace.jsonl")

	train := func(extra ...string) (string, string) {
		return runDistributed(t, "", append([]string{"-corpus", tpc,
			"-k", "2", "-iters", "400", "-minsup", "2", "-top", "3"}, extra...)...)
	}

	plain, _ := train()

	statusAddr := freePort(t)
	done := make(chan struct{})
	type scrapeResult struct {
		progress int
		metrics  int
		training int // metrics bodies carrying topmine_train_ series
	}
	scraped := make(chan scrapeResult, 1)
	go func() {
		var res scrapeResult
		defer func() { scraped <- res }()
		client := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case <-done:
				return
			default:
			}
			if resp, err := client.Get("http://" + statusAddr + "/v1/progress"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var p topmine.TrainingProgress
				if err := json.Unmarshal(body, &p); err != nil {
					t.Errorf("/v1/progress did not decode: %v: %s", err, body)
					return
				}
				res.progress++
			}
			if resp, err := client.Get("http://" + statusAddr + "/metrics"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err := obs.Lint(body); err != nil {
					t.Errorf("/metrics did not parse back: %v", err)
					return
				}
				res.metrics++
				if bytes.Contains(body, []byte("topmine_train_sweep")) {
					res.training++
				}
			}
		}
	}()

	traced, derr := train("-train-http", statusAddr, "-trace", traceFile)
	close(done)
	res := <-scraped
	if !strings.Contains(derr, "training status plane on http://"+statusAddr) {
		t.Fatalf("status plane not announced:\n%s", derr)
	}
	if res.progress == 0 || res.metrics == 0 {
		t.Fatalf("no live scrapes landed mid-run (progress %d, metrics %d)", res.progress, res.metrics)
	}
	if res.training == 0 {
		t.Fatalf("%d live /metrics scrapes, none carrying topmine_train_ series", res.metrics)
	}

	if traced != plain {
		t.Fatalf("observability changed the trained topics:\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace log: %v", err)
	}
	sweeps, finishes := 0, 0
	for i, line := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d: %v: %s", i+1, err, line)
		}
		switch ev.Ev {
		case "sweep":
			sweeps++
		case "finish":
			finishes++
		}
	}
	if sweeps != 400 || finishes != 1 {
		t.Fatalf("trace has %d sweep and %d finish events, want 400 and 1", sweeps, finishes)
	}
}

// TestDistributedChaosCLI is the recovered ≡ uninterrupted pin with a
// real SIGKILL: an -elastic coordinator with barrier checkpoints loses
// a worker process to kill -9 mid-run, rolls back, re-accepts a
// replacement and must print topics byte-identical to the in-process
// -topic-workers 2 run; a -resume from its final .tpd must too, and a
// torn .tpd must be rejected by name. The status plane is scraped
// mid-run and the trace must record the recovery.
func TestDistributedChaosCLI(t *testing.T) {
	dir := t.TempDir()
	tpc := filepath.Join(dir, "corpus.tpc")
	ck := filepath.Join(dir, "ck.tpd")
	traceFile := filepath.Join(dir, "trace.jsonl")
	var out, errb bytes.Buffer
	if err := run([]string{"preprocess", tpc, "-synth", "20conf", "-docs", "300", "-seed", "1", "-minsup", "3"},
		strings.NewReader(""), &out, &errb); err != nil {
		t.Fatalf("preprocess: %v\nstderr:\n%s", err, errb.String())
	}
	schedule := []string{"-corpus", tpc, "-minsup", "3", "-k", "4", "-iters", "1000", "-seed", "7"}
	var want bytes.Buffer
	if err := run(append(append([]string{"train"}, schedule...), "-topic-workers", "2"), strings.NewReader(""), &want, &errb); err != nil {
		t.Fatalf("in-process run: %v\nstderr:\n%s", err, errb.String())
	}

	addr, statusAddr := freePort(t), freePort(t)
	w1, w2 := startWorker(t, addr), startWorker(t, addr)
	var got, coordErr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"coordinate", addr, "-train-workers", "2", "-train-timeout", "60s",
			"-elastic", "-checkpoint", ck, "-checkpoint-every", "5", "-train-http", statusAddr, "-trace", traceFile, "-v"},
			schedule...), strings.NewReader(""), &got, &coordErr)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, err := os.Stat(ck); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
	}
	// The checkpoint proves the run is live: scrape the status plane.
	for path, wants := range map[string][]string{
		"/metrics": {"\ntopmine_train_sweep", "\ntopmine_train_worker_barrier_lag_seconds_bucket",
			"\ntopmine_train_checkpoint_write_seconds_count", "\ntopmine_train_tokens_per_second"},
		"/v1/progress": {`"phase":"training"`, `"worker_lag_ms":[`},
	} {
		resp, err := http.Get("http://" + statusAddr + path)
		if err != nil {
			t.Fatalf("mid-run scrape: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range wants {
			if !strings.Contains(string(body), want) {
				t.Errorf("mid-run %s lacks %q:\n%s", path, want, body)
			}
		}
	}
	if err := w1.Process.Kill(); err != nil || w1.Wait() == nil {
		t.Fatalf("the run ended before the kill (kill: %v)", err)
	}
	w3 := startWorker(t, addr)
	err := <-done
	w2.reap(t)
	w3.reap(t)
	if err != nil {
		t.Fatalf("coordinator: %v\nstderr:\n%s", err, coordErr.String())
	}
	if !strings.Contains(coordErr.String(), "recovery 1/") {
		t.Fatalf("coordinator never recovered from the killed worker:\n%s", coordErr.String())
	}
	if got.String() != want.String() {
		t.Fatalf("recovered topics differ from the in-process run:\n--- recovered ---\n%s\n--- in-process ---\n%s", got.String(), want.String())
	}
	if trace, err := os.ReadFile(traceFile); err != nil || !bytes.Contains(trace, []byte(`"ev":"recovery"`)) || !bytes.Contains(trace, []byte(`"ev":"finish"`)) {
		t.Fatalf("trace lacks a recovery event or the finish marker (%v):\n%s", err, trace)
	}

	// The schedule lives in the .tpd, so no -k/-iters/-seed here.
	resumed, _ := runDistributed(t, ck, "-corpus", tpc, "-minsup", "3")
	if resumed != want.String() {
		t.Fatalf("resumed topics differ from the in-process run:\n--- resumed ---\n%s\n--- in-process ---\n%s", resumed, want.String())
	}

	raw, err := os.ReadFile(ck)
	if err != nil || os.WriteFile(ck, raw[:len(raw)-7], 0o644) != nil {
		t.Fatalf("truncate checkpoint: %v", err)
	}
	err = run([]string{"recover", freePort(t), ck, "-corpus", tpc, "-train-workers", "2", "-minsup", "3"},
		strings.NewReader(""), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("torn checkpoint: got %v, want an error naming \"truncated\"", err)
	}
}

// TestBadFlagCombos pins that every bad command line is a usage error
// (exit 2) raised before any file is opened: none of the paths named
// here exists, so an error that does not wrap errUsage came from
// opening one.
func TestBadFlagCombos(t *testing.T) {
	cases := [][]string{
		{"train", "-input", "x", "-synth", "yelp-reviews"},
		{"train", "-jsonl", "text"},
		{"train", "-corpus", "x.tpc", "-input", "y"},
		{"preprocess", "out.tpc", "-save", "m.tpm", "-input", "-"},
		{"train", "-save-state", "-input", "-"},
		{"load", "m.tpm", "-k", "5"},
		{"train", "-corpus", "x.tpc", "-docs", "100"},
		{"merge", "out.tpc", "-input", "x"},
		{"merge", "out.tpc", "only-one.tpc"},
		{"append", "c.tpc", "-k", "5", "-input", "x"},
		{"append", "c.tpc"},
		{"train", "-dedup", "-input", "x"},
		{"train", "-sketch", "-input", "-"},
		{"train", "-update", "c.tpc", "-input", "x"},
		{"worker", ":0", "-append", "c.tpc"},
		{"worker", ":0", "-k", "5"},
		{"worker", ":0", "-train-workers", "2"},
		{"train", "-train-workers", "2"},
		{"coordinate", ":0"},
		{"coordinate", ":0", "-corpus", "x.tpc", "-topic-workers", "2"},
		{"coordinate", ":0", "-corpus", "x.tpc", "-update", "m.tpc"},
		{"coordinate", ":0", "-corpus", "x.tpc", "-input", "y"},
		{"coordinate", ":0", "-corpus", "x.tpc", "-load", "m.tpm"},
		{"coordinate", ":0", "-corpus", "x.tpc", "-train-workers", "0"},
		{"train", "-checkpoint", "x.tpd"},
		{"train", "-checkpoint-every", "5"},
		{"train", "-resume", "x.tpd"},
		{"train", "-elastic"},
		{"train", "-train-http", "127.0.0.1:0"},
		{"train", "-trace", "trace.jsonl"},
		{"worker", ":0", "-train-http", "127.0.0.1:0"},
		{"worker", ":0", "-trace", "trace.jsonl"},
		{"train", "-train-reconnect", "5s"},
		{"worker", ":0", "-checkpoint", "x.tpd"},
		{"coordinate", ":0", "-corpus", "x.tpc", "-train-workers", "2", "-checkpoint-every", "5"},
		{"recover", ":0", "x.tpd", "-corpus", "x.tpc", "-train-workers", "2", "-k", "5"},
		{"recover", ":0", "x.tpd", "-corpus", "x.tpc", "-train-workers", "2", "-iters", "9"},
		// No command, the flat form, an unknown command, operands in
		// the wrong number or after the flags.
		{},
		{"-input", "x"},
		{"mine", "-input", "x"},
		{"load"},
		{"train", "-input", "x", "extra"},
		{"append", "-input", "x", "c.tpc"},
		{"append", "c.tpc", "-input", "x", "-dedup-threshold", "0.8"},
	}
	for _, args := range cases {
		if err := run(args, strings.NewReader(""), io.Discard, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("args %v: got %v, want a usage error", args, err)
		}
	}
}

// TestHelp pins -h: topmine alone lists the commands, a command lists
// its own flags, and both exit 0.
func TestHelp(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		want, not string
	}{
		{[]string{"-h"}, "coordinate", "-minsup"},
		{[]string{"recover", "-h"}, "-minsup", "-seed"},
		{[]string{"worker", "-h"}, "-train-reconnect", "-v"},
	} {
		var errb bytes.Buffer
		if err := run(tc.args, strings.NewReader(""), io.Discard, &errb); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%v: got %v, want flag.ErrHelp", tc.args, err)
		}
		if !strings.Contains(errb.String(), tc.want) || strings.Contains(errb.String(), tc.not) {
			t.Errorf("%v: help should name %s and not %s:\n%s", tc.args, tc.want, tc.not, errb.String())
		}
	}
}

// TestInferUnknownWords pins that -infer on text with no word in the
// vocabulary says so instead of printing the prior's argmax as the
// text's best topic, after training and against a loaded snapshot.
func TestInferUnknownWords(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "m.tpm")
	for _, args := range [][]string{
		trainArgs("-input", "-", "-save", snap, "-infer", "zzzqx qqqvv"),
		{"load", snap, "-infer", "zzzqx qqqvv"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, strings.NewReader(testStdinDocs()), &out, &errb); err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", args, err, errb.String())
		}
		if strings.Contains(out.String(), "best topic") || !strings.Contains(out.String(), "no topic inferred") {
			t.Errorf("%v: out-of-vocabulary text got a topic:\n%s", args, out.String())
		}
	}
}

// TestFilterBGMatchesLibrary pins that the CLI renders topics through
// the library's rendering: -filterbg output equals FormatTopics of
// RunCorpus over the same corpus and options. The corpus has a phrase
// in more than a quarter of its documents, which the library's
// document-frequency background filter drops.
func TestFilterBGMatchesLibrary(t *testing.T) {
	const domain, docs, seed = "yelp-reviews", 150, 7
	var out, errb bytes.Buffer
	args := []string{"train", "-synth", domain, "-docs", fmt.Sprint(docs), "-seed", fmt.Sprint(seed),
		"-k", "4", "-iters", "30", "-filterbg"}
	if err := run(args, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errb.String())
	}

	raw, err := topmine.GenerateExampleCorpus(domain, docs, seed)
	if err != nil {
		t.Fatal(err)
	}
	c := topmine.BuildCorpus(raw, topmine.DefaultCorpusOptions())
	opt := topmine.DefaultOptions()
	opt.Topics, opt.Iterations, opt.Seed, opt.FilterBackground = 4, 30, seed, true
	res, err := topmine.RunCorpus(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	df := map[string]int{}
	maxDF := 0
	for _, sd := range res.Segmented {
		seen := map[string]bool{}
		for si, spans := range sd.Spans {
			for _, sp := range spans {
				if sp.End-sp.Start < 2 {
					continue
				}
				p := c.DisplayPhrase(&c.Docs[sd.DocID].Segments[si], sp.Start, sp.End)
				if !seen[p] {
					seen[p] = true
					df[p]++
					maxDF = max(maxDF, df[p])
				}
			}
		}
	}
	if 4*maxDF <= docs {
		t.Fatalf("no phrase occurs in more than a quarter of the %d documents (max %d)", docs, maxDF)
	}
	if got, want := out.String(), topmine.FormatTopics(res.Topics); got != want {
		t.Errorf("CLI -filterbg topics differ from the library's:\n%s\nvs\n%s", got, want)
	}
}
