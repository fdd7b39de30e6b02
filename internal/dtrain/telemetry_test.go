package dtrain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"topmine/internal/obs"
	"topmine/internal/topicmodel"
)

// traceEvent is the analyzer-side view of one trace line, enough to
// count and sanity-check events here.
type traceEvent struct {
	Ev           string  `json:"ev"`
	TMs          float64 `json:"t_ms"`
	Sweep        int     `json:"sweep"`
	Worker       int     `json:"worker"`
	GatingWorker int     `json:"gating_worker"`
	GatingLagMs  float64 `json:"gating_lag_ms"`
	Workers      int     `json:"workers"`
	WriteMs      float64 `json:"write_ms"`
	Path         string  `json:"path"`
	Reaccepted   int     `json:"reaccepted"`
	Error        string  `json:"error"`
}

func decodeTrace(t *testing.T, raw []byte) []traceEvent {
	t.Helper()
	var evs []traceEvent
	for i, line := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		var ev traceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d: %v: %s", i+1, err, line)
		}
		evs = append(evs, ev)
	}
	return evs
}

func countEv(evs []traceEvent, kind string) int {
	n := 0
	for _, ev := range evs {
		if ev.Ev == kind {
			n++
		}
	}
	return n
}

// scrapePlane GETs /metrics and /v1/progress once, failing on a torn
// or malformed read: the metrics page must parse back as Prometheus
// 0.0.4 text and the progress JSON must decode with sane bounds.
func scrapePlane(t *testing.T, base string, totalSweeps int) Progress {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if err := obs.Lint(body); err != nil {
		t.Fatalf("/metrics does not parse back: %v\n%s", err, body)
	}
	resp, err = http.Get(base + "/v1/progress")
	if err != nil {
		t.Fatalf("scrape /v1/progress: %v", err)
	}
	var p Progress
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /v1/progress: %v", err)
	}
	if p.Sweep < 0 || p.Sweep > totalSweeps {
		t.Fatalf("progress sweep %d out of [0,%d]", p.Sweep, totalSweeps)
	}
	switch p.Phase {
	case "waiting", "training", "recovering", "done", "failed":
	default:
		t.Fatalf("progress phase %q unknown", p.Phase)
	}
	return p
}

// TestTelemetryPlane runs a full distributed training with the status
// plane live and a trace log attached, scraping /metrics and
// /v1/progress concurrently throughout, and then checks three things:
// the trained model is byte-identical to a telemetry-free run (purely
// observational), the trace log carries exactly the expected event
// counts, and the final exposition exposes the training series.
func TestTelemetryPlane(t *testing.T) {
	fix := buildFixture(t, "20conf", 120)
	opt := trainOpts()
	const workers = 2
	want := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, workers))

	// Baseline: same distributed run with no telemetry at all.
	{
		ln := listen(t)
		chs := startWorkers(t, ln.Addr().String(), workers, WorkerOptions{}, nil)
		job := fix.job
		job.Model = opt
		plain, err := Train(ln, job, Options{Workers: workers})
		if err != nil {
			t.Fatalf("telemetry-free run: %v", err)
		}
		drainWorkers(t, chs, 20*time.Second)
		assertModelsIdentical(t, plain, want)
	}

	var trace syncBuffer
	tel := NewTelemetry(&trace)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	// Before the run the plane must already answer.
	if p := scrapePlane(t, srv.URL, opt.Iterations); p.Phase != "waiting" {
		t.Fatalf("pre-run phase %q, want waiting", p.Phase)
	}

	ln := listen(t)
	chs := startWorkers(t, ln.Addr().String(), workers, WorkerOptions{}, nil)
	job := fix.job
	job.Model = opt
	ckpt := filepath.Join(t.TempDir(), "ck.tpd")

	// Scrape continuously while training; every read must be coherent.
	stop := make(chan struct{})
	var scrapes int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastSweep := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := scrapePlane(t, srv.URL, opt.Iterations)
			// No recoveries in this run, so the live sweep may never
			// move backwards.
			if p.Sweep < lastSweep {
				t.Errorf("live sweep went backwards: %d after %d", p.Sweep, lastSweep)
			}
			lastSweep = p.Sweep
			scrapes++
		}
	}()

	got, err := Train(ln, job, Options{
		Workers:    workers,
		Checkpoint: CheckpointSpec{Path: ckpt, Every: 10},
		Telemetry:  tel,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	drainWorkers(t, chs, 20*time.Second)
	t.Logf("%d concurrent scrapes during the run", scrapes)

	// Byte-identical to both the in-process reference and the
	// telemetry-free distributed run (checked against `want` above).
	assertModelsIdentical(t, got, want)

	// Final progress: done, at the last sweep, with per-worker lag.
	p := scrapePlane(t, srv.URL, opt.Iterations)
	if p.Phase != "done" || p.Sweep != opt.Iterations || p.TotalSweeps != opt.Iterations {
		t.Fatalf("final progress %+v", p)
	}
	if len(p.WorkerLagMs) != workers {
		t.Fatalf("final worker_lag_ms has %d entries, want %d", len(p.WorkerLagMs), workers)
	}
	if p.LastCheckpointSweep != opt.Iterations {
		t.Fatalf("last_checkpoint_sweep %d, want %d", p.LastCheckpointSweep, opt.Iterations)
	}
	if p.TokensPerSec <= 0 {
		t.Fatalf("tokens_per_sec %v, want > 0", p.TokensPerSec)
	}

	// Exposition: the training series exist with the expected shapes.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("topmine_train_sweep %d\n", opt.Iterations),
		fmt.Sprintf("topmine_train_sweeps_total %d\n", opt.Iterations),
		fmt.Sprintf("topmine_train_workers %d\n", workers),
		fmt.Sprintf("topmine_train_checkpoint_last_sweep %d\n", opt.Iterations),
		"topmine_train_recoveries_total 0\n",
		fmt.Sprintf("topmine_train_sample_seconds_count %d\n", opt.Iterations),
		"topmine_train_checkpoint_write_seconds_count 4\n",
		`topmine_train_worker_barrier_lag_seconds_bucket{worker="0",le="+Inf"}`,
		`topmine_train_worker_barrier_lag_seconds_bucket{worker="1",le="+Inf"}`,
		`topmine_train_worker_sample_seconds_count{worker="0"}`,
		"topmine_train_delta_bytes_total",
		"topmine_train_tokens_per_second",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Trace log: exact event counts for a clean 40-sweep 2-worker run
	// with checkpoints every 10 sweeps.
	evs := decodeTrace(t, trace.bytes())
	if n := countEv(evs, "run"); n != 1 {
		t.Errorf("%d run events, want 1", n)
	}
	if n := countEv(evs, "setup"); n != 1 {
		t.Errorf("%d setup events, want 1", n)
	}
	if n := countEv(evs, "sweep"); n != opt.Iterations {
		t.Errorf("%d sweep events, want %d", n, opt.Iterations)
	}
	if n := countEv(evs, "delta"); n != opt.Iterations*workers {
		t.Errorf("%d delta events, want %d", n, opt.Iterations*workers)
	}
	if n := countEv(evs, "checkpoint"); n != 4 {
		t.Errorf("%d checkpoint events, want 4", n)
	}
	if n := countEv(evs, "recovery"); n != 0 {
		t.Errorf("%d recovery events, want 0", n)
	}
	if n := countEv(evs, "finish"); n != 1 {
		t.Errorf("%d finish events, want 1", n)
	}
	// Timestamps are monotone in file order, checkpoints carry the
	// configured path, and every sweep names a plausible gating worker.
	last := -1.0
	for i, ev := range evs {
		if ev.TMs < last {
			t.Fatalf("event %d: t_ms %v before %v", i, ev.TMs, last)
		}
		last = ev.TMs
		switch ev.Ev {
		case "checkpoint":
			if ev.Path != ckpt {
				t.Errorf("checkpoint path %q, want %q", ev.Path, ckpt)
			}
		case "sweep":
			if ev.GatingWorker < 0 || ev.GatingWorker >= workers {
				t.Errorf("sweep %d: gating worker %d out of range", ev.Sweep, ev.GatingWorker)
			}
		}
	}
	if evs[len(evs)-1].Ev != "finish" {
		t.Errorf("last event %q, want finish", evs[len(evs)-1].Ev)
	}
}

// TestTelemetryElastic kills a worker mid-run (the TestElasticRecovery
// choreography) with the status plane being scraped throughout: every
// concurrent read must stay coherent across the rollback, and the
// recovery must land in the progress JSON, the metrics and the trace.
func TestTelemetryElastic(t *testing.T) {
	fix := buildFixture(t, "20conf", 120)
	opt := trainOpts()
	want := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, 2))

	var trace syncBuffer
	tel := NewTelemetry(&trace)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	ln := listen(t)
	addr := ln.Addr().String()
	wrap := func(i int, c net.Conn) net.Conn {
		if i != 0 {
			return c
		}
		return &dyingConn{Conn: c, limit: 30}
	}
	chs := startWorkers(t, addr, 2, WorkerOptions{BarrierTimeout: 15 * time.Second}, wrap)

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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrapePlane(t, srv.URL, opt.Iterations)
		}
	}()

	job := fix.job
	job.Model = opt
	got, err := Train(ln, job, Options{
		Workers: 2, BarrierTimeout: 15 * time.Second,
		Elastic: true, Checkpoint: CheckpointSpec{Every: 10},
		ReacceptTimeout: 10 * time.Second,
		Telemetry:       tel,
		SweepStats: func(st topicmodel.SweepStats) {
			once.Do(func() { close(started) })
		},
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	assertModelsIdentical(t, got, want)
	drainWorkers(t, append(chs, spare), 20*time.Second)

	p := scrapePlane(t, srv.URL, opt.Iterations)
	if p.Phase != "done" || p.Recoveries != 1 || p.RecoveredWorkers != 1 {
		t.Fatalf("final progress after recovery: %+v", p)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"topmine_train_recoveries_total 1\n",
		"topmine_train_recovered_workers_total 1\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	evs := decodeTrace(t, trace.bytes())
	if n := countEv(evs, "recovery"); n != 1 {
		t.Errorf("%d recovery events, want 1", n)
	}
	// The rollback replays sweeps, so the trace holds more sweep
	// events than the schedule; the run event plus two setups (initial
	// epoch and post-recovery epoch) bracket them.
	if n := countEv(evs, "setup"); n != 2 {
		t.Errorf("%d setup events, want 2", n)
	}
	if n := countEv(evs, "sweep"); n < opt.Iterations {
		t.Errorf("%d sweep events, want >= %d", n, opt.Iterations)
	}
	for _, ev := range evs {
		if ev.Ev == "recovery" && ev.Reaccepted != 1 {
			t.Errorf("recovery event re-accepted %d, want 1", ev.Reaccepted)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the trace writer is
// called from the coordinator goroutine while tests read at the end,
// and the race detector wants the handoff explicit.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
