package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleTrace is a hand-built two-worker run: 3 sweeps, a checkpoint
// at sweep 2, an elastic recovery rolling back to sweep 2, and the
// replayed sweep 3. Worker 1 gates two of the four barriers.
const sampleTrace = `{"ev":"run","t_ms":0.1,"total_sweeps":3,"start_sweep":0,"tokens_per_sweep":1000,"want_workers":2}
{"ev":"setup","t_ms":5,"from_sweep":1,"workers":2}
{"ev":"delta","t_ms":10,"sweep":1,"worker":0,"arrival_ms":4,"lag_ms":0,"sample_ms":3.5,"bytes":100,"rows":10}
{"ev":"delta","t_ms":10,"sweep":1,"worker":1,"arrival_ms":5,"lag_ms":1,"sample_ms":4.5,"bytes":120,"rows":12}
{"ev":"sweep","t_ms":10,"sweep":1,"workers":2,"sample_ms":5,"reconcile_ms":1,"gating_worker":1,"gating_lag_ms":1,"tokens_per_sec":166666}
{"ev":"delta","t_ms":16,"sweep":2,"worker":0,"arrival_ms":4.5,"lag_ms":0.5,"sample_ms":4,"bytes":100,"rows":10}
{"ev":"delta","t_ms":16,"sweep":2,"worker":1,"arrival_ms":4,"lag_ms":0,"sample_ms":3.6,"bytes":120,"rows":12}
{"ev":"checkpoint","t_ms":18,"sweep":2,"write_ms":2,"path":"ck.tpd"}
{"ev":"sweep","t_ms":18,"sweep":2,"workers":2,"sample_ms":4.5,"reconcile_ms":1,"checkpoint_ms":2,"gating_worker":0,"gating_lag_ms":0.5,"tokens_per_sec":133333}
{"ev":"delta","t_ms":25,"sweep":3,"worker":0,"arrival_ms":4,"lag_ms":0,"sample_ms":3.5,"bytes":100,"rows":10}
{"ev":"recovery","t_ms":30,"rollback_sweep":2,"lost_worker":1,"survivors":1,"reaccepted":1,"cause":"read frame: EOF"}
{"ev":"setup","t_ms":32,"from_sweep":3,"workers":2}
{"ev":"delta","t_ms":40,"sweep":3,"worker":0,"arrival_ms":4,"lag_ms":0,"sample_ms":3.5,"bytes":100,"rows":10}
{"ev":"delta","t_ms":40,"sweep":3,"worker":1,"arrival_ms":6,"lag_ms":2,"sample_ms":5.5,"bytes":120,"rows":12}
{"ev":"sweep","t_ms":40,"sweep":3,"workers":2,"sample_ms":6,"reconcile_ms":1.2,"gating_worker":1,"gating_lag_ms":2,"tokens_per_sec":138888}
{"ev":"finish","t_ms":41}
`

func runSample(t *testing.T, extra ...string) (stderr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var errw bytes.Buffer
	if err := run(append(extra, path), &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	return errw.String()
}

func TestReportTimeline(t *testing.T) {
	stderr := runSample(t)
	for _, want := range []string{
		"trace: 3 barriers, 1 checkpoints, 1 recoveries, 2 epochs",
		"schedule: 3 sweeps, 1000 tokens/sweep, 2 workers wanted",
		"run completed",
		"phase split: sample",
		"straggler attribution",
		"worker 0: gated 1/3 barriers (33.3%)",
		"worker 1: gated 2/3 barriers (66.7%)",
		"barrier timeline",
		"sweep    1: sample 5ms",
		"gated by worker 1 (+1ms)",
		"checkpoint 2ms",
		"recovery at t=30ms: lost worker 1 (read frame: EOF), rolled back to sweep 2, 1 survivors, 1 re-accepted",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	// The interrupted sweep-3 attempt (one delta, then the recovery)
	// must not pollute a completed barrier: worker 0 sampled exactly 3
	// counted barriers.
	if strings.Contains(stderr, "gated 1/4") || strings.Contains(stderr, "4 barriers,") {
		t.Errorf("interrupted barrier was counted as completed:\n%s", stderr)
	}
}

func TestTimelineCap(t *testing.T) {
	stderr := runSample(t, "-timeline", "1")
	if !strings.Contains(stderr, "(1 slowest of 3 by barrier wait") {
		t.Errorf("timeline cap note missing:\n%s", stderr)
	}
	// Sweep 3 has the largest sample_ms (6ms) — it is the one kept.
	if !strings.Contains(stderr, "sweep    3:") || strings.Contains(stderr, "sweep    1:") {
		t.Errorf("cap kept the wrong barriers:\n%s", stderr)
	}
}

func TestParseErrors(t *testing.T) {
	var errw bytes.Buffer
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	os.WriteFile(bad, []byte("{\"ev\":\"run\"}\nnot json\n"), 0o644)
	if err := run([]string{bad}, &errw); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 parse error, got %v", err)
	}
	empty := filepath.Join(dir, "empty.jsonl")
	os.WriteFile(empty, nil, 0o644)
	if err := run([]string{empty}, &errw); err == nil || !strings.Contains(err.Error(), "no trace events") {
		t.Errorf("want no-events error, got %v", err)
	}
	noev := filepath.Join(dir, "noev.jsonl")
	os.WriteFile(noev, []byte("{\"t_ms\":1}\n"), 0o644)
	if err := run([]string{noev}, &errw); err == nil || !strings.Contains(err.Error(), "discriminator") {
		t.Errorf("want discriminator error, got %v", err)
	}
}
