package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"topmine"
)

// daemonEnv, when set, makes the test binary run as the topmined
// daemon itself, so the test below serves from a real process and
// stops it with a real signal.
const daemonEnv = "TOPMINED_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one topmined process started from the test binary.
type daemon struct {
	*exec.Cmd
	url    string
	stderr bytes.Buffer
}

// startDaemon starts topmined on a free loopback port and waits until
// /readyz answers 200.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{Cmd: exec.Command(exe, append([]string{"-addr", addr}, args...)...), url: "http://" + addr}
	d.Env = append(os.Environ(), daemonEnv+"=1")
	d.Stderr = &d.stderr
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Process.Kill()
		d.Wait()
	})
	d.await(t, "/readyz", "")
	return d
}

// await polls path until it answers 200 with a body matching pattern.
func (d *daemon) await(t *testing.T, path, pattern string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(d.url + path); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && regexp.MustCompile(pattern).Match(body) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never answered 200 matching %q:\n%s", path, pattern, d.stderr.String())
		}
	}
}

// stop sends SIGTERM and checks that the daemon drains and exits 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(); err != nil || !strings.Contains(d.stderr.String(), "drained cleanly") {
		t.Fatalf("SIGTERM: exit %v, want a clean drain:\n%s", err, d.stderr.String())
	}
}

// TestServeDrainAndWarmRestart serves a snapshot from a real daemon
// with the request log on, drains it with SIGTERM, and restarts it
// with -warm-log over the captured log: the restarted cache must fill
// without any client traffic.
func TestServeDrainAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	tpm, accessLog := filepath.Join(dir, "demo.tpm"), filepath.Join(dir, "access.jsonl")
	docs, err := topmine.GenerateExampleCorpus("20conf", 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := topmine.DefaultOptions()
	opt.Topics, opt.Iterations, opt.Seed = 4, 30, 7
	res, err := topmine.Run(docs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := topmine.SaveSnapshotFile(tpm, res); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-model", "demo="+tpm, "-request-log", accessLog)
	for path, want := range map[string]string{"/v1/infer": `"topics":[`, "/v1/segment": `"segments":[`} {
		resp, err := http.Post(d.url+path, "application/json", strings.NewReader(`{"text": "support vector machines for query processing"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, body)
		}
	}
	d.stop(t)

	warm := startDaemon(t, "-model", "demo="+tpm, "-warm-log", accessLog)
	warm.await(t, "/metrics", `(?m)^topmined_cache_entries [1-9]`)
	warm.stop(t)
}
