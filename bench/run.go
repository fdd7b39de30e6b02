package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// runConfig is one pass of one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds int
	traced  bool
	smoke   bool
	workDir string // scratch root inside the checkout; defaultWorkDir outside tests
}

const defaultWorkDir = ".bench_work"

// tracePath is where a traced run leaves its spans.
func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
}

// runResult is the parent's merged view of the three phases.
type runResult struct {
	Values    map[string]float64
	Attempted int
	Failed    int
	Errors    []string
}

// childEnv marks a process as a phase child. The test binary re-execs
// itself too and uses the mark to run main instead of the tests.
const childEnv = "TOPMINE_BENCH_CHILD"

// runOnce generates the inputs and runs the three phase children in
// order. One process per phase mirrors deployment (`topmine` trains
// and saves, `topmined` loads and serves) and keeps one phase's heap
// out of the next one's timings.
func runOnce(cfg runConfig) (*runResult, error) {
	start := time.Now()
	out := &runResult{Values: map[string]float64{}}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w := cfg.w
	if cfg.smoke {
		w = w.smoke()
	}
	f, err := os.Create(corpusPath(dir))
	if err != nil {
		return nil, err
	}
	occ, err := newLanguage(w.profile, cfg.seed).writeCorpus(f, w.docs)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("writing corpus: %w", err)
	}
	out.Attempted++
	if least := slices.Min(occ); !cfg.smoke && least < w.options().MinSupport {
		out.Failed++
		out.Errors = append(out.Errors, fmt.Sprintf("a planted collocation occurs only %d times", least))
	}

	for _, phase := range []string{"batch", "load", "serve"} {
		pr, ru, err := runChild(cfg, phase, dir)
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", phase, err)
		}
		maps.Copy(out.Values, pr.Values)
		out.Attempted += pr.Attempted
		out.Failed += pr.Failed
		out.Errors = append(out.Errors, pr.Errors...)
		if phase != "load" {
			out.Values[phase+"_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		if pr.Failed > 0 {
			return out, nil // later phases would only repeat the failure
		}
	}
	if cfg.traced {
		if err := os.Rename(filepath.Join(dir, "trace.jsonl"), tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	// Set-up is everything outside the three measured windows: input
	// generation, process starts, the held-out split and perplexity,
	// snapshot load for serving, warm-up, the θ, recall and repeat checks.
	v := out.Values
	v["setup_s"] = time.Since(start).Seconds() - v["batch_s"] - v["load_window_s"] - v["serve_window_s"]
	if cfg.traced {
		v["trace.batch_s"] = v["batch_s"]
		v["trace.req_p50_ms"] = v["req_p50_ms"]
	}
	return out, nil
}

// runChild re-executes this binary for one phase and reads back its
// result file and resource usage.
func runChild(cfg runConfig, phase, dir string) (*phaseResult, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-phase", phase, "-dir", dir, "-workload", cfg.w.name,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
		"-trace", strconv.Itoa(int(b2f(cfg.traced))), "-smoke=" + strconv.FormatBool(cfg.smoke),
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, err
	}
	pr, err := readPhase(dir, phase)
	if err != nil {
		return nil, nil, err
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, nil, fmt.Errorf("no resource usage for the %s child", phase)
	}
	return pr, ru, nil
}

func readPhase(dir, phase string) (*phaseResult, error) {
	b, err := os.ReadFile(filepath.Join(dir, phase+".json"))
	if err != nil {
		return nil, err
	}
	pr := new(phaseResult)
	return pr, json.Unmarshal(b, pr)
}

// childMain is a phase child's whole life: run the phase, leave the
// result and any spans in dir.
func childMain(phase string, cfg runConfig, dir string) error {
	w := cfg.w
	if cfg.smoke {
		w = w.smoke()
	}
	var pr *phaseResult
	var tr *tracer
	switch phase {
	case "batch":
		pr, tr = runBatch(w, cfg.seed, dir, cfg.traced)
	case "load":
		batch, err := readPhase(dir, "batch")
		if err != nil {
			return err
		}
		pr, tr = runLoad(w, cfg.seed, dir, cfg.traced, batch)
	case "serve":
		pr, tr = runServe(w, cfg.seed, cfg.seconds, dir, cfg.traced)
	default:
		return fmt.Errorf("unknown phase %q", phase)
	}
	if err := tr.appendTo(filepath.Join(dir, "trace.jsonl")); err != nil {
		return err
	}
	b, err := json.Marshal(pr)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, phase+".json"), b, 0o644)
}
