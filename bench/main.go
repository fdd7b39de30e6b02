// Command bench is the repository's benchmark: four workloads, each a
// full pass from raw text through ingest, mining, segmentation,
// training and a saved .tpm to a cold load and served requests. See
// README.md for the workloads, the metrics and how they interact.
//
//	go run ./bench -workload titles-train -seed 1 -seconds 10 -trace 0   # one run; last stdout line is the result
//	go run ./bench -workload all -seed 1 -json out.json                  # every metric of every workload, untraced + traced
//	go run ./bench -aa 10                                                # A/A: two sets of 10 passes against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Uint64("seed", 1, "seed of every generated input")
		seconds = fs.Int("seconds", 10, "target length of the serving window; its request count is a fixed multiple of this")
		trace   = fs.Int("trace", 0, "0: untraced run reporting end-to-end metrics; 1: traced run reporting per-layer metrics and leaving a span file in "+defaultWorkDir)
		jsonOut = fs.String("json", "", "with -workload all: write every reading to this file")
		aa      = fs.Int("aa", 0, "A/A check: run N passes of every workload twice and compare against the bounds in BENCHMARK.json")
		smoke   = fs.Bool("smoke", false, "about 1% of every size; results are not comparable with anything")
		phase   = fs.String("phase", "", "internal: run one phase as a child process")
		dir     = fs.String("dir", "", "internal: the child's run directory")
	)
	fs.Parse(os.Args[1:])
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, workDir: defaultWorkDir}

	switch {
	case *phase != "":
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		cfg.w = w
		if err := childMain(*phase, cfg, *dir); err != nil {
			fatal(err)
		}
	case *aa > 0:
		if !runAA(cfg, *aa) {
			os.Exit(1)
		}
	case *name == "all":
		if !runSuite(cfg, *jsonOut) {
			os.Exit(1)
		}
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		cfg.w = w
		if !runForDriver(cfg) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// reading is a metric value as the contract prints it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the listed metrics from a run. A metric the run did not
// produce is a harness bug and is reported as a failed check.
func pick(res *runResult, list []metric) map[string]reading {
	out := make(map[string]reading, len(list))
	for _, m := range list {
		v, ok := res.Values[m.name]
		if !ok {
			res.Failed++
			res.Errors = append(res.Errors, "no reading for "+m.name)
		}
		out[m.name] = reading{v, m.unit}
	}
	return out
}

func printReadings(w *os.File, list []metric, rs map[string]reading) {
	for _, m := range list {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, rs[m.name].Value, m.unit)
	}
}

// runForDriver makes one run and prints the contract's result object as
// the last line of standard output.
func runForDriver(cfg runConfig) bool {
	res, err := runOnce(cfg)
	if err != nil {
		fatal(err)
	}
	list := endToEnd
	if cfg.traced {
		list = perLayer
	}
	rs := pick(res, list)
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%d traced=%v smoke=%v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.traced, cfg.smoke)
	printReadings(os.Stderr, list, rs)
	if !cfg.traced {
		// How disturbed the run was: the same timings without picking the quiet part.
		fmt.Fprintf(os.Stderr, "  over the whole window: %.4f req/s, p50 %.4f ms, p99 %.4f ms; median cold load %.4f ms\n",
			res.Values["serve.window_rps"], res.Values["serve.pooled_p50_ms"], res.Values["serve.pooled_p99_ms"], res.Values["snapshot.cold_load_p50_ms"])
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	ok := res.Failed == 0
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{ok, res.Attempted, res.Failed, rs})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return ok
}

// suiteEntry is one workload's readings in the -json file.
type suiteEntry struct {
	EndToEnd  map[string]reading `json:"end_to_end"`
	PerLayer  map[string]reading `json:"per_layer"`
	Overhead  map[string]float64 `json:"trace.overhead_share"`
	Stages    map[string]float64 `json:"stage_share"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// runSuite runs every workload untraced and then traced and prints
// every metric by name with its unit.
func runSuite(cfg runConfig, jsonOut string) bool {
	ok := true
	report := struct {
		Machine   map[string]string     `json:"machine"`
		Seed      uint64                `json:"seed"`
		Seconds   int                   `json:"seconds"`
		Smoke     bool                  `json:"smoke"`
		Workloads map[string]suiteEntry `json:"workloads"`
	}{
		Machine: map[string]string{
			"nproc": strconv.Itoa(runtime.NumCPU()), "go": runtime.Version(),
			"os_arch": runtime.GOOS + "/" + runtime.GOARCH, "date": time.Now().UTC().Format("2006-01-02"),
		},
		Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Workloads: map[string]suiteEntry{},
	}
	for _, w := range workloads {
		cfg.w, cfg.traced = w, false
		plain, err := runOnce(cfg)
		if err != nil {
			fatal(err)
		}
		cfg.traced = true
		traced, err := runOnce(cfg)
		if err != nil {
			fatal(err)
		}
		e := suiteEntry{
			EndToEnd:  pick(plain, endToEnd),
			PerLayer:  pick(traced, perLayer),
			Overhead:  map[string]float64{},
			Attempted: plain.Attempted + traced.Attempted,
			Failed:    plain.Failed + traced.Failed,
			Errors:    append(plain.Errors, traced.Errors...),
		}
		for _, m := range []string{"batch_s", "req_p50_ms"} {
			e.Overhead[m] = (traced.Values[m] - plain.Values[m]) / plain.Values[m]
		}
		e.Stages = stageShares(traced.Values, plain.Values)
		report.Workloads[w.name] = e

		fmt.Printf("%s (seed %d%s)\n end to end, untraced:\n", w.name, cfg.seed, map[bool]string{true: ", SMOKE SIZE: not comparable"}[cfg.smoke])
		printReadings(os.Stdout, endToEnd, e.EndToEnd)
		fmt.Printf(" per layer, traced (spans in %s):\n", tracePath(cfg))
		printReadings(os.Stdout, perLayer, e.PerLayer)
		fmt.Printf("  %-32s %14.4f ratio (batch_s)\n  %-32s %14.4f ratio (req_p50_ms)\n",
			"trace.overhead_share", e.Overhead["batch_s"], "trace.overhead_share", e.Overhead["req_p50_ms"])
		fmt.Printf(" shares:")
		for _, k := range slices.Sorted(maps.Keys(e.Stages)) {
			fmt.Printf(" %s=%.1f%%", k, 100*e.Stages[k])
		}
		fmt.Printf("\n operations attempted %d, failed %d\n", e.Attempted, e.Failed)
		for _, msg := range e.Errors {
			fmt.Println(" FAILED:", msg)
		}
		ok = ok && e.Failed == 0
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	return ok
}

// stageShares says where the time went: the traced run's batch stages
// as a share of its batch_s, and the untraced run's serving window as a
// share of its whole wall time.
func stageShares(v, plain map[string]float64) map[string]float64 {
	batch := v["batch_s"]
	prep := v["corpus.build_s"] + v["phrasemine.mine_s"] + v["segment.corpus_s"]
	if v["corpusfile.in_batch"] == 1 {
		prep += v["corpusfile.save_s"] + v["corpusfile.open_ms"]/1e3
	}
	return map[string]float64{
		"batch/train": v["topicmodel.train_s"] / batch,
		"batch/prep":  prep / batch,
		"run/serve":   plain["serve_window_s"] / (plain["batch_s"] + plain["load_window_s"] + plain["serve_window_s"] + plain["setup_s"]),
	}
}
