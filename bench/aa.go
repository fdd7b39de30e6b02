package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the same code as two sets of n passes over every workload,
// the sets taking turns to go first, and holds every (metric, workload)
// pair to the test the driver applies: the spread of each set within
// the bound, and the second median not worse than the first by more
// than the bound. It answers "can this benchmark tell a change from
// its own noise" before anyone claims a change.
func runAA(cfg runConfig, n int) bool {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("the A/A check reads its bounds from the repository root: %w", err))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal(err)
	}

	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	ok := true
	for pass := 0; pass < n; pass++ {
		order := [2]int{pass % 2, 1 - pass%2}
		for _, set := range order {
			for _, w := range workloads {
				cfg.w = w
				res, err := runOnce(cfg)
				if err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "pass %d set %c %s: attempted %d failed %d\n", pass+1, 'A'+set, w.name, res.Attempted, res.Failed)
				for _, e := range res.Errors {
					fmt.Fprintln(os.Stderr, " FAILED:", e)
				}
				ok = ok && res.Failed == 0
				for name, r := range pick(res, endToEnd) {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], r.Value)
				}
			}
		}
	}

	fmt.Printf("A/A over %d passes per set, seed %d, %d s serving window\n", n, cfg.seed, cfg.seconds)
	fmt.Printf("%-15s %-14s %11s %11s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][key{w.name, m.Name}], sets[1][key{w.name, m.Name}]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			verdict := "ok"
			// Set-up time is held to the median test only, as by the driver.
			if worse > m.Bound || (m.Name != "setup_s" && n > 1 && max(spreadA, spreadB) > m.Bound) {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Printf("%-15s %-14s %11.4f %11.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, m.Name, am, bm, 100*spreadA, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok
}
