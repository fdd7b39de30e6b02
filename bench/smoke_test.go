package main

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when the
// harness re-executes it for a phase.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke drives every workload through all three phase processes at
// about 1% of its size, untraced and traced, and checks that each run
// passes its own correctness checks and reports every listed metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{w: w, seed: 1, seconds: 1, smoke: true, workDir: t.TempDir()}
			for _, traced := range []bool{false, true} {
				cfg.traced = traced
				res, err := runOnce(cfg)
				if err != nil {
					t.Fatal(err)
				}
				list := endToEnd
				if traced {
					list = perLayer
				}
				pick(res, list)
				if res.Failed > 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d: %v", traced, res.Attempted, res.Failed, res.Errors)
				}
			}
			checkTrace(t, tracePath(cfg))
		})
	}
}

// checkTrace verifies the span file nests: every handler span names a
// client span of the same request as its parent.
func checkTrace(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		phase string
		id    int
	}
	spans := map[key]span{}
	phases := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
		spans[key{s.Phase, s.ID}] = s
		phases[s.Phase] = true
	}
	if !phases["batch"] || !phases["load"] || !phases["serve"] {
		t.Fatalf("trace covers phases %v", phases)
	}
	handlers := 0
	for _, s := range spans {
		if s.Name != "serve.handler" || s.Req <= 0 {
			continue
		}
		handlers++
		if p := spans[key{s.Phase, s.Parent}]; p.Req != s.Req || p.Start > s.Start || p.End < s.End {
			t.Fatalf("handler span of request %d is not inside its client span", s.Req)
		}
	}
	if handlers == 0 {
		t.Fatal("no handler spans")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var bf struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed as %q, defined as %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, listed []entry, defined []metric) {
		if len(listed) != len(defined) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(listed), len(defined))
		}
		for i, m := range defined {
			better := map[bool]string{false: "lower", true: "higher"}[m.higher]
			if listed[i] != (entry{m.name, m.unit, better}) {
				t.Errorf("%s %d: listed %v, defined %v", kind, i, listed[i], m)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
