package main

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"topmine"
)

// runLoad is the load child: a fresh process that does nothing but
// cold loads, the way `topmined` starts. Sharing a process with
// training moved the cold-load median by up to 50% between identical
// runs (the heap and GC pacing it inherits), which is why the phases
// are separate processes.
func runLoad(w workload, seed uint64, dir string, traced bool, batch *phaseResult) (*phaseResult, *tracer) {
	res := newPhaseResult()
	tr := newTracer("load", traced)
	v := res.Values
	path := snapshotPath(dir)
	lang := newLanguage(w.profile, seed)
	first := lang.texts(streamWarmup, 1)[0]

	var total, load, build, infer []time.Duration
	var allocBytes, mallocs []float64
	root := tr.begin("load", 0, 0)
	start := time.Now()
	for i := -w.loadWarmups; i < w.maxLoads; i++ {
		if i >= w.minLoads && time.Since(start).Seconds() >= w.loadWindow {
			break
		}
		if i == 0 {
			start = time.Now()
		}
		var before, after runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
		}
		var (
			r     *topmine.Result
			inf   *topmine.Inferencer
			err   error
			theta []float64
		)
		res.Attempted++
		id := tr.begin("cold-load", root, 0)
		dLoad := tr.timed("snapshot.load", id, func() { r, err = topmine.LoadSnapshotFile(path) })
		if err != nil {
			res.fail("load %d: %v", i, err)
			break
		}
		if traced {
			runtime.ReadMemStats(&after)
		}
		dBuild := tr.timed("inferencer.build", id, func() { inf, err = topmine.NewInferencer(r) })
		if err != nil {
			res.fail("load %d: %v", i, err)
			break
		}
		dInfer := tr.timed("inferencer.first-infer", id, func() { theta = inf.InferTopics(first, inferIters) })
		tr.end(id)
		if !validTheta(theta, w.k) {
			res.fail("load %d: first inference is not a %d-topic mixture", i, w.k)
		}
		if i >= 0 {
			// The sum leaves out the harness's own runtime reads between the calls.
			total = append(total, dLoad+dBuild+dInfer)
			load = append(load, dLoad)
			build = append(build, dBuild)
			infer = append(infer, dInfer)
			if traced {
				allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
				mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
			}
		}
		// The next load must not start inside this one's garbage.
		r, inf = nil, nil
		runtime.GC()
	}
	tr.end(root)
	if len(total) == 0 {
		return res, tr
	}
	v["load_window_s"] = time.Since(start).Seconds()
	// The fastest load, and its three parts: what else runs on the
	// machine only ever adds to a load (see quietest).
	fastest := 0
	for i := range total {
		if total[i] < total[fastest] {
			fastest = i
		}
	}
	v["cold_load_ms"] = ms(total[fastest])
	v["snapshot.load_ms"] = ms(load[fastest])
	v["inferencer.build_ms"] = ms(build[fastest])
	v["inferencer.first_infer_ms"] = ms(infer[fastest])
	v["snapshot.cold_load_p50_ms"] = median(durations(total, ms))
	if traced {
		v["snapshot.load_alloc_mb"] = median(allocBytes) / (1 << 20)
		v["snapshot.load_mallocs"] = median(mallocs)
	}

	// Set-up from here on: correctness of the loaded model and the
	// quality reading that needs it.
	r, err := topmine.LoadSnapshotFile(path)
	if err != nil {
		res.fail("load for checks: %v", err)
		return res, tr
	}
	inf, err := r.Inferencer()
	if err != nil {
		res.fail("inferencer for checks: %v", err)
		return res, tr
	}
	if traced {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		v["inferencer.heap_mb"] = float64(m.HeapAlloc) / (1 << 20)
		v["inferencer.heap_objects"] = float64(m.HeapObjects)
	}

	for i, text := range lang.texts(streamProbes, thetaProbes) {
		res.Attempted++
		got := inf.InferTopics(text, inferIters)
		if i >= len(batch.Theta) || !slices.Equal(got, batch.Theta[i]) {
			res.fail("θ probe %d: loaded snapshot and in-memory result disagree", i)
		}
	}

	planted, recalled := 0, 0
	for _, p := range lang.probes(w.recallProbes) {
		var got []string
		for _, seg := range inf.Segment(p.text) {
			got = append(got, seg...)
		}
		for _, want := range p.planted {
			planted++
			for _, ph := range got {
				if containsWords(ph, want) {
					recalled++
					break
				}
			}
		}
	}
	v["phrase_recall"] = float64(recalled) / float64(max(planted, 1))

	if traced {
		directInference(lang, inf, v, w.probeCalls)
	}
	return res, tr
}

// directInference times the Inferencer with no HTTP around it, on the
// same request texts the serve phase sends.
func directInference(lang *language, inf *topmine.Inferencer, v map[string]float64, n int) {
	texts := lang.texts(streamRequests, n)
	for _, t := range texts[:min(200, n)] {
		inf.InferTopics(t, inferIters) // fill the scratch pool
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lat := make([]float64, n)
	tokens := 0
	for i, t := range texts {
		t0 := time.Now()
		_, tok := inf.InferTopicsTokens(t, inferIters)
		lat[i] = us(time.Since(t0))
		tokens += tok
	}
	runtime.ReadMemStats(&after)
	v["inferencer.infer_us_p50"] = median(lat)
	v["inferencer.infer_us_p99"] = percentile(lat, 0.99)
	v["inferencer.allocs_per_infer"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	v["inferencer.tokens_per_req"] = float64(tokens) / float64(n)
	for i, t := range texts {
		t0 := time.Now()
		inf.Segment(t)
		lat[i] = us(time.Since(t0))
	}
	v["inferencer.segment_us_p50"] = median(lat)
}

// validTheta reports whether theta is k values summing to 1±1e-6.
func validTheta(theta []float64, k int) bool {
	if len(theta) != k {
		return false
	}
	sum := 0.0
	for _, x := range theta {
		if x < 0 || math.IsNaN(x) {
			return false
		}
		sum += x
	}
	return math.Abs(sum-1) <= 1e-6
}

// containsWords reports whether phrase holds want as a run of whole words.
func containsWords(phrase, want string) bool {
	return strings.Contains(" "+phrase+" ", " "+want+" ")
}
