package main

import (
	"fmt"
	"runtime"

	"topmine"
)

// workload is one raw text → served request pass. Every workload runs
// every phase; what differs is which stage carries the weight. The
// sizes were measured on a 2-vCPU box so that one untraced run stays
// near 25 s: the driver makes 4 + 22×4 runs inside 3420 s.
type workload struct {
	name string
	why  string
	profile
	docs         int
	k            int
	sweeps       int
	topicWorkers int  // 0 = serial sparse sampler, >1 = SweepParallel delta kernel
	corpusStore  bool // batch goes through the .tpc corpus store

	// Serving. The window is reqPerSecond × -seconds requests so that
	// every count repeats exactly for one (seed, seconds) pair.
	reqPerSecond int
	pool         int     // >0: requests are drawn Zipf(1.1) from this many texts; 0: every text unique
	segmentShare float64 // share of requests sent to /v1/segment
	reloads      bool    // a hot reload opens every chunk of the window

	counts // the harness's own counts
}

// counts are how often the harness repeats things around a workload.
type counts struct {
	loadWarmups  int
	minLoads     int
	maxLoads     int
	loadWindow   float64 // seconds of timed cold loads, at least
	warmupReqs   int
	recallProbes int
	probeCalls   int // direct Inferencer and ServeHTTP calls per traced probe: 10 samples beyond p99
	batchCalls   int // batched /v1/infer calls in the traced probe
}

var (
	fullCounts  = counts{loadWarmups: 5, minLoads: 20, maxLoads: 120, loadWindow: 2, warmupReqs: 2000, recallProbes: 2000, probeCalls: 1000, batchCalls: 200}
	smokeCounts = counts{loadWarmups: 1, minLoads: 3, maxLoads: 3, warmupReqs: 20, recallProbes: 100, probeCalls: 40, batchCalls: 3}
)

const (
	pipelineSeed = 7  // Options.Seed; -seed varies the inputs only
	inferIters   = 20 // "iters" of every /v1/infer request
	heldOutFrac  = 0.1
	thetaProbes  = 20
	poolZipfS    = 1.1
	batchSize    = 16 // texts per batched /v1/infer call (per-layer probe)
	// latencyBlock is how many consecutive /v1/infer latencies make one
	// block of the serving window: twelve samples beyond a block's p95,
	// and 50 to 200 ms, short enough to fall between two GC cycles of the
	// serve child on every workload (blocks of 400 and more did not on
	// abstracts-prep, and their quietest tail spread 11–29% across seeds).
	latencyBlock = 250
	// rateChunks is how many equal chunks the serving window is cut into
	// for serve_rps: 0.3 to 0.6 s each, from 500 requests up.
	rateChunks = 20
)

var workloads = []workload{
	{
		name:    "titles-train",
		why:     "Gibbs training is over 80% of batch_s (serial sparse sampler, K=100) and every request text is unique, so sampler changes show and cache changes do not",
		profile: titles, docs: 100000, k: 100, sweeps: 35,
		reqPerSecond: 2500,
		counts:       fullCounts,
	},
	{
		name:    "titles-par2",
		why:     "same corpus through the 2-worker delta kernel at K=200: the other topicmodel path, the largest .tpm and the O(K) inference cost, so a gain for one kernel that costs the other shows",
		profile: titles, docs: 100000, k: 200, sweeps: 14, topicWorkers: 2,
		reqPerSecond: 1500,
		counts:       fullCounts,
	},
	{
		name:    "abstracts-prep",
		why:     "long documents through the .tpc corpus store with 4 sweeps at K=20: ingest, mining, segmentation and the corpus file are most of batch_s and training is little",
		profile: abstracts, docs: 24000, k: 20, sweeps: 4, corpusStore: true,
		reqPerSecond: 1000,
		counts:       fullCounts,
	},
	{
		name:    "serve-zipf",
		why:     "short batch phase, then Zipf-repeated texts, 15% /v1/segment and a hot reload every twentieth of the window: the response cache does most of the serving and each reload strands it",
		profile: reviews, docs: 15000, k: 50, sweeps: 15,
		reqPerSecond: 4000, pool: 20000, segmentShare: 0.15, reloads: true,
		counts: fullCounts,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to about 1% so the harness can be exercised
// by go test in seconds. Its numbers are not comparable with anything.
func (w workload) smoke() workload {
	w.docs = max(w.docs/100, 400)
	w.vocab /= 50
	w.topics = 3
	w.sweeps = 3
	w.reqPerSecond = max(w.reqPerSecond/100, 20)
	if w.pool > 0 {
		w.pool /= 100
	}
	w.counts = smokeCounts
	return w
}

// options are the pipeline options of a workload. Mining and
// segmentation keep the paper's defaults; hyper-optimisation is off so
// that training time is sweeps × sweep cost.
func (w workload) options() topmine.Options {
	opt := topmine.DefaultOptions()
	opt.Topics = w.k
	opt.Iterations = w.sweeps
	opt.OptimizeHyper = false
	opt.Seed = pipelineSeed
	opt.Workers = runtime.NumCPU()
	opt.TopicWorkers = w.topicWorkers
	if err := opt.Normalize(); err != nil {
		panic(err) // the table above is the only source of these values
	}
	return opt
}

func (w workload) requests(seconds int) int { return w.reqPerSecond * seconds }
