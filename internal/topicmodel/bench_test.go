package topicmodel

import (
	"fmt"
	"sync"
	"testing"
)

// Sweep benchmarks — the headline numbers of the training layer. One
// op is one full Gibbs sweep; tokens/s is the throughput a training
// run sustains, and B/op shows the steady-state allocation behaviour
// (zero for the serial sparse path, O(goroutines) for parallel).
//
// Models are warmed with training sweeps before timing: a sweep from
// random initialisation touches near-dense count matrices — the worst
// case for any sparse sampler and not what the 1000-2000 sweeps of a
// real run (§5.3) pay. CI runs these as a smoke pass.

var (
	benchFixtureOnce sync.Once
	benchFixtureDocs []Doc
	benchFixtureV    int

	benchShortOnce sync.Once
	benchShortDocs []Doc
)

// benchShortV is the short-document fixture's vocabulary.
const benchShortV = 10000

const benchWarmupSweeps = 30

func sweepBenchFixture(b *testing.B) ([]Doc, int) {
	b.Helper()
	benchFixtureOnce.Do(func() {
		docs, _, v := synthPhraseDocs(b, "dblp-abstracts", 400)
		benchFixtureDocs, benchFixtureV = docs, v
	})
	return benchFixtureDocs, benchFixtureV
}

// shortBenchFixture is the titles shape (about seven tokens and six
// cliques per document): the long-abstract fixture above amortises
// per-document work over hundreds of cliques, so only this one shows
// what document entry costs as K grows.
func shortBenchFixture() []Doc {
	benchShortOnce.Do(func() { benchShortDocs = shortDocs(30000, benchShortV, 42) })
	return benchShortDocs
}

// benchSweeps warms a model and times one sweep per op.
func benchSweeps(b *testing.B, docs []Doc, v int, opt Options, sweep func(*Model)) {
	opt.Iterations, opt.Seed = 1, 42
	m := NewModel(docs, v, opt)
	for i := 0; i < benchWarmupSweeps; i++ {
		sweep(m)
	}
	tokens := float64(m.TotalTokens())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(m)
	}
	b.ReportMetric(tokens*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
}

func BenchmarkSweep(b *testing.B) {
	docs, v := sweepBenchFixture(b)
	for _, k := range []int{50, 200, 1000} {
		for _, mode := range []string{"sparse", "dense"} {
			b.Run(fmt.Sprintf("K%d/%s", k, mode), func(b *testing.B) {
				sweep := (*Model).Sweep
				if mode == "dense" {
					sweep = (*Model).sweepDense // the test-only reference
				}
				benchSweeps(b, docs, v, Options{K: k}, sweep)
			})
		}
	}
	for _, k := range []int{100, 200} {
		b.Run(fmt.Sprintf("short/K%d/sparse", k), func(b *testing.B) {
			benchSweeps(b, shortBenchFixture(), benchShortV, Options{K: k}, (*Model).Sweep)
		})
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	docs, v := sweepBenchFixture(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("K200/workers%d", workers), func(b *testing.B) {
			benchSweeps(b, docs, v, Options{K: 200}, func(m *Model) { m.SweepParallel(workers) })
		})
	}
	for _, k := range []int{100, 200} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("short/K%d/workers%d", k, workers), func(b *testing.B) {
				benchSweeps(b, shortBenchFixture(), benchShortV, Options{K: k},
					func(m *Model) { m.SweepParallel(workers) })
			})
		}
	}
}

// BenchmarkInferTheta isolates the serve-path fold-in cost on a sparse
// synthetic φ — every word lives in three topics whatever K is, the
// shape nnz_per_word has on trained models — so the readings across
// K ∈ {20, 200, 1000} show how far a request is from K-independent:
// what remains is clearing the scratch and building θ.
func BenchmarkInferTheta(b *testing.B) {
	cliques := [][]int32{{1, 2}, {3}, {4, 5, 6}, {7}, {8}, {9, 10}}
	for _, k := range []int{20, 200, 1000} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			ix := NewInferIndex(sparsePhiModel(k, 2000), 3)
			sc := &InferScratch{}
			ix.InferTheta(cliques, 20, 0, sc) // warm: the scratch is pooled in service
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTheta = ix.InferTheta(cliques, 20, uint64(i), sc)
			}
		})
	}
}

var benchTheta []float64

// BenchmarkNewInferIndex is the cost a cold load and every hot reload
// pay for the index: one scan of a V·K arena the size of a titles
// model's (40k words × 200 topics, three non-zero cells per word).
func BenchmarkNewInferIndex(b *testing.B) {
	m := sparsePhiModel(200, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIndex = NewInferIndex(m, 8)
	}
}

var benchIndex *InferIndex
