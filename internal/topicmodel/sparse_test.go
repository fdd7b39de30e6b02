package topicmodel

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
)

// synthPhraseDocs builds a segmented synthetic corpus — the realistic
// PhraseLDA workload with mixed clique lengths — plus a held-out
// document-completion split for perplexity comparisons.
func synthPhraseDocs(t testing.TB, domain string, n int) ([]Doc, [][]int32, int) {
	t.Helper()
	c := synth.GenerateCorpus(synth.Domains()[domain](),
		synth.Options{Docs: n, Seed: 7}, corpus.DefaultBuildOptions())
	ho := corpus.SplitDocumentCompletion(c, 0.2, 1)
	mined := phrasemine.Mine(ho.Train, phrasemine.Options{MinSupport: 5, MaxLen: 8, Workers: 1})
	segs := segment.NewSegmenter(mined, segment.Options{Alpha: 3, MaxPhraseLen: 8, Workers: 1}).
		SegmentCorpus(ho.Train)
	return DocsFromSegmentation(ho.Train, segs), ho.Test, ho.Train.Vocab.Size()
}

// TestSparseDensePerplexityEquivalence is the statistical-equivalence
// gate: the sparse bucketed sampler and the dense reference sample the
// exact same conditional (TestSparseMatchesDenseConditional pins that
// per-draw), so they are two chains of the same posterior and their
// held-out perplexities must agree up to chain noise. A single seed's
// chains can land ±5% apart at this corpus size, so the test compares
// seed-averaged perplexities, which must match within 2%.
func TestSparseDensePerplexityEquivalence(t *testing.T) {
	seeds := []uint64{11, 12, 13, 14}
	for _, tc := range []struct {
		domain string
		docs   int
		k      int
	}{
		{"dblp-abstracts", 250, 10},
		{"20conf", 400, 8},
	} {
		_, test, v := synthPhraseDocs(t, tc.domain, tc.docs)
		var ps, pd float64
		for _, seed := range seeds {
			opt := Options{K: tc.k, Iterations: 300, Seed: seed}
			docsA, _, _ := synthPhraseDocs(t, tc.domain, tc.docs)
			p := Perplexity(Train(docsA, v, opt), test)
			if math.IsNaN(p) {
				t.Fatalf("%s: sparse perplexity NaN at seed %d", tc.domain, seed)
			}
			ps += p
			opt.DenseSampler = true
			docsB, _, _ := synthPhraseDocs(t, tc.domain, tc.docs)
			p = Perplexity(Train(docsB, v, opt), test)
			if math.IsNaN(p) {
				t.Fatalf("%s: dense perplexity NaN at seed %d", tc.domain, seed)
			}
			pd += p
		}
		ps /= float64(len(seeds))
		pd /= float64(len(seeds))
		if diff := math.Abs(ps-pd) / pd; diff > 0.02 {
			t.Errorf("%s: mean sparse perplexity %.3f vs dense %.3f (%.2f%% apart, want <= 2%%)",
				tc.domain, ps, pd, diff*100)
		} else {
			t.Logf("%s: mean sparse perplexity %.3f vs dense %.3f (%.2f%% apart)",
				tc.domain, ps, pd, diff*100)
		}
	}
}

// TestSparseMatchesDenseConditional walks a real training run and, at
// every draw point, reassembles the sparse sampler's per-topic
// probability from its buckets (smoothing term + document bucket +
// word bucket for unigrams; caught-up S_W term or exact Eq. 7 product
// for phrase cliques) and compares it against the dense conditional.
// This pins the tentpole's exactness claim draw-by-draw, so the
// perplexity equivalence test above only has to absorb chain noise.
func TestSparseMatchesDenseConditional(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 60)
	m := NewModel(docs, v, Options{K: 7, Iterations: 1, Seed: 5})
	sp := m.ensureSparse()
	sparse := make([]float64, m.K)
	for sweep := 0; sweep < 3; sweep++ {
		sp.refresh()
		for d := range m.Docs {
			if len(m.Docs[d].Cliques) == 0 {
				continue
			}
			sp.beginDoc(d)
			for g := range m.Docs[d].Cliques {
				clique := m.Docs[d].Cliques[g]
				sp.apply(clique, m.Z[d][g], -1)
				dense := m.denseCliqueWeights(d, clique)
				if W := len(clique); W == 1 {
					sp.catchUp(1)
					for k := 0; k < m.K; k++ {
						sparse[k] = sp.term[1][k] + float64(sp.ndkRow[k])*m.Beta*sp.invden[k]
					}
					for _, e := range sp.wt[clique[0]] {
						k := uint32(e)
						sparse[k] += float64(e>>32) * sp.qcoef[k]
					}
				} else {
					sp.catchUp(W)
					cands := make(map[int32]bool)
					for _, k := range sp.docTopics {
						cands[k] = true
					}
					for _, word := range clique {
						for _, e := range sp.wt[word] {
							cands[int32(uint32(e))] = true
						}
					}
					for k := 0; k < m.K; k++ {
						sparse[k] = sp.term[W][k]
					}
					for k := range cands {
						akn := m.Alpha[k] + float64(sp.ndkRow[k])
						den := m.BetaSum + float64(m.Nk[k])
						p := 1.0
						for j, word := range clique {
							fj := float64(j)
							p *= (akn + fj) * (m.Beta + float64(m.nwkRow(word)[k])) / (den + fj)
						}
						sparse[k] = p
					}
				}
				for k := 0; k < m.K; k++ {
					if math.Abs(sparse[k]-dense[k]) > 1e-9*dense[k] {
						t.Fatalf("sweep %d doc %d clique %d (W=%d) topic %d: sparse %.17g dense %.17g",
							sweep, d, g, len(clique), k, sparse[k], dense[k])
					}
				}
				k := int32(m.rng.Categorical(dense))
				m.Z[d][g] = k
				sp.apply(clique, k, 1)
			}
		}
	}
}

// TestSparseSweepInvariants runs serial sparse sweeps over a clique-
// heavy corpus and verifies count/assignment consistency (including
// the packed word-topic index) after every sweep.
func TestSparseSweepInvariants(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 120)
	m := NewModel(docs, v, Options{K: 6, Iterations: 1, Seed: 3})
	for i := 0; i < 5; i++ {
		m.Sweep()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after sparse sweep %d: %v", i+1, err)
		}
	}
}

// TestMixedSerialParallelSweeps interleaves sparse serial sweeps and
// delta-reconciled parallel sweeps: the parallel path bulk-edits the
// counts behind the sparse sampler's index, which must rebuild and
// stay exact.
func TestMixedSerialParallelSweeps(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 150)
	m := NewModel(docs, v, Options{K: 5, Iterations: 1, Seed: 17})
	for i := 0; i < 3; i++ {
		m.Sweep()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("round %d after serial sweep: %v", i, err)
		}
		m.SweepParallel(4)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("round %d after parallel sweep: %v", i, err)
		}
	}
}

// TestSparseHyperOptTraining exercises the sweep-start mass refresh:
// hyperparameter optimisation makes Alpha asymmetric and moves Beta
// between sweeps, and the sparse buckets must follow.
func TestSparseHyperOptTraining(t *testing.T) {
	docs := twoTopicDocs(20, 25)
	m := Train(docs, 10, Options{K: 2, Iterations: 60, Seed: 13,
		OptimizeHyper: true, HyperEvery: 10, BurnIn: 10})
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The planted data is symmetric, so Alpha may stay symmetric — but
	// the fixed-point update must have moved it off the 50/K initial
	// value, proving optimisation ran against the sparse sweeps.
	if m.AlphaSum == 50.0 {
		t.Fatal("hyperparameter optimisation never ran (AlphaSum still at its initial value)")
	}
	if m.Beta == 0.01 {
		t.Fatal("beta optimisation never ran")
	}
}

// TestSparseRecoversPlantedTopics is the planted-structure check on
// the default (sparse) sampler, mirroring the dense-era test.
func TestSparseRecoversPlantedTopics(t *testing.T) {
	docs := twoTopicDocs(30, 30)
	m := Train(docs, 10, Options{K: 2, Iterations: 100, Seed: 3})
	topicOf := func(w int32) int {
		if m.nwkRow(w)[0] >= m.nwkRow(w)[1] {
			return 0
		}
		return 1
	}
	a := topicOf(0)
	for w := int32(1); w < 5; w++ {
		if topicOf(w) != a {
			t.Fatalf("topic-A words split under sparse sampling: word %d", w)
		}
	}
	for w := int32(5); w < 10; w++ {
		if topicOf(w) == a {
			t.Fatalf("topic-B word %d merged into topic A", w)
		}
	}
}

// TestSweepParallelMemoryBounded pins the tentpole's memory claim:
// after the first sweep warms the reusable delta buffers, a parallel
// sweep must not allocate anything proportional to V×K (the old
// implementation copied V×K int32s per worker per sweep — thousands
// of allocations; the rewrite allocates only goroutine bookkeeping).
func TestSweepParallelMemoryBounded(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 150)
	m := NewModel(docs, v, Options{K: 50, Iterations: 1, Seed: 29})
	for i := 0; i < 3; i++ {
		m.SweepParallel(4) // warm the per-worker delta pools
	}
	allocs := testing.AllocsPerRun(3, func() { m.SweepParallel(4) })
	// 4 goroutines and a WaitGroup cost a handful of allocations; the
	// old V×K snapshot+copies cost >1000 on this corpus. The bound is
	// generous to stay robust under -race instrumentation.
	if allocs > 100 {
		t.Fatalf("SweepParallel allocates %v objects per sweep after warmup; want O(workers), not O(V)", allocs)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepSteadyStateAllocFree pins the serial sparse sweep's
// steady-state allocation behaviour: once the word-topic index and
// scratch have warmed, sweeping allocates nothing.
func TestSweepSteadyStateAllocFree(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 120)
	m := NewModel(docs, v, Options{K: 20, Iterations: 1, Seed: 31})
	for i := 0; i < 5; i++ {
		m.Sweep()
	}
	if allocs := testing.AllocsPerRun(3, func() { m.Sweep() }); allocs > 20 {
		t.Fatalf("steady-state sparse sweep allocates %v objects; want ~0", allocs)
	}
}

// TestInferThetaScratchEquivalence: the pooled-scratch inference path
// must be bit-identical to the allocating one, and reusing a scratch
// across calls (including across different clique shapes and a model
// of another K) must not leak state between calls.
func TestInferThetaScratchEquivalence(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "20conf", 200)
	ix := NewInferIndex(Train(docs, v, Options{K: 6, Iterations: 30, Seed: 19}), 3)
	other := NewInferIndex(Train(docs, v, Options{K: 11, Iterations: 5, Seed: 19}), 3)
	cliqA := [][]int32{{1, 2}, {3}, {4, 5, 6}}
	cliqB := [][]int32{{2}, {7}}
	want := ix.InferTheta(cliqA, 20, 99, nil)
	sc := &InferScratch{}
	for i := 0; i < 3; i++ {
		got := ix.InferTheta(cliqA, 20, 99, sc)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("call %d: scratch path diverges at topic %d: %v vs %v", i, k, got[k], want[k])
			}
		}
		// Interleave other shapes to poison any leaked state.
		_ = ix.InferTheta(cliqB, 10, 5, sc)
		_ = other.InferTheta(cliqA, 10, 5, sc)
	}
	// The returned slice must be caller-owned: mutating it and
	// re-running must not see the mutation.
	got := ix.InferTheta(cliqA, 20, 99, sc)
	got[0] = -1
	again := ix.InferTheta(cliqA, 20, 99, sc)
	if again[0] == -1 {
		t.Fatal("InferTheta returned pooled memory")
	}
}

// TestSparseSamplerAfterLoad: a gob round trip drops the unexported
// sampler state; training must resume on the sparse path with exact
// invariants (the compacted arenas and rebuilt index agreeing).
func TestSparseSamplerAfterLoad(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 100)
	m := Train(docs, v, Options{K: 5, Iterations: 10, Seed: 23})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, 42)
	if err != nil {
		t.Fatal(err)
	}
	m2.Sweep()
	m2.SweepParallel(3)
	m2.Sweep()
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("post-load mixed sweeps broke invariants: %v", err)
	}
}

// TestLoadRejectsCorruptCounts: a gob-valid stream whose count
// matrices disagree with its assignments must fail at Load with an
// error, not panic inside the first post-load sweep.
func TestLoadRejectsCorruptCounts(t *testing.T) {
	docs := twoTopicDocs(3, 6)
	m := Train(docs, 10, Options{K: 2, Iterations: 3, Seed: 53})
	m.Nwk[0][0]++ // desync counts from assignments
	m.Nk[0]++
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, 1); err == nil {
		t.Fatal("Load accepted a stream with counts inconsistent with assignments")
	}
}

// TestValidateNamesNegativeCount: a frozen model with one negative
// topic-word count is rejected with the cell named, wherever in the row
// it sits (the sign check ORs eight cells at a time, then the rest).
func TestValidateNamesNegativeCount(t *testing.T) {
	for _, k := range []int{0, 5, 8, 10} {
		m := sparsePhiModel(11, 4)
		m.Nwk = make([][]int32, m.V)
		for w := range m.Nwk {
			m.Nwk[w] = m.nwk[w*m.K : (w+1)*m.K]
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("sound model rejected: %v", err)
		}
		m.Nwk[2][k] = -3
		want := fmt.Sprintf("Nwk[2][%d] = -3", k)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate = %v, want an error naming %s", err, want)
		}
	}
}

// TestDenseSamplerSurvivesRoundTrip: resumed training must keep using
// the sampler it was configured with, or the RNG stream (and so the
// bit-for-bit reproducibility contract) silently changes.
func TestDenseSamplerSurvivesRoundTrip(t *testing.T) {
	docs := twoTopicDocs(4, 8)
	m := Train(docs, 10, Options{K: 2, Iterations: 5, Seed: 41, DenseSampler: true})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, 41)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.DenseSampler {
		t.Fatal("DenseSampler flag lost across Save/Load")
	}
}
