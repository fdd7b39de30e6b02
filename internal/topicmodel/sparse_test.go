package topicmodel

import (
	"bytes"
	"encoding/gob"
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
	mined := phrasemine.Mine(ho.Train, phrasemine.Options{MinSupport: 5, MaxLen: 8})
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
			docsB, _, _ := synthPhraseDocs(t, tc.domain, tc.docs)
			p = Perplexity(trainDense(docsB, v, opt), test)
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

// samplerMasses reassembles, bucket by bucket, the per-topic mass the
// sampler would draw its bound (already removed) clique from: smoothing
// term + document bucket + word bucket for a unigram; the caught-up S_W
// term, or the exact Eq. 7 product on a candidate, for a phrase.
func samplerMasses(sp *sparseSampler) []float64 {
	m := sp.m
	W := len(sp.rows)
	sp.catchUp(W)
	out := append([]float64(nil), sp.term[W]...)
	if W == 1 {
		for k := range out {
			out[k] += float64(sp.ndkRow[k]) * m.Beta * sp.invden[k]
		}
		for _, e := range sp.lists[sp.slots[0]] {
			k := uint32(e)
			out[k] += float64(e>>32) * ((m.Alpha[k] + float64(sp.ndkRow[k])) * sp.invden[k])
		}
		return out
	}
	cands := make(map[int32]bool)
	for _, k := range sp.docTopics {
		cands[k] = true
	}
	for _, slot := range sp.slots {
		for _, e := range sp.lists[slot] {
			cands[int32(uint32(e))] = true
		}
	}
	for k := range cands {
		akn := m.Alpha[k] + float64(sp.ndkRow[k])
		den := m.BetaSum + float64(sp.nk[k])
		p := 1.0
		for j, row := range sp.rows {
			fj := float64(j)
			p *= (akn + fj) * (m.Beta + float64(row[k])) / (den + fj)
		}
		out[k] = p
	}
	return out
}

// TestSparseMatchesDenseConditional walks real training runs and, at
// every draw point, compares the masses the sparse kernel would draw
// from against the dense conditional, to 1e-9 relative per topic — so
// the perplexity equivalence tests only have to absorb chain noise.
// The serial view is held to Eq. 7 over the model's counts; the worker
// view, mid-sweep with a non-empty private delta on each of two
// shards, to the dense "frozen global + private delta" weights of the
// oracle kernel. The chain itself moves by the dense draw.
func TestSparseMatchesDenseConditional(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 60)
	// walk resamples documents [lo, hi) through sp, checking every draw
	// point against dense(d, clique); moved is told of every count change.
	walk := func(t *testing.T, m *Model, sp *sparseSampler, lo, hi int,
		dense func(d int, clique []int32) []float64, moved func(clique []int32, k, sign int32)) {
		seen := map[bool]int{}
		sp.refresh()
		for d := lo; d < hi; d++ {
			if m.Docs[d].NumCliques() == 0 {
				continue
			}
			sp.beginDoc(d)
			for g, clique := range cliquesOf(&m.Docs[d]) {
				sp.bind(clique)
				sp.apply(m.Z[d][g], -1)
				moved(clique, m.Z[d][g], -1)
				want := dense(d, clique)
				for k, got := range samplerMasses(sp) {
					if math.Abs(got-want[k]) > 1e-9*want[k] {
						t.Fatalf("doc %d clique %d (W=%d) topic %d: sparse %.17g dense %.17g",
							d, g, len(clique), k, got, want[k])
					}
				}
				seen[len(clique) == 1]++
				k := int32(m.rng.Categorical(want))
				m.Z[d][g] = k
				sp.apply(k, 1)
				moved(clique, k, 1)
			}
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Fatalf("draws checked: %d unigram, %d phrase; want both", seen[true], seen[false])
		}
	}

	t.Run("serial", func(t *testing.T) {
		m := NewModel(docs, v, Options{K: 7, Iterations: 1, Seed: 5})
		sp := m.ensureSparse()
		sp.nk, sp.rng = m.Nk, m.rng
		for sweep := 0; sweep < 3; sweep++ {
			walk(t, m, sp, 0, len(m.Docs), m.denseCliqueWeights, func([]int32, int32, int32) {})
		}
	})

	t.Run("workers", func(t *testing.T) {
		m := NewModel(docs, v, Options{K: 7, Iterations: 1, Seed: 5})
		m.ensureSparse()
		ps := m.ensurePar(2)
		for sweep := 0; sweep < 3; sweep++ {
			for wi, ws := range ps.workers {
				ws.beginShard(uint64(wi))
				dd := newDenseDelta(m)
				walk(t, m, ws, ps.ranges[wi][0], ps.ranges[wi][1],
					func(d int, clique []int32) []float64 { return dd.weights(m, m.ndkRow(d), clique) },
					func(clique []int32, k, sign int32) { dd.add(m, clique, k, sign) })
				// The overlay, turned into a delta, is the oracle's delta.
				ws.toDelta()
				delta := ws.delta()
				live := 0
				for i, w := range delta.Words {
					if !int32SlicesEq(delta.Rows[i], dd.nwk[int(w)*m.K:(int(w)+1)*m.K]) {
						t.Fatalf("worker %d word %d: delta row %v, oracle %v", wi, w, delta.Rows[i], dd.nwk[int(w)*m.K:(int(w)+1)*m.K])
					}
					for _, c := range delta.Rows[i] {
						if c != 0 {
							live++
						}
					}
				}
				for _, c := range dd.nwk {
					if c != 0 {
						live--
					}
				}
				if live != 0 {
					t.Fatalf("worker %d: the oracle's delta has %d nonzero cells outside the overlay", wi, -live)
				}
				for k := range delta.Nk {
					if delta.Nk[k] != dd.nk[k] {
						t.Fatalf("worker %d: N_k delta %v, oracle %v", wi, delta.Nk, dd.nk)
					}
				}
				*ps.deltas[wi] = delta
			}
			if err := m.foldDeltas(ps.deltas); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("after sweep %d: %v", sweep, err)
			}
		}
	})
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
	if err := gobSave(&buf, m); err != nil {
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
	if err := gobSave(&buf, m); err != nil {
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

// TestOldDenseSnapshotLoadsAndTrains: a model saved while the dense
// reference sampler still shipped carries DenseSampler = true. It must
// load, and it trains on with the sparse sampler exactly as the same
// model saved without the flag.
func TestOldDenseSnapshotLoadsAndTrains(t *testing.T) {
	m := Train(twoTopicDocs(4, 8), 10, Options{K: 2, Iterations: 5, Seed: 41})
	// The gob shape of Model when it still had the DenseSampler field.
	type oldModel struct {
		K, V          int
		Alpha         []float64
		AlphaSum      float64
		Beta, BetaSum float64
		Docs          []Doc
		Z, Ndk, Nwk   [][]int32
		Nk            []int64
		Nd            []int32
		DenseSampler  bool
	}
	var old, cur bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(oldModel{
		K: m.K, V: m.V, Alpha: m.Alpha, AlphaSum: m.AlphaSum, Beta: m.Beta, BetaSum: m.BetaSum,
		Docs: m.Docs, Z: m.Z, Ndk: m.Ndk, Nwk: m.Nwk, Nk: m.Nk, Nd: m.Nd, DenseSampler: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := gobSave(&cur, m); err != nil {
		t.Fatal(err)
	}
	a, err := Load(&old, 41)
	if err != nil {
		t.Fatalf("old dense snapshot: %v", err)
	}
	b, err := Load(&cur, 41)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Sweep()
		b.Sweep()
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := zHash(a), zHash(b); got != want {
		t.Fatalf("old dense snapshot trained to %s, the same model without the flag to %s", got, want)
	}
}
