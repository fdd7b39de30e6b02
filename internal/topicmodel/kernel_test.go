package topicmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"topmine/internal/xrand"
)

// shortDocs builds the titles shape that the long-abstract fixture
// hides: n documents of about six cliques and seven tokens over v words
// in 30 planted topics (a fifth of the vocabulary is shared background,
// ranks inside a slice are Zipf-like), so word and document rows stay
// sparse at K = 100–200 and per-document work is not amortised away.
func shortDocs(n, v int, seed uint64) []Doc {
	const topics = 30
	rng := xrand.New(seed)
	bg := v / 5
	slice := (v - bg) / topics
	// rank draws a Zipf-like rank in [0, size): u³ piles the mass on the
	// head without a cumulative table.
	rank := func(size int) int32 {
		u := rng.Float64()
		return int32(u * u * u * float64(size))
	}
	word := func(t int) int32 {
		if rng.Float64() < 0.2 {
			return rank(bg)
		}
		return int32(bg+t*slice) + rank(slice)
	}
	docs := make([]Doc, n)
	for d := range docs {
		t := rng.Intn(topics)
		cliques := make([][]int32, 4+rng.Intn(5))
		for g := range cliques {
			if rng.Float64() < 0.3 {
				t = rng.Intn(topics) // a second topic mixes in
			}
			w := 1
			if u := rng.Float64(); u < 0.04 {
				w = 3
			} else if u < 0.16 {
				w = 2
			}
			c := make([]int32, w)
			if w == 1 {
				c[0] = word(t)
			} else {
				// A planted collocation: consecutive head words of the
				// topic's slice, so the same phrase recurs.
				first := int32(bg+t*slice) + int32(rng.Intn(8))*3
				for j := range c {
					c[j] = first + int32(j)
				}
			}
			cliques[g] = c
		}
		docs[d] = NewDoc(d, cliques...)
	}
	return docs
}

// zHash is an FNV-1a digest of every assignment in document order.
func zHash(m *Model) string {
	h := fnv.New64a()
	var b [4]byte
	for d := range m.Z {
		for _, k := range m.Z[d] {
			b[0], b[1], b[2], b[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSerialSweepBytesPinned holds the serial sparse sampler to the
// bytes it produced before the sweeps were unified on one kernel (the
// digests were recorded at the parent commit): the O(K_d) document
// entry and the count view change what a draw costs, not what it
// returns.
func TestSerialSweepBytesPinned(t *testing.T) {
	abstracts, _, v := synthPhraseDocs(t, "dblp-abstracts", 60)
	for _, tc := range []struct {
		name string
		docs []Doc
		v, k int
		want string
	}{
		{"abstracts/K7", abstracts, v, 7, "76db3509312b3dd2"},
		{"abstracts/K200", abstracts, v, 200, "d7155e145f41bf7b"},
		{"short/K200", shortDocs(3000, 4000, 5), 4000, 200, "5ba6cf09a16e012a"},
	} {
		m := NewModel(tc.docs, tc.v, Options{K: tc.k, Iterations: 1, Seed: 5})
		for i := 0; i < 3; i++ {
			m.Sweep()
		}
		if got := zHash(m); got != tc.want {
			t.Errorf("%s: Z digest %s after 3 serial sweeps, pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestParallelMatchesOraclePerplexity is the statistical re-pin of the
// parallel path: the sparse worker kernel and the dense delta oracle
// draw from the same conditional (TestSparseMatchesDenseConditional
// pins that per draw) through different random streams, so the same
// schedule through either gives two chains of one approximate
// posterior, and their seed-averaged held-out perplexities must agree
// within 2%.
func TestParallelMatchesOraclePerplexity(t *testing.T) {
	const domain, n, k, iters = "20conf", 400, 8, 150
	_, test, v := synthPhraseDocs(t, domain, n)
	seeds := []uint64{11, 12, 13, 14, 15, 16, 17, 18}
	for _, workers := range []int{2, 4} {
		var kernel, oracle float64
		for _, seed := range seeds {
			opt := Options{K: k, Iterations: iters, Seed: seed, Workers: workers}
			docs, _, _ := synthPhraseDocs(t, domain, n)
			kernel += Perplexity(Train(docs, v, opt), test)

			docs, _, _ = synthPhraseDocs(t, domain, n)
			m := NewModel(docs, v, opt)
			for it := 0; it < iters; it++ {
				oracleSweepParallel(m, workers)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("oracle, %d workers, seed %d: %v", workers, seed, err)
			}
			oracle += Perplexity(m, test)
		}
		kernel /= float64(len(seeds))
		oracle /= float64(len(seeds))
		diff := math.Abs(kernel-oracle) / oracle
		if math.IsNaN(diff) || diff > 0.02 {
			t.Errorf("%d workers: mean perplexity %.3f through the kernel, %.3f through the oracle (%.2f%% apart, want <= 2%%)",
				workers, kernel, oracle, diff*100)
		} else {
			t.Logf("%d workers: mean perplexity %.3f through the kernel, %.3f through the oracle (%.2f%% apart)",
				workers, kernel, oracle, diff*100)
		}
	}
}

// toyTraining is the exact-posterior instance for training: two
// documents, five cliques of lengths 1, 2 and 3 (distinct words inside
// each clique, so Eq. 7 is the exact collapsed conditional), K=3, V=4,
// an asymmetric α.
func toyTraining(seed uint64) *Model {
	docs := []Doc{
		NewDoc(0, []int32{0}, []int32{1, 2}, []int32{3}),
		NewDoc(1, []int32{3, 0, 1}, []int32{2}),
	}
	m := NewModel(docs, 4, Options{K: 3, Beta: 0.5, Iterations: 1, Seed: seed})
	m.Alpha = []float64{0.3, 0.7, 1.1}
	m.AlphaSum = 2.1
	return m
}

// TestTrainingKernelExactPosterior enumerates all 3⁵ assignments of
// the toy corpus and their collapsed PhraseLDA joint
//
//	p(z) ∝ Π_d Π_k Π_{i<N_dk} (α_k+i) · Π_k Π_w Π_{i<N_wk} (β+i) / Π_{i<N_k} (Σβ+i)
//
// (built clique by clique as the product of Eq. 7 factors, which is
// the same thing). Gibbs sweeps leave p invariant, so the long-run
// histogram of the chain's states must fit it by χ²: for the serial
// sparse kernel, and for a one-worker shard chain — shard sweep, fold,
// rebroadcast — whose single worker sees no stale counts and is
// therefore an exact sampler too.
func TestTrainingKernelExactPosterior(t *testing.T) {
	ref := toyTraining(1)
	K := ref.K
	var cliques [][]int32
	var docOf []int
	for d := range ref.Docs {
		for _, c := range cliquesOf(&ref.Docs[d]) {
			cliques = append(cliques, c)
			docOf = append(docOf, d)
		}
	}
	G := len(cliques)
	states := 1
	for range cliques {
		states *= K
	}
	p := make([]float64, states)
	var norm float64
	for code := range p {
		ndk := make([]int, len(ref.Docs)*K)
		nwk := make([]int, ref.V*K)
		nk := make([]int, K)
		w := 1.0
		for g, c := 0, code; g < G; g, c = g+1, c/K {
			x := c % K
			for j, word := range cliques[g] {
				w *= (ref.Alpha[x] + float64(ndk[docOf[g]*K+x]+j)) * (ref.Beta + float64(nwk[int(word)*K+x])) /
					(ref.BetaSum + float64(nk[x]+j))
			}
			for _, word := range cliques[g] {
				nwk[int(word)*K+x]++
			}
			ndk[docOf[g]*K+x] += len(cliques[g])
			nk[x] += len(cliques[g])
		}
		p[code] = w
		norm += w
	}
	code := func(z [][]int32) int {
		c := 0
		for d := len(z) - 1; d >= 0; d-- {
			for g := len(z[d]) - 1; g >= 0; g-- {
				c = c*K + int(z[d][g])
			}
		}
		return c
	}

	const burn, thin, n = 500, 3, 40000
	for _, tc := range []struct {
		name  string
		chain func() (sweep func(), z [][]int32)
	}{
		{"serial", func() (func(), [][]int32) {
			m := toyTraining(2024)
			return m.Sweep, m.Z
		}},
		{"one-worker shard", func() (func(), [][]int32) {
			cm := toyTraining(2024)
			sm := shardOf(t, cm, 0, len(cm.Docs))
			return func() {
				delta := sm.ShardSweep(0, cm.NextSweepBase())
				rows, err := cm.FoldShardDeltas([]*CountRows{delta})
				if err != nil {
					t.Fatal(err)
				}
				if err := sm.SetGlobalRows(rows); err != nil {
					t.Fatal(err)
				}
			}, sm.Z
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sweep, z := tc.chain()
			for i := 0; i < burn; i++ {
				sweep()
			}
			hist := make([]float64, states)
			for i := 0; i < n; i++ {
				for j := 0; j < thin; j++ {
					sweep()
				}
				hist[code(z)]++
			}
			if chi, limit, bins := chiSquareFit(hist, p, norm, n); chi > limit {
				t.Errorf("χ² = %.1f over %d bins, limit %.1f: the chain does not fit the exact posterior", chi, bins, limit)
			} else {
				t.Logf("χ² = %.1f over %d bins (limit %.1f)", chi, bins, limit)
			}
		})
	}
}

// shardOf builds the worker-side model of cm's documents [lo, hi): its
// own copy of their assignments and of the global counts.
func shardOf(t *testing.T, cm *Model, lo, hi int) *Model {
	t.Helper()
	z := make([][]int32, hi-lo)
	for i := range z {
		z[i] = append([]int32(nil), cm.Z[lo+i]...)
	}
	sm, err := NewShardModel(cm.Docs[lo:hi:hi], cm.V, cm.K, append([]float64(nil), cm.Alpha...), cm.AlphaSum, cm.Beta, z,
		append([]int32(nil), cm.nwk...), append([]int64(nil), cm.Nk...))
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

// TestExactGuard forces the guard — the one dense evaluation of Eq. 7
// left in the production sweeps — in the serial sampler, in
// SweepParallel workers and in ShardSweep, and holds it to its
// contract: one draw from the exact conditional over the sampler's own
// view (for a worker: frozen global + its private delta) consuming one
// uniform of the sampler's own RNG. Run under -race, the sweeps also
// show that concurrent workers share no RNG.
func TestExactGuard(t *testing.T) {
	// β² overflows, so S_W is not finite for W ≥ 2 and every phrase draw
	// needs the guard, while Eq. 7 taken factor by factor stays in range.
	const degenerateBeta = 1e160
	newModel := func() *Model {
		return NewModel(mixedCliqueDocs(60), 10, Options{K: 4, Beta: degenerateBeta, Iterations: 1, Seed: 9})
	}
	phrases := int64(0)
	for _, doc := range mixedCliqueDocs(60) {
		for _, c := range cliquesOf(&doc) {
			if len(c) > 1 {
				phrases++
			}
		}
	}

	t.Run("sweeps", func(t *testing.T) {
		var last SweepStats
		for _, tc := range []struct {
			name  string
			sweep func(m *Model) DrawStats
		}{
			{"serial", func(m *Model) DrawStats { m.Sweep(); return last.Draws }},
			{"SweepParallel", func(m *Model) DrawStats { m.SweepParallel(3); return last.Draws }},
			{"ShardSweep", func(m *Model) DrawStats {
				sm := shardOf(t, m, 0, len(m.Docs))
				delta := sm.ShardSweep(0, m.NextSweepBase())
				if err := m.InstallShardState(0, sm.Z); err != nil {
					t.Fatal(err)
				}
				if _, err := m.FoldShardDeltas([]*CountRows{delta}); err != nil {
					t.Fatal(err)
				}
				return sm.par.workers[0].draws
			}},
		} {
			var zs []string
			for run := 0; run < 2; run++ {
				m := newModel()
				m.SetSweepStats(func(st SweepStats) { last = st })
				if draws := tc.sweep(m); draws.Exact != phrases || draws.Cand+draws.Rest != 0 {
					t.Errorf("%s: draws %+v, want all %d phrase draws through the guard", tc.name, draws, phrases)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
				zs = append(zs, zHash(m))
			}
			if zs[0] != zs[1] {
				t.Errorf("%s: two runs from one seed disagree", tc.name)
			}
		}
	})

	// Draw by draw: a guarded draw is the oracle's draw from the same
	// uniform. Phrase draws hit the guard through the degenerate β;
	// unigram draws through a poisoned smoothing mass.
	for _, tc := range []struct {
		name    string
		sampler func(m *Model) *sparseSampler
	}{
		{"serial view", func(m *Model) *sparseSampler {
			sp := m.ensureSparse()
			sp.nk, sp.rng = m.Nk, m.rng
			return sp
		}},
		{"worker view", func(m *Model) *sparseSampler {
			m.ensureSparse()
			ws := m.ensurePar(1).workers[0]
			ws.beginShard(77)
			return ws
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newModel()
			sp := tc.sampler(m)
			dd := newDenseDelta(m) // stays zero in the serial view, whose edits land in the globals
			sp.refresh()
			for d := range m.Docs {
				sp.beginDoc(d)
				for g, clique := range cliquesOf(&m.Docs[d]) {
					sp.bind(clique)
					sp.apply(m.Z[d][g], -1)
					if sp.ov != nil {
						dd.add(m, clique, m.Z[d][g], -1)
					}
					fork := *sp.rng
					want := int32(fork.Categorical(dd.weights(m, m.ndkRow(d), clique)))
					before := sp.draws.Exact
					var k int32
					if len(clique) == 1 {
						sp.catchUp(1)
						sp.smooth[1] = math.NaN()
						k = sp.drawUnigram()
						sp.recomputeSmooth(1)
					} else {
						k = sp.drawPhrase()
					}
					if k != want || *sp.rng != fork || sp.draws.Exact != before+1 {
						t.Fatalf("doc %d clique %d (W=%d): drew %d, the exact conditional over the view gives %d from the same uniform (guard draws %d → %d)",
							d, g, len(clique), k, want, before, sp.draws.Exact)
					}
					m.Z[d][g] = k
					sp.apply(k, 1)
					if sp.ov != nil {
						dd.add(m, clique, k, 1)
					}
				}
			}
		})
	}
}
