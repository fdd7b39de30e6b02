package topicmodel

import (
	"math"
	"testing"

	"topmine/internal/xrand"
)

// denseInferTheta is the oracle the frozen-φ kernel is pinned against:
// the whole-document inference loop that served requests before
// InferIndex, evaluating Eq. 7 over all K topics for every clique of
// every sweep straight from the model's count matrix.
func (m *Model) denseInferTheta(cliques [][]int32, iters int, seed uint64) []float64 {
	rng := xrand.New(seed)
	ndk := make([]int32, m.K)
	z := make([]int32, len(cliques))
	var nd int32
	for g, clique := range cliques {
		k := int32(rng.Intn(m.K))
		z[g] = k
		ndk[k] += int32(len(clique))
		nd += int32(len(clique))
	}
	weights := make([]float64, m.K)
	acc := make([]float64, m.K)
	denom := float64(nd) + m.AlphaSum
	for it := 0; it < 2*iters; it++ {
		for g, clique := range cliques {
			ndk[z[g]] -= int32(len(clique))
			for k := 0; k < m.K; k++ {
				p := 1.0
				ak := m.Alpha[k] + float64(ndk[k])
				den := m.BetaSum + float64(m.Nk[k])
				for j, word := range clique {
					fj := float64(j)
					p *= (ak + fj) * (m.Beta + float64(m.nwkRow(word)[k])) / (den + fj)
				}
				weights[k] = p
			}
			z[g] = int32(rng.Categorical(weights))
			ndk[z[g]] += int32(len(clique))
		}
		if it >= iters {
			for k := 0; k < m.K; k++ {
				acc[k] += (float64(ndk[k]) + m.Alpha[k]) / denom
			}
		}
	}
	for k := range acc {
		acc[k] /= float64(iters)
	}
	return acc
}

// sparsePhiModel hand-builds a frozen model whose every word has
// counts in exactly three topics, whatever K is.
func sparsePhiModel(k, v int) *Model {
	m := &Model{K: k, V: v, Beta: 0.01, BetaSum: 0.01 * float64(v),
		Alpha: make([]float64, k), Nk: make([]int64, k), nwk: make([]int32, v*k)}
	for i := range m.Alpha {
		m.Alpha[i] = 50 / float64(k)
		m.AlphaSum += m.Alpha[i]
	}
	for w := 0; w < v; w++ {
		for i, c := range []int32{40, 9, 2} {
			t := (w*7 + i*13) % k
			m.nwk[w*k+t] += c
			m.Nk[t] += int64(c)
		}
	}
	return m
}

// kernelMasses reassembles, bucket by bucket, the per-topic mass the
// kernel would draw a (removed) clique from.
func kernelMasses(t *testing.T, ix *InferIndex, s *InferScratch, clique []int32) []float64 {
	t.Helper()
	W := len(clique)
	if W >= len(ix.term) {
		return ix.exactWeights(s, clique)
	}
	mass := append([]float64(nil), ix.term[W]...)
	if W == 1 {
		for k := range mass {
			mass[k] += float64(s.ndk[k]) * ix.bden[k]
		}
		for _, e := range ix.list(clique[0]) {
			mass[e.k] += (ix.alpha[e.k] + float64(s.ndk[e.k])) * e.f
		}
		return mass
	}
	sum := ix.phraseBuckets(s, clique)
	var check float64
	for i, k := range s.cand {
		mass[k] += s.cw[i]
		check += s.cw[i]
	}
	if check != sum {
		t.Fatalf("phraseBuckets returned %v for masses summing to %v", sum, check)
	}
	return mass
}

// TestInferIndexMatchesDenseConditional extends the
// TestSparseMatchesDenseConditional idiom to the frozen index: at every
// draw point of real inference runs, the masses the kernel draws from
// equal the dense Eq. 7 weights to 1e-9 relative — for unigrams,
// every phrase length the tables cover, cliques beyond them and words
// no topic has ever seen — and the patched document bucket equals its
// definition.
func TestInferIndexMatchesDenseConditional(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 60)
	const maxLen = 4
	// One word past the corpus vocabulary: its topic list is empty.
	unseen := int32(v)
	m := Train(docs, v+1, Options{K: 7, Iterations: 40, Seed: 5, OptimizeHyper: true, BurnIn: 10, HyperEvery: 10})
	ix := NewInferIndex(m, maxLen)
	if len(ix.list(unseen)) != 0 {
		t.Fatal("unseen word has topics")
	}
	s := &InferScratch{}
	seen := map[int]int{} // clique length -> draws checked
	for d := 0; d < 25; d++ {
		var cliques [][]int32
		var long []int32
		for _, c := range cliquesOf(&docs[d]) {
			cliques = append(cliques, c)
			if len(long) <= maxLen {
				long = append(long, c...)
			}
		}
		for W := 2; W <= maxLen && W <= len(long); W++ {
			cliques = append(cliques, long[:W]) // every covered length, every doc
		}
		cliques = append(cliques, long, []int32{unseen}, []int32{unseen, long[0]})
		ix.begin(s, cliques, uint64(d))
		for sweep := 0; sweep < 3; sweep++ {
			ix.sweep(s, cliques)
			for g, clique := range cliques {
				ix.remove(s, s.z[g], int32(len(clique)))
				var r float64
				for k, n := range s.ndk {
					r += float64(n) * ix.bden[k]
				}
				if math.Abs(s.r-r) > 1e-12*(1+r) {
					t.Fatalf("doc %d clique %d: patched r %.17g, defined %.17g", d, g, s.r, r)
				}
				got := kernelMasses(t, ix, s, clique)
				want := m.cliqueWeightsInto(s.ndk, clique)
				for k := range want {
					if math.Abs(got[k]-want[k]) > 1e-9*want[k] {
						t.Fatalf("doc %d sweep %d clique %d (W=%d) topic %d: kernel %.17g dense %.17g",
							d, sweep, g, len(clique), k, got[k], want[k])
					}
				}
				seen[min(len(clique), maxLen+1)]++
				s.z[g] = int32(s.rng.Categorical(want))
				ix.add(s, s.z[g], int32(len(clique)))
			}
		}
	}
	for W := 1; W <= maxLen+1; W++ {
		if seen[W] == 0 {
			t.Errorf("no draw of length %d checked (%v)", W, seen)
		}
	}
}

// toyInference is the exact-posterior instance: one unseen document of
// five cliques (lengths 1, 2 and 3) against a fixed φ with K=3, V=4.
func toyInference() (*Model, [][]int32) {
	m := &Model{K: 3, V: 4, Beta: 0.5, BetaSum: 2,
		Alpha: []float64{0.3, 0.7, 1.1}, AlphaSum: 2.1,
		nwk: []int32{
			4, 0, 1, // word 0
			0, 3, 0, // word 1
			2, 2, 0, // word 2
			0, 0, 0, // word 3: seen by no topic
		},
		Nk: []int64{6, 5, 1},
	}
	return m, [][]int32{{0}, {1, 2}, {3, 0, 1}, {2}, {3}}
}

// TestInferKernelExactPosterior enumerates all K^G assignments of the
// toy document. Frozen-φ Gibbs is reversible with respect to
//
//	p(z) ∝ Π_k Π_{i<N_dk(z)} (α_k+i) · Π_g Π_j (β+N_{w_j,z_g})/(Σβ+N_{z_g}+j)
//
// (the Dirichlet–multinomial urn over the document's tokens times one
// fixed word factor per clique; its conditionals are Eq. 7), so the
// long-run histogram of the kernel's states must fit p by χ², and
// InferTheta must return the exact posterior-mean θ.
func TestInferKernelExactPosterior(t *testing.T) {
	m, cliques := toyInference()
	G, K := len(cliques), m.K
	states := 1
	for range cliques {
		states *= K
	}
	var nd int
	for _, c := range cliques {
		nd += len(c)
	}
	p := make([]float64, states)
	wantTheta := make([]float64, K)
	var norm float64
	for code := range p {
		ndk := make([]int, K)
		w := 1.0
		for g, c, x := 0, code, 0; g < G; g, c = g+1, c/K {
			x = c % K
			for j, word := range cliques[g] {
				w *= (m.Alpha[x] + float64(ndk[x]+j)) * (m.Beta + float64(m.nwkRow(word)[x])) /
					(m.BetaSum + float64(m.Nk[x]) + float64(j))
			}
			ndk[x] += len(cliques[g])
		}
		p[code] = w
		norm += w
		for k := range wantTheta {
			wantTheta[k] += w * (float64(ndk[k]) + m.Alpha[k]) / (float64(nd) + m.AlphaSum)
		}
	}
	for k := range wantTheta {
		wantTheta[k] /= norm
	}

	ix := NewInferIndex(m, 3)
	s := &InferScratch{}
	const burn, thin, n = 500, 4, 60000
	ix.begin(s, cliques, 2024)
	for i := 0; i < burn; i++ {
		ix.sweep(s, cliques)
	}
	hist := make([]float64, states)
	for i := 0; i < n; i++ {
		for j := 0; j < thin; j++ {
			ix.sweep(s, cliques)
		}
		code := 0
		for g := G - 1; g >= 0; g-- {
			code = code*K + int(s.z[g])
		}
		hist[code]++
	}
	if chi, limit, bins := chiSquareFit(hist, p, norm, n); chi > limit {
		t.Errorf("χ² = %.1f over %d bins, limit %.1f: the kernel's chain does not fit the exact posterior", chi, bins, limit)
	} else {
		t.Logf("χ² = %.1f over %d bins (limit %.1f)", chi, bins, limit)
	}

	for name, theta := range map[string][]float64{
		"kernel": ix.InferTheta(cliques, 40000, 7, s),
		"dense":  m.denseInferTheta(cliques, 40000, 7),
	} {
		var l1 float64
		for k := range theta {
			l1 += math.Abs(theta[k] - wantTheta[k])
		}
		if l1 > 0.01 {
			t.Errorf("%s θ %v, exact posterior mean %v (L1 %.4f)", name, theta, wantTheta, l1)
		}
	}
}

// TestInferKernelMatchesDenseOracle: the kernel and the dense loop are
// two chains on one posterior, so their seed-averaged θ agree up to
// chain noise on every probe document.
func TestInferKernelMatchesDenseOracle(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 250)
	m := Train(docs, v, Options{K: 10, Iterations: 100, Seed: 3})
	ix := NewInferIndex(m, 8)
	s := &InferScratch{}
	const probes, seeds, iters = 20, 48, 20
	var worst float64
	for d := 0; d < probes; d++ {
		cliques := cliquesOf(&docs[d*7])
		kern, dense := make([]float64, m.K), make([]float64, m.K)
		for seed := uint64(0); seed < seeds; seed++ {
			for k, x := range ix.InferTheta(cliques, iters, seed, s) {
				kern[k] += x / seeds
			}
			for k, x := range m.denseInferTheta(cliques, iters, seed+1000) {
				dense[k] += x / seeds
			}
		}
		var l1 float64
		for k := range kern {
			l1 += math.Abs(kern[k] - dense[k])
		}
		worst = max(worst, l1)
		if l1 > 0.02 {
			t.Errorf("probe %d: seed-averaged θ L1 %.4f apart (kernel %v, dense %v)", d, l1, kern, dense)
		}
	}
	t.Logf("worst L1 over %d probes: %.4f", probes, worst)
}

// TestInferThetaAllocs: with a warm scratch one inference allocates the
// returned mixture and nothing else, whatever K is.
func TestInferThetaAllocs(t *testing.T) {
	cliques := [][]int32{{1, 2}, {3}, {4, 5, 6}, {7}, {8}, {9, 10}, {1, 2, 3, 4}}
	for _, k := range []int{20, 200} {
		ix := NewInferIndex(sparsePhiModel(k, 50), 3) // {1,2,3,4} is beyond the tables
		s := &InferScratch{}
		ix.InferTheta(cliques, 5, 1, s)
		if a := testing.AllocsPerRun(20, func() { ix.InferTheta(cliques, 5, 2, s) }); a != 1 {
			t.Errorf("K=%d: %v allocations per warm inference, want 1", k, a)
		}
	}
}

// wellFormed reports whether theta is a K-vector of finite
// non-negative values summing to 1.
func wellFormed(theta []float64, k int) bool {
	var sum float64
	for _, x := range theta {
		if !(x >= 0) || math.IsInf(x, 0) {
			return false
		}
		sum += x
	}
	return len(theta) == k && math.Abs(sum-1) < 1e-9
}

// TestInferKernelHazards names every numeric hazard of the kernel and
// the one answer it has.
func TestInferKernelHazards(t *testing.T) {
	m := sparsePhiModel(12, 30)
	m.V++ // word 30: seen by no topic
	m.nwk = append(m.nwk, make([]int32, m.K)...)
	const unseen = 30
	ix := NewInferIndex(m, 3)
	doc := [][]int32{{1}, {2, 3}, {4}, {5, 6, 7}, {8}}

	// exactDraw asserts that, from the scratch's current state, draw
	// answers clique with one draw from the full O(K) conditional.
	exactDraw := func(t *testing.T, ix *InferIndex, s *InferScratch, clique []int32) {
		t.Helper()
		fork := s.rng
		want := int32(fork.Categorical(append([]float64(nil), ix.exactWeights(s, clique)...)))
		if got := ix.draw(s, clique); got != want {
			t.Fatalf("draw = %d, the exact conditional with the same uniform gives %d", got, want)
		}
		if s.rng != fork {
			t.Fatal("draw consumed more than the exact draw's one uniform")
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *InferScratch)
	}{
		{"drift in r does not outlive a sweep", func(t *testing.T, s *InferScratch) {
			ix.begin(s, doc, 1)
			s.r = 1e6
			ix.sweep(s, doc)
			var r float64
			for k, n := range s.ndk {
				r += float64(n) * ix.bden[k]
			}
			if math.Abs(s.r-r) > 1e-12*r {
				t.Fatalf("r = %.17g after a sweep started from garbage, defined %.17g", s.r, r)
			}
		}},
		{"r is exactly zero once the document is empty", func(t *testing.T, s *InferScratch) {
			ix.begin(s, [][]int32{{1, 2}}, 1)
			ix.remove(s, s.z[0], 2)
			if s.r != 0 || len(s.topics) != 0 {
				t.Fatalf("r = %v with topics %v", s.r, s.topics)
			}
		}},
		{"unigram total not finite: exact draw", func(t *testing.T, s *InferScratch) {
			bad := *ix
			bad.pre = append([][]float64(nil), ix.pre...)
			bad.pre[1] = append([]float64(nil), ix.pre[1]...)
			bad.pre[1][bad.k-1] = math.Inf(1)
			bad.begin(s, doc, 1)
			exactDraw(t, &bad, s, []int32{4})
		}},
		{"phrase total not a number: exact draw", func(t *testing.T, s *InferScratch) {
			// The rising products of a 150-word clique leave float64's
			// range in the candidate evaluation; the exact conditional
			// multiplies word by word and stays inside it.
			long := make([]int32, 150)
			big := NewInferIndex(m, len(long))
			big.begin(s, doc, 1)
			if x := big.phraseBuckets(s, long); usable(x + big.pre[len(long)][big.k-1]) {
				t.Fatalf("candidate mass %v is usable; the case no longer exercises the guard", x)
			}
			exactDraw(t, big, s, long)
			if theta := big.InferTheta([][]int32{long, {1}}, 3, 1, s); !wellFormed(theta, big.k) {
				t.Fatalf("θ = %v", theta)
			}
		}},
		{"clique longer than the tables: exact draw", func(t *testing.T, s *InferScratch) {
			ix.begin(s, doc, 1)
			exactDraw(t, ix, s, []int32{1, 2, 3, 4})
		}},
		{"word with an empty list", func(t *testing.T, s *InferScratch) {
			theta := ix.InferTheta([][]int32{{unseen}, {unseen, unseen}, {unseen, 1, unseen, 2}}, 10, 1, s)
			if !wellFormed(theta, ix.k) {
				t.Fatalf("θ = %v", theta)
			}
		}},
		{"empty clique", func(t *testing.T, s *InferScratch) {
			theta := ix.InferTheta([][]int32{{}, {1}, {}}, 10, 1, s)
			if !wellFormed(theta, ix.k) {
				t.Fatalf("θ = %v", theta)
			}
		}},
		{"all-OOV text: the bare prior", func(t *testing.T, s *InferScratch) {
			theta := ix.InferTheta(nil, 10, 1, s)
			for k, x := range theta {
				if x != m.Alpha[k]/m.AlphaSum {
					t.Fatalf("θ[%d] = %v, prior %v", k, x, m.Alpha[k]/m.AlphaSum)
				}
			}
		}},
		{"iters whose doubling overflows int", func(t *testing.T, s *InferScratch) {
			theta := ix.InferTheta(doc, math.MaxInt/2+1, 1, s)
			if !wellFormed(theta, ix.k) {
				t.Fatalf("θ = %v", theta)
			}
			// No sweep ran: θ is the seeded initial assignment's.
			ix.begin(s, doc, 1)
			for k, x := range theta {
				if want := (float64(s.ndk[k]) + m.Alpha[k]) / (float64(s.nd) + m.AlphaSum); x != want {
					t.Fatalf("θ[%d] = %v, initial state %v", k, x, want)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, &InferScratch{}) })
	}
}
