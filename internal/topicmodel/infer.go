package topicmodel

import (
	"math"

	"topmine/internal/xrand"
)

// Frozen-φ inference: folding an unseen document into a trained model
// Gibbs-samples the document's clique topics against counts that do
// not move — N_wk and N_k are constants of the model for the whole
// call, only the document's own N_dk changes. Every quantity the
// training sampler (sparse.go) has to journal and catch up is therefore
// a table here, built once per InferIndex.
//
// Write den_k = Σβ + N_k. For a unigram clique on word w the Eq. 7
// conditional splits into the three SparseLDA buckets
//
//	p(k) ∝ α_k·β/den_k              s: a constant of the model; the
//	                                   draw is a binary search in its
//	                                   prefix sums
//	     + N_dk·β/den_k             r: non-zero on the document's K_d
//	                                   topics; patched in O(1) per
//	                                   assignment change, recomputed
//	                                   from the topic list every sweep
//	     + (α_k+N_dk)·N_wk/den_k    q: non-zero on word w's K_w topics;
//	                                   N_wk/den_k is stored per list
//	                                   entry, count-descending so the
//	                                   walk usually ends on entry one
//
// so a unigram draw costs O(K_w) plus the walk of the bucket the
// uniform lands in, never O(K).
//
// A phrase clique of length W keeps the exact product
//
//	p(k) ∝ Π_{j<W} (α_k+N_dk+j)·(β+N_{w_j,k})/(den_k+j)
//
// which on every topic outside the candidate set C = {N_dk > 0} ∪
// ⋃_j {N_{w_j,k} > 0} collapses to the all-counts-zero term
// T_W(k) = Π_j (α_k+j)·β/(den_k+j), another constant of the model.
// Because counts only ever raise the product, p(k) ≥ T_W(k), and the
// conditional is again a sum of two non-negative buckets
//
//	p(k) = T_W(k)                    all K topics: prefix-sum search
//	     + (p(k) − T_W(k))           candidates only: exact Eq. 7
//
// at O(W·|C|) per draw. T_W, its prefix sums and its total are kept
// for every W up to the longest phrase the segmenter can emit.
//
// Numeric hazards have one answer each: r is rebuilt at every sweep
// start so drift never outlives a sweep; a draw whose total mass is not
// positive and finite, or whose clique is longer than the tables,
// evaluates that one draw with the full O(K) conditional (drawExact).

// wordTopic is one non-zero cell of the frozen topic-word matrix.
type wordTopic struct {
	k int32   // topic
	n int32   // N_wk
	f float64 // N_wk / (Σβ + N_k): the q-bucket coefficient
}

// InferIndex is the read-only inference view of a trained model. It
// owns everything it reads — a copy of α, the per-word non-zero topic
// lists and the per-length smoothing tables — and keeps no pointer
// into the Model it was built from, so later training on that Model
// never shows through. Safe for concurrent use.
type InferIndex struct {
	k        int
	alpha    []float64
	alphaSum float64
	beta     float64
	invBeta  float64
	den      []float64 // [k] Σβ + N_k
	bden     []float64 // [k] β / (Σβ + N_k): the r-bucket coefficient

	// Word w's cells are ent[off[w]:off[w+1]], count-descending.
	off []uint32
	ent []wordTopic

	// Smoothing tables, indexed by clique length W in 1..len-1.
	term    [][]float64 // [W][k] T_W(k)
	pre     [][]float64 // [W][k] Σ_{i≤k} T_W(i)
	betaPow []float64   // [W] β^W
}

// NewInferIndex builds the index from m's priors and its sparse N_wk
// (EncodeFlat's nwk section): a frozen model's as decoded, so a cold
// load never builds the V×K rows, or one walk over a trained model's.
// maxLen is the longest clique the tables cover (at least 1); longer
// cliques are still sampled exactly, at O(K) per draw.
func NewInferIndex(m *Model, maxLen int) *InferIndex {
	if maxLen < 1 {
		maxLen = 1
	}
	K := m.K
	nwk := m.sparseNwk()
	ix := &InferIndex{
		k:        K,
		alpha:    append([]float64(nil), m.Alpha...),
		alphaSum: m.AlphaSum,
		beta:     m.Beta,
		invBeta:  1 / m.Beta,
		den:      make([]float64, K),
		bden:     make([]float64, K),
		off:      make([]uint32, m.V+1),
		// Past each word's count byte, a cell takes at least two bytes.
		ent: make([]wordTopic, 0, max(len(nwk)-m.V, 0)/2),
	}
	for k := range ix.den {
		ix.den[k] = m.BetaSum + float64(m.Nk[k])
		ix.bden[k] = m.Beta / ix.den[k]
	}
	// Cells come in (word, topic) order; off[w+1] first counts word w's
	// cells, then becomes their end offset. The walk cannot fail: a
	// decoded section was checked, and trained counts are not negative.
	ent, off, den := ix.ent, ix.off, ix.den
	eachCount(nwk, m.V, K, func(w, k int, c int32) {
		ent = append(ent, wordTopic{int32(k), c, float64(c) / den[k]})
		off[w+1]++
	})
	ix.ent = ent
	for w := 0; w < m.V; w++ {
		ix.off[w+1] += ix.off[w]
		// Count-descending, ties in topic order: lists are two or
		// three entries long, so an insertion sort.
		list := ix.list(int32(w))
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && list[j-1].n < list[j].n; j-- {
				list[j-1], list[j] = list[j], list[j-1]
			}
		}
	}

	ix.term = make([][]float64, maxLen+1)
	ix.pre = make([][]float64, maxLen+1)
	ix.betaPow = make([]float64, maxLen+1)
	ix.betaPow[0] = 1
	tables := make([]float64, 2*maxLen*K)
	for W := 1; W <= maxLen; W++ {
		ix.betaPow[W] = ix.betaPow[W-1] * m.Beta
		term, pre := tables[:K:K], tables[K:2*K:2*K]
		tables = tables[2*K:]
		fj, sum := float64(W-1), 0.0
		for k := range term {
			t := (ix.alpha[k] + fj) * m.Beta / (ix.den[k] + fj)
			if W > 1 {
				t *= ix.term[W-1][k]
			}
			sum += t
			term[k], pre[k] = t, sum
		}
		ix.term[W], ix.pre[W] = term, pre
	}
	return ix
}

// NumTopics returns K.
func (ix *InferIndex) NumTopics() int { return ix.k }

// list returns word w's non-zero cells.
func (ix *InferIndex) list(w int32) []wordTopic {
	return ix.ent[ix.off[w]:ix.off[w+1]]
}

// InferScratch holds the per-call working memory of InferTheta so a
// serving layer can pool it across requests instead of allocating it
// per inference. The zero value is ready to use; a scratch adapts
// itself to any index/document shape, so one pool can serve models of
// different K. Not safe for concurrent use.
type InferScratch struct {
	rng xrand.RNG
	z   []int32 // [g] clique assignments
	ndk []int32 // [k] the document's topic counts
	nd  int32   // tokens in the document

	// The document's non-zero topics and, for those, their index in
	// the list (pos[k] is meaningful only while ndk[k] > 0).
	topics []int32
	pos    []int32
	r      float64   // document-bucket mass Σ N_dk·β/den_k
	acc    []float64 // [k] Σ over sampling sweeps of N_dk

	// Phrase-clique scratch: candidate topics, their bucket masses,
	// per-topic stamps and word factors Π_j (β+N_{w_j,k})/β.
	cand  []int32
	cw    []float64
	mark  []int64
	stamp int64
	wf    []float64

	weights []float64 // drawExact's dense conditional
}

// grow returns a zeroed slice of length n, reusing s's backing array
// when it is large enough.
func grow[T int32 | int64 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// InferTheta folds an unseen document into the trained model: the
// topic-word counts stay fixed while the document's clique assignments
// are Gibbs-sampled for iters sweeps (plus an equal burn-in), and the
// returned vector is the posterior-mean topic mixture averaged over
// the sampling half. Word ids must be below the model's V.
//
// Burn-in contract: one call runs exactly 2×iters full Gibbs sweeps —
// iters discarded as burn-in, then iters contributing samples. Anyone
// budgeting CPU per call (e.g. a serving layer capping request work)
// must count 2×iters sweeps, not iters. iters ≤ 0 means 50; an iters
// whose doubling overflows int runs no sweeps and returns the mixture
// of the seeded initial assignment.
//
// Working memory comes from s (allocated internally when nil). The
// returned mixture is always a fresh slice — the only allocation when a
// scratch is supplied — so callers may retain it while recycling s.
// The result is a pure function of (index, cliques, iters, seed).
func (ix *InferIndex) InferTheta(cliques [][]int32, iters int, seed uint64, s *InferScratch) []float64 {
	if iters <= 0 {
		iters = 50
	}
	if s == nil {
		s = &InferScratch{}
	}
	ix.begin(s, cliques, seed)
	samples := 0
	if iters <= math.MaxInt/2 {
		for it := 0; it < 2*iters; it++ {
			ix.sweep(s, cliques)
			if it >= iters {
				s.accumulate()
				samples++
			}
		}
	}
	if samples == 0 {
		s.accumulate()
		samples = 1
	}
	out := make([]float64, ix.k)
	denom := float64(s.nd) + ix.alphaSum
	for k := range out {
		out[k] = (s.acc[k]/float64(samples) + ix.alpha[k]) / denom
	}
	return out
}

// accumulate adds the current N_dk to the θ accumulator, touching the
// document's non-zero topics only.
func (s *InferScratch) accumulate() {
	for _, k := range s.topics {
		s.acc[k] += float64(s.ndk[k])
	}
}

// begin sizes the scratch for this index and document and draws the
// seeded uniform initial assignment.
func (ix *InferIndex) begin(s *InferScratch, cliques [][]int32, seed uint64) {
	K := ix.k
	s.rng.Seed(seed)
	s.z = grow(s.z, len(cliques))
	s.ndk = grow(s.ndk, K)
	s.pos = grow(s.pos, K)
	s.acc = grow(s.acc, K)
	s.mark = grow(s.mark, K)
	s.wf = grow(s.wf, K)
	s.topics = s.topics[:0]
	s.nd, s.r, s.stamp = 0, 0, 0
	for g, clique := range cliques {
		k := int32(s.rng.Intn(K))
		s.z[g] = k
		if W := int32(len(clique)); W > 0 {
			ix.add(s, k, W)
			s.nd += W
		}
	}
}

// add assigns w > 0 tokens of the document to topic k, patching the
// topic list and the document bucket.
func (ix *InferIndex) add(s *InferScratch, k, w int32) {
	if s.ndk[k] == 0 {
		s.pos[k] = int32(len(s.topics))
		s.topics = append(s.topics, k)
	}
	s.ndk[k] += w
	s.r += float64(w) * ix.bden[k]
}

// remove takes w > 0 tokens of the document back from topic k.
func (ix *InferIndex) remove(s *InferScratch, k, w int32) {
	s.ndk[k] -= w
	s.r -= float64(w) * ix.bden[k]
	if s.ndk[k] == 0 {
		last := len(s.topics) - 1
		moved := s.topics[last]
		s.topics[s.pos[k]] = moved
		s.pos[moved] = s.pos[k]
		s.topics = s.topics[:last]
		if last == 0 {
			s.r = 0
		}
	}
}

// sweep resamples every clique once. An empty clique carries no tokens
// and is left alone. The document bucket is rebuilt from the topic list
// first, so rounding in its per-draw patches never outlives a sweep.
func (ix *InferIndex) sweep(s *InferScratch, cliques [][]int32) {
	s.r = 0
	for _, k := range s.topics {
		s.r += float64(s.ndk[k]) * ix.bden[k]
	}
	for g, clique := range cliques {
		W := int32(len(clique))
		if W == 0 {
			continue
		}
		ix.remove(s, s.z[g], W)
		k := ix.draw(s, clique)
		s.z[g] = k
		ix.add(s, k, W)
	}
}

// draw samples the topic of a (removed, non-empty) clique from its
// conditional given the rest of the document.
func (ix *InferIndex) draw(s *InferScratch, clique []int32) int32 {
	switch W := len(clique); {
	case W == 1:
		return ix.drawUnigram(s, clique)
	case W < len(ix.term):
		return ix.drawPhrase(s, clique)
	default:
		return ix.drawExact(s, clique)
	}
}

// usable reports whether a bucket total can be drawn from.
func usable(total float64) bool { return total > 0 && !math.IsInf(total, 1) }

// drawUnigram draws from the s/r/q decomposition of the W=1
// conditional.
func (ix *InferIndex) drawUnigram(s *InferScratch, clique []int32) int32 {
	list := ix.list(clique[0])
	var q float64
	for i := range list {
		e := &list[i]
		q += (ix.alpha[e.k] + float64(s.ndk[e.k])) * e.f
	}
	pre := ix.pre[1]
	total := q + s.r + pre[len(pre)-1]
	if !usable(total) {
		return ix.drawExact(s, clique)
	}
	u := s.rng.Float64() * total
	if u < q {
		for i := range list {
			e := &list[i]
			u -= (ix.alpha[e.k] + float64(s.ndk[e.k])) * e.f
			if u < 0 {
				return e.k
			}
		}
		return list[len(list)-1].k // float slack
	}
	u -= q
	if u < s.r && len(s.topics) > 0 {
		for _, k := range s.topics {
			u -= float64(s.ndk[k]) * ix.bden[k]
			if u < 0 {
				return k
			}
		}
		return s.topics[len(s.topics)-1] // float slack
	}
	return searchPrefix(pre, u-s.r)
}

// phraseBuckets evaluates a W>1 clique's candidate bucket: it leaves
// the candidate topics in s.cand, each one's mass p(k) − T_W(k) in
// s.cw, and returns their sum.
func (ix *InferIndex) phraseBuckets(s *InferScratch, clique []int32) float64 {
	s.stamp++
	st := s.stamp
	cand := s.cand[:0]
	for _, k := range s.topics {
		s.mark[k], s.wf[k] = st, 1
		cand = append(cand, k)
	}
	for _, w := range clique {
		for _, e := range ix.list(w) {
			if s.mark[e.k] != st {
				s.mark[e.k], s.wf[e.k] = st, 1
				cand = append(cand, e.k)
			}
			s.wf[e.k] *= (ix.beta + float64(e.n)) * ix.invBeta
		}
	}
	W := len(clique)
	term, bw := ix.term[W], ix.betaPow[W]
	cw := s.cw[:0]
	var sum float64
	for _, k := range cand {
		a, den := ix.alpha[k]+float64(s.ndk[k]), ix.den[k]
		num, dp := a, den
		for j := 1; j < W; j++ {
			fj := float64(j)
			num *= a + fj
			dp *= den + fj
		}
		x := num*bw*s.wf[k]/dp - term[k]
		if x < 0 {
			x = 0 // rounding only: counts never lower the product
		}
		cw = append(cw, x)
		sum += x
	}
	s.cand, s.cw = cand, cw
	return sum
}

// drawPhrase draws a W>1 clique's topic from the smoothing bucket T_W
// plus the candidates' excess over it.
func (ix *InferIndex) drawPhrase(s *InferScratch, clique []int32) int32 {
	x := ix.phraseBuckets(s, clique)
	pre := ix.pre[len(clique)]
	total := x + pre[len(pre)-1]
	if !usable(total) {
		return ix.drawExact(s, clique)
	}
	u := s.rng.Float64() * total
	if u < x {
		for i, p := range s.cw {
			u -= p
			if u < 0 {
				return s.cand[i]
			}
		}
		return s.cand[len(s.cand)-1] // float slack
	}
	return searchPrefix(pre, u-x)
}

// exactWeights fills s.weights with the full Eq. 7 conditional of a
// (removed) clique, one word at a time so that no partial product
// leaves the range of the finished one.
func (ix *InferIndex) exactWeights(s *InferScratch, clique []int32) []float64 {
	if cap(s.weights) < ix.k {
		s.weights = make([]float64, ix.k)
	}
	w := s.weights[:ix.k]
	for k := range w {
		w[k] = 1
	}
	for j, word := range clique {
		fj := float64(j)
		for k := range w {
			w[k] *= (ix.alpha[k] + float64(s.ndk[k]) + fj) * ix.beta / (ix.den[k] + fj)
		}
		for _, e := range ix.list(word) {
			w[e.k] *= (ix.beta + float64(e.n)) * ix.invBeta
		}
	}
	return w
}

// drawExact is the O(K) guard: one draw from the dense conditional,
// for cliques beyond the tables and for bucket totals that are not
// positive and finite. Priors no training run produces (a decoded α or
// β that is zero, negative, NaN or large enough to overflow) can leave
// even the dense conditional without a positive finite total; the draw
// is then uniform instead of a panic.
func (ix *InferIndex) drawExact(s *InferScratch, clique []int32) int32 {
	w := ix.exactWeights(s, clique)
	total := 0.0
	for _, x := range w {
		total += x
	}
	if !usable(total) {
		return int32(s.rng.Intn(ix.k))
	}
	return int32(s.rng.Categorical(w))
}

// searchPrefix returns the first index whose prefix sum exceeds u, or
// the last index when float slack leaves u at or beyond the total.
func searchPrefix(pre []float64, u float64) int32 {
	lo, hi := 0, len(pre)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pre[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int32(lo)
}

// BestTopic returns the argmax of a topic mixture.
func BestTopic(theta []float64) int {
	best, bestV := 0, -1.0
	for k, v := range theta {
		if v > bestV {
			best, bestV = k, v
		}
	}
	return best
}
