package topicmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"topmine/internal/xrand"
)

// Sparse bucketed Gibbs sampling in the style of SparseLDA (Yao,
// Mimno, McCallum: "Efficient Methods for Topic Model Inference on
// Streaming Document Collections", KDD 2009), generalised to
// PhraseLDA's clique conditional (Eq. 7 of the paper). This is the one
// sampling kernel of the package: Sweep, SweepParallel and ShardSweep
// all draw through it.
//
// For a unigram clique the conditional factors into three buckets
//
//	p(k) ∝ α_k·β/(Σβ+N_k)            s, smoothing: dense but tiny mass
//	     + N_dk·β/(Σβ+N_k)           r, document: nonzero only on K_d topics
//	     + (α_k+N_dk)·N_wk/(Σβ+N_k)  q, word: nonzero only on K_w topics
//
// so a draw costs O(K_d + K_w) after maintaining the bucket masses
// incrementally: the smoothing mass changes only through N_k (two
// topics per draw); the document mass is summed over the document's
// own topics on entry — found from its assignments and visited in
// ascending order, O(K_d log K_d), no loop over K — and patched per
// draw; and the word bucket walks word w's nonzero topic list, kept as
// packed (count<<32|topic) entries in decreasing count order so the
// walk usually stops after one or two entries, computing each
// coefficient (α_k+N_dk)/(Σβ+N_k) where it reads it.
//
// A phrase clique of length W keeps the exact Eq. 7 product but only
// evaluates it on the candidate topics where it can differ from the
// "all counts zero" baseline — the document's nonzero topics plus
// each clique word's nonzero topics. All other topics share the
// precomputed smoothing mass S_W = Σ_k Π_j (α_k+j)·β/(Σβ+N_k+j),
// one such mass per clique length present in the corpus.
//
// The per-length masses are not patched eagerly on every draw (that
// would cost a division per maintained length per count change, most
// of it wasted on the unigram draws that dominate a sweep). Instead
// every N_k change is appended to a journal, and a draw of length W
// catches its mass up by replaying the journal entries it has not
// seen — re-deriving the per-topic term and folding the difference
// into S_W — or recomputing from scratch when the backlog exceeds K.
//
// All masses are floating-point accumulators, so they are recomputed
// at every sweep start (which also absorbs hyperparameter updates)
// and guarded during sampling: a draw whose total mass is not a
// positive finite number is answered by exactDraw, one dense O(K)
// evaluation of Eq. 7 over the same counts, which is always exact.
//
// The sampler reads and writes counts through a view. The model's own
// sampler (the serial sweep) is bound to the model's arenas, packed
// lists, N_k and RNG. A parallel worker is the same sampler over a
// copy-on-touch overlay with a private N_k and its own RNG stream; see
// parallel.go.

// sparseSampler carries the incremental state of a sparse sweep over
// one view of the counts.
type sparseSampler struct {
	m   *Model
	rng *xrand.RNG // the stream draws consume: the model's, or a worker's own
	nk  []int64    // N_k of the view: the model's Nk, or a worker's private copy
	ov  *overlay   // nil: the view is the model's arenas and wt

	// The global word-topic index, on the model's own sampler only. It
	// stays live across parallel and distributed barriers (the fold
	// rebuilds the lists of the rows it walks); paths that edit Nwk
	// behind it call invalidateSparse.
	valid bool       // wt mirrors Nwk
	wt    [][]uint64 // per word: packed (count<<32 | topic), count-descending

	lengths []int       // distinct clique lengths in the corpus, ascending
	betaPow []float64   // [W] β^W, refreshed per sweep
	aprod   [][]float64 // [W][k] Π_{j<W} (α_k+j), refreshed per sweep
	smooth  []float64   // [W] smoothing-bucket mass S_W (0 for absent W)
	term    [][]float64 // [W][k] the term of k folded into smooth[W]
	invden  []float64   // [k] 1/(Σβ+N_k), patched on every count change
	nkLog   []int32     // journal of topics whose N_k changed this sweep
	cursor  []int       // [W] nkLog prefix already folded into smooth[W]

	// Per-document state, set by beginDoc in O(K_d).
	ndkRow    []int32 // current doc's count row
	docR      float64 // document-bucket mass (unigram cliques)
	docTopics []int32 // topics with N_dk > 0
	docPos    []int32 // [k] index into docTopics; meaningful for its members only

	// The clique at hand, resolved in the view once per draw by bind.
	rows  [][]int32  // per-word count rows
	slots []int32    // per-word index into lists
	lists [][]uint64 // the view's packed lists: wt, or the overlay's

	// Per-draw scratch.
	cand    []int32
	cw      []float64
	mark    []int64 // [k] stamp marks
	stamp   int64
	weights []float64 // [k] exactDraw's dense weights, allocated on first use

	draws DrawStats // where this sweep's draws landed
}

// DrawStats counts where one sweep's draws landed: the sampler-health
// reading behind SweepStats. A unigram draw lands in the smoothing (s),
// document (r) or word (q) bucket; a phrase draw on a candidate topic
// or in the rest mass; Exact counts draws of either kind answered by
// the dense guard instead.
type DrawStats struct {
	Smooth, Doc, Word int64
	Cand, Rest        int64
	Exact             int64
}

func (a *DrawStats) add(b DrawStats) {
	a.Smooth += b.Smooth
	a.Doc += b.Doc
	a.Word += b.Word
	a.Cand += b.Cand
	a.Rest += b.Rest
	a.Exact += b.Exact
}

// cliqueLengths returns the distinct clique lengths in docs, ascending.
func cliqueLengths(docs []Doc) []int {
	seen := make(map[int]bool)
	for d := range docs {
		for _, c := range docs[d].Cliques {
			seen[len(c)] = true
		}
	}
	lengths := make([]int, 0, len(seen))
	for l := range seen {
		lengths = append(lengths, l)
	}
	slices.Sort(lengths)
	return lengths
}

// newSparseSampler allocates a sampler for m's shape and the given
// clique lengths, bound to no view yet.
func newSparseSampler(m *Model, lengths []int) *sparseSampler {
	sp := &sparseSampler{
		m:       m,
		lengths: lengths,
		invden:  make([]float64, m.K),
		docPos:  make([]int32, m.K),
		mark:    make([]int64, m.K),
	}
	maxW := 0
	if n := len(lengths); n > 0 {
		maxW = lengths[n-1]
	}
	sp.smooth = make([]float64, maxW+1)
	sp.betaPow = make([]float64, maxW+1)
	sp.aprod = make([][]float64, maxW+1)
	sp.term = make([][]float64, maxW+1)
	sp.cursor = make([]int, maxW+1)
	for _, l := range lengths {
		sp.aprod[l] = make([]float64, m.K)
		sp.term[l] = make([]float64, m.K)
	}
	sp.rows = make([][]int32, maxW)
	sp.slots = make([]int32, maxW)
	return sp
}

// ensureSparse returns the model's own sampler with its word-topic
// index in sync with the count matrices, building whatever is stale.
func (m *Model) ensureSparse() *sparseSampler {
	m.Materialize()
	if m.sp == nil {
		m.sp = newSparseSampler(m, cliqueLengths(m.Docs))
	}
	if !m.sp.valid {
		m.sp.buildWordLists()
	}
	return m.sp
}

// invalidateSparse marks the word-topic index stale; any path that
// mutates Nwk without maintaining the index must call it.
func (m *Model) invalidateSparse() {
	if m.sp != nil {
		m.sp.valid = false
	}
}

// buildWordLists materialises the packed per-word nonzero topic lists
// from the count matrix: one O(V·K) scan, paid on the first sparse or
// parallel sweep and after a path that edited Nwk behind the index.
func (sp *sparseSampler) buildWordLists() {
	m := sp.m
	if sp.wt == nil {
		sp.wt = make([][]uint64, m.V)
	}
	for w := range sp.wt {
		sp.wt[w], _ = packRow(sp.wt[w][:0], m.nwkRow(int32(w)))
	}
	sp.valid = true
}

// packRow appends row's positive cells to list as packed entries in
// descending packed order — descending count, frequent topics first so
// bucket walks exit early — and reports whether any cell is negative.
// Entries are distinct, so the order is a pure function of the counts:
// a list rebuilt at a barrier is the same in every process that holds
// the same row.
func packRow(list []uint64, row []int32) ([]uint64, bool) {
	var or int32
	for k, c := range row {
		or |= c
		if c > 0 {
			list = append(list, uint64(c)<<32|uint64(k))
		}
	}
	slices.SortFunc(list, func(a, b uint64) int { return cmp.Compare(b, a) })
	return list, or < 0
}

// checkWordLists verifies the packed index against the count matrix:
// every list holds exactly its row's positive cells, in non-increasing
// count order. Used by Model.CheckInvariants.
func (sp *sparseSampler) checkWordLists() error {
	m := sp.m
	for w := 0; w < m.V; w++ {
		row := m.nwkRow(int32(w))
		nnz := 0
		for _, c := range row {
			if c > 0 {
				nnz++
			}
		}
		if nnz != len(sp.wt[w]) {
			return fmt.Errorf("sparse index: word %d has %d entries, counts say %d", w, len(sp.wt[w]), nnz)
		}
		for i, e := range sp.wt[w] {
			k := uint32(e)
			if int(k) >= m.K || row[k] != int32(e>>32) {
				return fmt.Errorf("sparse index: word %d topic %d listed as %d, counts say %d",
					w, k, e>>32, row[k])
			}
			if i > 0 && e>>32 > sp.wt[w][i-1]>>32 {
				return fmt.Errorf("sparse index: word %d lists count %d after %d", w, e>>32, sp.wt[w][i-1]>>32)
			}
		}
	}
	return nil
}

// refresh recomputes every maintained mass from the current counts
// and priors — run at each sweep start so hyperparameter updates and
// within-sweep floating-point drift never outlive a sweep.
func (sp *sparseSampler) refresh() {
	m := sp.m
	for k := 0; k < m.K; k++ {
		sp.invden[k] = 1 / (m.BetaSum + float64(sp.nk[k]))
	}
	sp.nkLog = sp.nkLog[:0]
	sp.draws = DrawStats{}
	for _, W := range sp.lengths {
		bp := 1.0
		for j := 0; j < W; j++ {
			bp *= m.Beta
		}
		sp.betaPow[W] = bp
		ap := sp.aprod[W]
		for k := 0; k < m.K; k++ {
			a := 1.0
			for j := 0; j < W; j++ {
				a *= m.Alpha[k] + float64(j)
			}
			ap[k] = a
		}
		sp.recomputeSmooth(W)
	}
}

// recomputeSmooth rebuilds S_W and its per-topic terms from scratch
// and marks the whole journal as seen by length W.
func (sp *sparseSampler) recomputeSmooth(W int) {
	m := sp.m
	ap, bp, tm := sp.aprod[W], sp.betaPow[W], sp.term[W]
	total := 0.0
	if W == 1 {
		for k := 0; k < m.K; k++ {
			t := ap[k] * bp * sp.invden[k]
			tm[k] = t
			total += t
		}
	} else {
		for k := 0; k < m.K; k++ {
			t := ap[k] * bp / denProd(m.BetaSum+float64(sp.nk[k]), W)
			tm[k] = t
			total += t
		}
	}
	sp.smooth[W] = total
	sp.cursor[W] = len(sp.nkLog)
}

// catchUp folds every journaled N_k change that length W has not seen
// into S_W. Replay cost is the backlog length with an O(K) full
// recompute cap, so a sweep's total catch-up work is bounded by
// O(changes × lengths) no matter how draws interleave.
func (sp *sparseSampler) catchUp(W int) {
	cur := sp.cursor[W]
	if cur == len(sp.nkLog) {
		return
	}
	if len(sp.nkLog)-cur >= sp.m.K {
		sp.recomputeSmooth(W)
		return
	}
	m := sp.m
	ap, bp, tm := sp.aprod[W], sp.betaPow[W], sp.term[W]
	s := sp.smooth[W]
	if W == 1 {
		for _, k := range sp.nkLog[cur:] {
			t := ap[k] * bp * sp.invden[k]
			s += t - tm[k]
			tm[k] = t
		}
	} else {
		for _, k := range sp.nkLog[cur:] {
			t := ap[k] * bp / denProd(m.BetaSum+float64(sp.nk[k]), W)
			s += t - tm[k]
			tm[k] = t
		}
	}
	sp.smooth[W] = s
	sp.cursor[W] = len(sp.nkLog)
}

// denProd returns Π_{j<W} (den + j), the denominator chain of Eq. 7.
func denProd(den float64, W int) float64 {
	p := den
	for j := 1; j < W; j++ {
		p *= den + float64(j)
	}
	return p
}

// sweepSparse is Model.Sweep's default implementation: the model's own
// sampler over the model's own counts.
func (m *Model) sweepSparse() DrawStats {
	sp := m.ensureSparse()
	sp.nk, sp.rng = m.Nk, m.rng
	sp.sweepDocs(0, len(m.Docs))
	return sp.draws
}

// sweepDocs resamples every clique of documents [lo, hi) once, in
// order, against the view the sampler is bound to.
func (sp *sparseSampler) sweepDocs(lo, hi int) {
	sp.refresh()
	for d := lo; d < hi; d++ {
		if len(sp.m.Docs[d].Cliques) == 0 {
			continue
		}
		sp.beginDoc(d)
		for g := range sp.m.Docs[d].Cliques {
			sp.sample(d, g)
		}
	}
}

// beginDoc sets the per-document state in O(K_d): the document's
// topics are collected from its assignments, not found by a scan of its
// count row, and visited in ascending order — the order (and so the
// floating-point sum) a scan over all K topics would produce.
func (sp *sparseSampler) beginDoc(d int) {
	m := sp.m
	sp.ndkRow = m.ndkRow(d)
	sp.stamp++
	topics := sp.docTopics[:0]
	for _, k := range m.Z[d] {
		// (N_dk can be 0 for an assigned topic: an empty clique.)
		if sp.mark[k] != sp.stamp && sp.ndkRow[k] > 0 {
			sp.mark[k] = sp.stamp
			topics = append(topics, k)
		}
	}
	slices.Sort(topics)
	r := 0.0
	for i, k := range topics {
		sp.docPos[k] = int32(i)
		r += float64(sp.ndkRow[k]) * m.Beta * sp.invden[k]
	}
	sp.docTopics, sp.docR = topics, r
}

// sample resamples clique g of the current document d.
func (sp *sparseSampler) sample(d, g int) {
	m := sp.m
	clique := m.Docs[d].Cliques[g]
	sp.bind(clique)
	sp.apply(m.Z[d][g], -1)
	var k int32
	if len(clique) == 1 {
		k = sp.drawUnigram()
	} else {
		k = sp.drawPhrase()
	}
	m.Z[d][g] = k
	sp.apply(k, 1)
}

// bind resolves the clique's words in the sampler's view — count row
// and packed-list slot of each — for the removal, the draw and the
// re-insertion that follow. A worker copies the frozen global row and
// list of a word into its overlay the first time a sweep binds it, so
// every row a draw reads or edits is the worker's own.
func (sp *sparseSampler) bind(clique []int32) {
	rows, slots := sp.rows[:0], sp.slots[:0]
	if ov := sp.ov; ov != nil {
		for _, w := range clique {
			ri := ov.rowOf[w]
			if ri < 0 {
				ri = ov.touch(sp.m, w)
			}
			rows = append(rows, ov.rows[ri])
			slots = append(slots, ri)
		}
		sp.lists = ov.lists // after the touches: they may have grown it
	} else {
		for _, w := range clique {
			rows = append(rows, sp.m.nwkRow(w))
			slots = append(slots, w)
		}
		sp.lists = sp.wt
	}
	sp.rows, sp.slots = rows, slots
}

// apply adds (sign=+1) or removes (sign=-1) the bound clique's counts
// for topic k in the current document, patching the view's counts and
// packed lists, the reciprocal denominator and the document bucket,
// and journaling the N_k change for the lazily maintained smoothing
// masses. Cost: O(W) plus one division.
func (sp *sparseSampler) apply(k int32, sign int32) {
	m := sp.m
	ki := int(k)
	w := int32(len(sp.rows))
	oldNdk := sp.ndkRow[ki]
	newNdk := oldNdk + sign*w

	sp.ndkRow[ki] = newNdk
	sp.nk[ki] += int64(sign) * int64(w)
	lists := sp.lists
	if sign > 0 {
		for j, row := range sp.rows {
			row[ki]++
			lists[sp.slots[j]] = wtInc(lists[sp.slots[j]], uint32(k))
		}
	} else {
		for j, row := range sp.rows {
			row[ki]--
			lists[sp.slots[j]] = wtDec(lists[sp.slots[j]], uint32(k))
		}
	}

	// Document topic list membership.
	switch {
	case oldNdk == 0 && newNdk > 0:
		sp.docPos[ki] = int32(len(sp.docTopics))
		sp.docTopics = append(sp.docTopics, k)
	case oldNdk > 0 && newNdk == 0:
		pos := sp.docPos[ki]
		last := int32(len(sp.docTopics) - 1)
		moved := sp.docTopics[last]
		sp.docTopics[pos] = moved
		sp.docPos[moved] = pos
		sp.docTopics = sp.docTopics[:last]
	}

	oldInv := sp.invden[ki]
	newInv := 1 / (m.BetaSum + float64(sp.nk[ki]))
	sp.invden[ki] = newInv
	sp.nkLog = append(sp.nkLog, k)
	if len(sp.nkLog) >= 4*m.K {
		sp.compactLog()
	}
	sp.docR += float64(newNdk)*m.Beta*newInv - float64(oldNdk)*m.Beta*oldInv
}

// compactLog bounds the journal: entries more than K behind every
// cursor can never be replayed (catchUp recomputes from scratch at
// that backlog), so once the log reaches a few K the lengths are all
// folded up to date and the log reset. This keeps the journal O(K)
// for the model's lifetime instead of O(cliques) per sweep, at an
// amortised O(#lengths) cost per draw.
func (sp *sparseSampler) compactLog() {
	for _, W := range sp.lengths {
		sp.catchUp(W)
	}
	sp.nkLog = sp.nkLog[:0]
	for _, W := range sp.lengths {
		sp.cursor[W] = 0
	}
}

// drawUnigram draws from the three-bucket decomposition of the W=1
// conditional. Cost: O(K_w) for the word-bucket mass plus the walk of
// whichever bucket the uniform lands in; the O(K) smoothing walk is
// hit with probability s/(s+r+q), which is tiny on trained models.
func (sp *sparseSampler) drawUnigram() int32 {
	m := sp.m
	sp.catchUp(1)
	list := sp.lists[sp.slots[0]]
	cw := sp.cw[:0]
	var q float64
	for _, e := range list {
		k := uint32(e)
		c := float64(e>>32) * ((m.Alpha[k] + float64(sp.ndkRow[k])) * sp.invden[k])
		cw = append(cw, c)
		q += c
	}
	sp.cw = cw
	total := q + sp.docR + sp.smooth[1]
	if !(total > 0) || math.IsInf(total, 1) || math.IsNaN(total) {
		return sp.exactDraw()
	}
	u := sp.rng.Float64() * total
	if u < q {
		sp.draws.Word++
		for i, c := range cw {
			u -= c
			if u < 0 {
				return int32(uint32(list[i]))
			}
		}
		return int32(uint32(list[len(list)-1])) // float slack
	}
	u -= q
	if u < sp.docR && len(sp.docTopics) > 0 {
		sp.draws.Doc++
		for _, k := range sp.docTopics {
			u -= float64(sp.ndkRow[k]) * m.Beta * sp.invden[k]
			if u < 0 {
				return k
			}
		}
		return sp.docTopics[len(sp.docTopics)-1] // float slack
	}
	sp.draws.Smooth++
	u -= sp.docR
	tm := sp.term[1]
	for k := 0; k < m.K; k++ {
		u -= tm[k]
		if u < 0 {
			return int32(k)
		}
	}
	return int32(m.K - 1) // float slack: every topic has smoothing mass
}

// drawPhrase draws a W>1 clique's topic: the exact Eq. 7 product on
// the candidate topics (document nonzeros ∪ each word's nonzeros),
// the caught-up smoothing mass S_W for everything else.
func (sp *sparseSampler) drawPhrase() int32 {
	m := sp.m
	rows := sp.rows
	W := len(rows)
	sp.catchUp(W)
	sp.stamp++
	st := sp.stamp
	cand := sp.cand[:0]
	for _, k := range sp.docTopics {
		sp.mark[k] = st
		cand = append(cand, k)
	}
	for _, slot := range sp.slots {
		for _, e := range sp.lists[slot] {
			k := int32(uint32(e))
			if sp.mark[k] != st {
				sp.mark[k] = st
				cand = append(cand, k)
			}
		}
	}
	sp.cand = cand

	tm := sp.term[W]
	cw := sp.cw[:0]
	var psum, corr float64
	for _, k := range cand {
		akn := m.Alpha[k] + float64(sp.ndkRow[k])
		den := m.BetaSum + float64(sp.nk[k])
		p := 1.0
		for j := range rows {
			fj := float64(j)
			p *= (akn + fj) * (m.Beta + float64(rows[j][k])) / (den + fj)
		}
		cw = append(cw, p)
		psum += p
		corr += tm[k]
	}
	sp.cw = cw
	rest := sp.smooth[W] - corr
	if rest < 0 {
		rest = 0 // candidates held the entire maintained mass; drift guard
	}
	total := psum + rest
	if !(total > 0) || math.IsInf(total, 1) || math.IsNaN(total) {
		return sp.exactDraw()
	}
	u := sp.rng.Float64() * total
	if u < psum {
		sp.draws.Cand++
		for i, p := range cw {
			u -= p
			if u < 0 {
				return cand[i]
			}
		}
		return cand[len(cand)-1] // float slack
	}
	sp.draws.Rest++
	u -= psum
	for k := 0; k < m.K; k++ {
		if sp.mark[k] == st {
			continue
		}
		u -= tm[k]
		if u < 0 {
			return int32(k)
		}
	}
	for k := m.K - 1; k >= 0; k-- { // float slack: last non-candidate
		if sp.mark[k] != st {
			return int32(k)
		}
	}
	return cand[len(cand)-1] // every topic was a candidate
}

// exactDraw is the guard: one draw from the full O(K) conditional of
// the bound (already removed) clique in the current document,
// evaluated over the sampler's own view — its count rows, its N_k —
// with its own RNG. It is reached only when the maintained masses
// cannot produce a positive finite total: degenerate priors, drift at
// the edge of float range.
func (sp *sparseSampler) exactDraw() int32 {
	sp.draws.Exact++
	if sp.weights == nil {
		sp.weights = make([]float64, sp.m.K)
	}
	sp.m.eq7Weights(sp.weights, sp.ndkRow, sp.rows, sp.nk)
	return int32(sp.rng.Categorical(sp.weights))
}

// wtInc bumps topic k in a packed word-topic list, inserting it at
// count 1 if absent, and restores decreasing-count order by bubbling
// the entry left past its equals — O(distance moved), usually O(1).
func wtInc(list []uint64, k uint32) []uint64 {
	for i, e := range list {
		if uint32(e) == k {
			e += 1 << 32
			for i > 0 && list[i-1] < e {
				list[i] = list[i-1]
				i--
			}
			list[i] = e
			return list
		}
	}
	return append(list, 1<<32|uint64(k))
}

// wtDec decrements topic k, dropping the entry when its count reaches
// zero (swap-with-last: the tail of the list holds the minimal
// counts) and bubbling right otherwise.
func wtDec(list []uint64, k uint32) []uint64 {
	for i, e := range list {
		if uint32(e) == k {
			if e>>32 <= 1 {
				last := len(list) - 1
				list[i] = list[last]
				return list[:last]
			}
			e -= 1 << 32
			for i < len(list)-1 && list[i+1] > e {
				list[i] = list[i+1]
				i++
			}
			list[i] = e
			return list
		}
	}
	panic("topicmodel: word-topic index out of sync with counts")
}
