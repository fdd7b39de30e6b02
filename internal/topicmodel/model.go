package topicmodel

import (
	"fmt"
	"time"

	"topmine/internal/xrand"
)

// Options configures training.
type Options struct {
	// K is the number of topics.
	K int
	// Alpha is the initial symmetric document-topic concentration; 0
	// means the common 50/K default. Hyperparameter optimisation makes
	// the vector asymmetric over time.
	Alpha float64
	// Beta is the symmetric topic-word concentration; 0 means 0.01.
	Beta float64
	// Iterations is the number of full Gibbs sweeps.
	Iterations int
	// OptimizeHyper enables Minka fixed-point updates of alpha and beta
	// every HyperEvery sweeps after BurnIn (§5.3 uses the fixed-point
	// method of Minka 2000).
	OptimizeHyper bool
	// HyperEvery defaults to 25.
	HyperEvery int
	// BurnIn defaults to Iterations/10.
	BurnIn int
	// Seed drives the sampler deterministically.
	Seed uint64
	// Workers > 1 sweeps with SweepParallel on that many goroutines
	// (the AD-LDA approximation, see parallel.go); 0 or 1 sweeps with
	// the exact serial sampler.
	Workers int
	// OnIteration, when set, runs after each sweep (1-based); used for
	// perplexity curves and runtime instrumentation.
	OnIteration func(iter int, m *Model)
	// SweepStats, when set, receives a per-sweep breakdown: sample vs.
	// barrier/reconcile time from the parallel and distributed sweep
	// paths, and from every in-process sweep where its draws landed.
	SweepStats func(SweepStats)
}

// DefaultOptions returns the options used by the paper's experiments:
// 1000-2000 sweeps, hyperparameter optimisation on for quality runs.
func DefaultOptions(k int) Options {
	return Options{K: k, Iterations: 1000, OptimizeHyper: true}
}

func (o *Options) fill() {
	if o.K <= 0 {
		panic("topicmodel: K must be positive")
	}
	if o.Alpha <= 0 {
		o.Alpha = 50.0 / float64(o.K)
	}
	if o.Beta <= 0 {
		o.Beta = 0.01
	}
	if o.Iterations <= 0 {
		o.Iterations = 1000
	}
	if o.HyperEvery <= 0 {
		o.HyperEvery = 25
	}
	if o.BurnIn <= 0 {
		o.BurnIn = o.Iterations / 10
	}
}

// Filled returns o with the documented defaults substituted, so
// external schedulers (the distributed coordinator) can see the
// effective Iterations/HyperEvery/BurnIn values NewModel will use.
// Like NewModel, it panics when K is not positive.
func (o Options) Filled() Options {
	o.fill()
	return o
}

// HyperDue reports whether sweep it (1-based) of the schedule ends at
// a hyperparameter barrier. o must be filled. Train, Resume and the
// distributed coordinator all place their barriers with it.
func (o Options) HyperDue(it int) bool {
	return o.OptimizeHyper && it > o.BurnIn && it%o.HyperEvery == 0
}

// Model is a (Phrase)LDA model trained by collapsed Gibbs sampling.
// Exported fields support gob serialisation.
type Model struct {
	K, V int
	// Alpha is the (possibly asymmetric) document-topic prior; AlphaSum
	// caches its sum.
	Alpha    []float64
	AlphaSum float64
	// Beta is the symmetric topic-word prior; BetaSum = V*Beta.
	Beta    float64
	BetaSum float64

	// Docs are the training documents (cliques).
	Docs []Doc
	// Z[d][g] is the topic of clique g in document d. The rows view
	// one arena (zRows) on every model this package builds.
	Z [][]int32

	// Ndk[d][k]: tokens of doc d assigned to topic k. The rows are
	// K-stride views into one flat arena (see compactCounts); the
	// exported [][]int32 shape is kept for the gob wire format and for
	// read access, and the arena keeps the hot sampling loops
	// cache-local with no per-row pointer chase.
	Ndk [][]int32
	// Nwk[w][k]: tokens with word w assigned to topic k. Arena-backed
	// like Ndk. Callers must treat the rows as read-only: the sampler
	// maintains sparse per-word topic indexes that mirror these counts.
	// Nil on a frozen model from DecodeFlat until Materialize.
	Nwk [][]int32
	// Nk[k]: tokens assigned to topic k.
	Nk []int64
	// Nd[d]: tokens in doc d.
	Nd []int32
	// Snapshots written while the dense reference sampler still shipped
	// may carry a flag selecting it; gob skips the field, and such a
	// model trains on with the sparse sampler.

	// Flat count arenas backing the exported row views. nwk has V×K
	// entries (row w at nwk[w*K:]), ndk has len(Docs)×K. They are nil
	// on a freshly gob-decoded model before ResetSampler runs, and nwk
	// is nil on a frozen model, which holds N_wk as flatNwk instead.
	nwk []int32
	ndk []int32
	// flatNwk is a frozen model's N_wk in its sparse section form (see
	// EncodeFlat); Materialize scatters it into nwk and drops it.
	flatNwk []byte

	rng        *xrand.RNG
	sp         *sparseSampler
	par        *parState
	sweepStats func(SweepStats) // optional timing hook; never serialised
	sweepSeq   int              // sweeps since construction; never serialised
	fold       *foldState       // coordinator-side delta fold scratch (dist.go)
}

// NewModel allocates a model and randomly initialises assignments.
func NewModel(docs []Doc, vocabSize int, opt Options) *Model {
	opt.fill()
	m := &Model{
		K:          opt.K,
		V:          vocabSize,
		Beta:       opt.Beta,
		BetaSum:    opt.Beta * float64(vocabSize),
		Docs:       docs,
		rng:        xrand.New(opt.Seed),
		sweepStats: opt.SweepStats,
	}
	m.Alpha = make([]float64, opt.K)
	for k := range m.Alpha {
		m.Alpha[k] = opt.Alpha
	}
	m.AlphaSum = opt.Alpha * float64(opt.K)

	m.Z = zRows(docs)
	m.nwk = make([]int32, vocabSize*opt.K)
	m.Nwk = rowViews(m.nwk, opt.K)
	m.ndk = make([]int32, len(docs)*opt.K)
	m.Ndk = rowViews(m.ndk, opt.K)
	m.Nk = make([]int64, opt.K)
	m.Nd = make([]int32, len(docs))

	for d := range docs {
		for g := range m.Z[d] {
			clique := docs[d].Clique(g)
			k := int32(m.rng.Intn(opt.K))
			m.Z[d][g] = k
			m.addClique(d, clique, k, 1)
		}
		m.Nd[d] = int32(docs[d].NumTokens())
	}
	return m
}

// zRows returns a zeroed assignment row for each document's cliques,
// views into one arena.
func zRows(docs []Doc) [][]int32 {
	n := 0
	for d := range docs {
		n += docs[d].NumCliques()
	}
	arena := make([]int32, n)
	z := make([][]int32, len(docs))
	for d := range docs {
		k := docs[d].NumCliques()
		z[d], arena = arena[:k:k], arena[k:]
	}
	return z
}

// rowViews returns the K-stride rows of a flat count arena.
func rowViews(arena []int32, k int) [][]int32 {
	rows := make([][]int32, len(arena)/k)
	for i := range rows {
		rows[i] = arena[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// Materialize gives a frozen model (DecodeFlat) the dense V×K rows
// that Nwk exposes, scattering its sparse N_wk into them once; on any
// other model it does nothing. Every method that reads the dense rows
// calls it first, and EncodeFlat and NewInferIndex do without it. It
// writes to the model, so it must not run concurrently with any other
// use of the model.
func (m *Model) Materialize() {
	if m.flatNwk == nil {
		return
	}
	m.nwk = make([]int32, m.V*m.K)
	m.Nwk = rowViews(m.nwk, m.K)
	eachCount(m.flatNwk, m.V, m.K, func(w, k int, c int32) { m.nwk[w*m.K+k] = c })
	m.flatNwk = nil
}

// nwkRow returns word w's topic-count row out of the flat arena.
// Every construction path arms the arena (NewModel natively, Load and
// gob-decoded snapshots via shape validation + ResetSampler, a frozen
// model via Materialize), so no view fallback is needed.
func (m *Model) nwkRow(w int32) []int32 {
	return m.nwk[int(w)*m.K : (int(w)+1)*m.K]
}

// ndkRow returns document d's topic-count row (see nwkRow).
func (m *Model) ndkRow(d int) []int32 {
	return m.ndk[d*m.K : (d+1)*m.K]
}

// compactCounts (re)builds the flat arenas and re-points the exported
// Ndk/Nwk rows into them. It is a no-op when the views already alias
// the arenas, so calling it on a natively-built model costs nothing;
// after a gob decode it migrates the independently-allocated rows into
// cache-local storage. Malformed matrices (rows of the wrong length)
// are left untouched for the caller's shape validation to reject.
func (m *Model) compactCounts() {
	m.nwk = compactMatrix(m.Nwk, m.nwk, m.K)
	m.ndk = compactMatrix(m.Ndk, m.ndk, m.K)
}

func compactMatrix(rows [][]int32, arena []int32, k int) []int32 {
	if len(rows) == 0 || k <= 0 {
		return nil
	}
	for _, r := range rows {
		if len(r) != k {
			return nil
		}
	}
	if arena != nil && len(arena) == len(rows)*k && &rows[0][0] == &arena[0] {
		return arena // views already alias this arena
	}
	arena = make([]int32, len(rows)*k)
	for i, r := range rows {
		copy(arena[i*k:], r)
		rows[i] = arena[i*k : (i+1)*k : (i+1)*k]
	}
	return arena
}

// addClique adds (sign=+1) or removes (sign=-1) a clique's counts. It
// bypasses the sparse sampler's word-topic index, so it invalidates
// it — the sparse path maintains counts through sparseSampler.apply
// instead.
func (m *Model) addClique(d int, clique []int32, k int32, sign int32) {
	m.invalidateSparse()
	m.ndkRow(d)[k] += sign * int32(len(clique))
	for _, w := range clique {
		m.nwkRow(w)[k] += sign
	}
	m.Nk[k] += int64(sign) * int64(len(clique))
}

// eq7Weights fills w with the unnormalised conditional posterior of a
// removed clique, Equation 7 of the paper:
//
//	p(C = k | ·) ∝ Π_{j=1..W} (α_k + N_dk^-  + j−1) ·
//	               (β_wj + N_{wj,k}^-) / (Σβ + N_k^- + j−1)
//
// for a clique whose words have the count rows `rows`, in a document
// with count row ndk, under topic totals nk. Extend evaluates it over
// the model's counts; the sparse sampler's guard over its own view.
func (m *Model) eq7Weights(w []float64, ndk []int32, rows [][]int32, nk []int64) {
	if len(rows) == 1 {
		// LDA fast path (W = 1).
		row := rows[0]
		for k := 0; k < m.K; k++ {
			w[k] = (m.Alpha[k] + float64(ndk[k])) *
				(m.Beta + float64(row[k])) /
				(m.BetaSum + float64(nk[k]))
		}
		return
	}
	for k := 0; k < m.K; k++ {
		p := 1.0
		ak := m.Alpha[k] + float64(ndk[k])
		denom := m.BetaSum + float64(nk[k])
		for j := range rows {
			fj := float64(j)
			p *= (ak + fj) * (m.Beta + float64(rows[j][k])) / (denom + fj)
		}
		w[k] = p
	}
}

// Sweep runs one full Gibbs pass over all cliques with the sparse
// bucketed sampler (amortised O(K_d + K_w) per clique, see sparse.go),
// which samples from the exact conditional. With a SweepStats hook set,
// the sweep reports its wall time and where its draws landed as a
// one-worker sweep with no reconcile.
func (m *Model) Sweep() {
	m.sweepSeq++
	stats := m.sweepStats
	var t0 time.Time
	if stats != nil {
		t0 = time.Now()
	}
	draws := m.sweepSparse()
	if stats != nil {
		stats(SweepStats{Sweep: m.sweepSeq, Workers: 1, Sample: time.Since(t0), Draws: draws})
	}
}

// Train runs the full collapsed Gibbs schedule described by opt over
// the documents and returns the trained model.
func Train(docs []Doc, vocabSize int, opt Options) *Model {
	opt.fill()
	m := NewModel(docs, vocabSize, opt)
	m.run(opt)
	return m
}

// Resume continues a trained model for opt.Iterations more sweeps of
// Train's schedule; opt.K is taken from the model. The model is past
// burn-in, so hyperparameter barriers fall on every HyperEvery-th
// resumed sweep from the first.
func (m *Model) Resume(opt Options) {
	opt.K = m.K
	opt.fill()
	opt.BurnIn = 0
	m.run(opt)
}

// run is the one Gibbs schedule: opt.Iterations sweeps — serial, or
// on opt.Workers goroutines (SweepParallel falls back to the serial
// Sweep below two workers) — with a hyperparameter barrier wherever
// opt.HyperDue says, and opt.OnIteration after every sweep. opt must
// be filled.
func (m *Model) run(opt Options) {
	for it := 1; it <= opt.Iterations; it++ {
		m.SweepParallel(opt.Workers)
		if opt.HyperDue(it) {
			m.OptimizeAlpha(5)
			m.OptimizeBeta(5)
		}
		if opt.OnIteration != nil {
			opt.OnIteration(it, m)
		}
	}
}

// Theta returns the point estimate of document d's topic mixture.
func (m *Model) Theta(d int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.K)
	}
	denom := float64(m.Nd[d]) + m.AlphaSum
	ndk := m.ndkRow(d)
	for k := 0; k < m.K; k++ {
		dst[k] = (float64(ndk[k]) + m.Alpha[k]) / denom
	}
	return dst
}

// TotalTokens returns the number of tokens in the training set.
func (m *Model) TotalTokens() int {
	n := 0
	for _, v := range m.Nd {
		n += int(v)
	}
	return n
}

// CheckInvariants verifies count-matrix consistency with assignments;
// it is used by tests and returns an error describing the first
// violation found. When the sparse sampler's word-topic index is
// live, its agreement with the count matrix is verified too.
func (m *Model) CheckInvariants() error {
	m.Materialize()
	ndk := make([][]int32, len(m.Docs))
	nwk := make(map[int64]int32)
	nk := make([]int64, m.K)
	for d := range m.Docs {
		ndk[d] = make([]int32, m.K)
		for g := range m.Docs[d].NumCliques() {
			clique, k := m.Docs[d].Clique(g), m.Z[d][g]
			if k < 0 || int(k) >= m.K {
				return fmt.Errorf("doc %d clique %d: topic %d out of range", d, g, k)
			}
			ndk[d][k] += int32(len(clique))
			nk[k] += int64(len(clique))
			for _, w := range clique {
				nwk[int64(w)*int64(m.K)+int64(k)]++
			}
		}
	}
	for d := range m.Docs {
		for k := 0; k < m.K; k++ {
			if ndk[d][k] != m.Ndk[d][k] {
				return fmt.Errorf("Ndk[%d][%d] = %d, recomputed %d", d, k, m.Ndk[d][k], ndk[d][k])
			}
			if m.ndk != nil && m.ndk[d*m.K+k] != m.Ndk[d][k] {
				return fmt.Errorf("ndk arena desynced from Ndk view at [%d][%d]", d, k)
			}
		}
	}
	for k := 0; k < m.K; k++ {
		if nk[k] != m.Nk[k] {
			return fmt.Errorf("Nk[%d] = %d, recomputed %d", k, m.Nk[k], nk[k])
		}
	}
	for w := 0; w < m.V; w++ {
		for k := 0; k < m.K; k++ {
			want := nwk[int64(w)*int64(m.K)+int64(k)]
			if m.Nwk[w][k] != want {
				return fmt.Errorf("Nwk[%d][%d] = %d, recomputed %d", w, k, m.Nwk[w][k], want)
			}
			if m.nwk != nil && m.nwk[w*m.K+k] != want {
				return fmt.Errorf("nwk arena desynced from Nwk view at [%d][%d]", w, k)
			}
		}
	}
	if m.sp != nil && m.sp.valid {
		if err := m.sp.checkWordLists(); err != nil {
			return err
		}
	}
	return nil
}
