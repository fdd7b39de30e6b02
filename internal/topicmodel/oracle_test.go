package topicmodel

import (
	"math"

	"topmine/internal/xrand"
)

// The dense serial sampler, kept as the reference the sparse bucketed
// sweep is pinned to per draw and in seed-averaged perplexity: Eq. 7
// evaluated over all K topics for every clique, one O(K) scan per draw.

// cliqueWeightsInto returns Eq. 7 for a removed clique in a document
// with count row ndk, over the model's counts.
func (m *Model) cliqueWeightsInto(ndk []int32, clique []int32) []float64 {
	rows := make([][]int32, len(clique))
	for j, w := range clique {
		rows[j] = m.nwkRow(w)
	}
	w := make([]float64, m.K)
	m.eq7Weights(w, ndk, rows, m.Nk)
	return w
}

// denseCliqueWeights is cliqueWeightsInto for document d.
func (m *Model) denseCliqueWeights(d int, clique []int32) []float64 {
	return m.cliqueWeightsInto(m.ndkRow(d), clique)
}

// sweepDense runs one full Gibbs pass through the dense reference
// sampler. (addClique invalidates the sparse word-topic index as it
// mutates counts.)
func (m *Model) sweepDense() {
	w := make([]float64, m.K)
	var rows [][]int32
	for d := range m.Docs {
		for g, clique := range cliquesOf(&m.Docs[d]) {
			m.addClique(d, clique, m.Z[d][g], -1)
			rows = rows[:0]
			for _, word := range clique {
				rows = append(rows, m.nwkRow(word))
			}
			m.eq7Weights(w, m.ndkRow(d), rows, m.Nk)
			k := int32(m.rng.Categorical(w))
			m.Z[d][g] = k
			m.addClique(d, clique, k, 1)
		}
	}
}

// trainDense is Train's schedule, without hyperparameter barriers,
// through the dense reference sampler.
func trainDense(docs []Doc, vocabSize int, opt Options) *Model {
	opt.fill()
	m := NewModel(docs, vocabSize, opt)
	for it := 0; it < opt.Iterations; it++ {
		m.sweepDense()
	}
	return m
}

// The dense delta kernel every parallel and distributed sweep drew
// through before the sparse sampler took over, kept as the oracle: one
// division per topic per clique over "frozen global + private delta".
// The worker-view tests pin the production kernel to it per draw and in
// seed-averaged perplexity.

// denseDelta is one oracle worker's private change against the frozen
// global counts, held as dense V×K and K arrays (test sizes only).
type denseDelta struct {
	nwk []int32
	nk  []int64
}

func newDenseDelta(m *Model) *denseDelta {
	return &denseDelta{nwk: make([]int32, m.V*m.K), nk: make([]int64, m.K)}
}

func (dd *denseDelta) add(m *Model, clique []int32, k int32, sign int32) {
	for _, w := range clique {
		dd.nwk[int(w)*m.K+int(k)] += sign
	}
	dd.nk[k] += int64(sign) * int64(len(clique))
}

// weights is sampleCliqueDelta's conditional of a removed clique in a
// document with count row ndk.
func (dd *denseDelta) weights(m *Model, ndk []int32, clique []int32) []float64 {
	wts := make([]float64, m.K)
	for k := 0; k < m.K; k++ {
		p := 1.0
		ak := m.Alpha[k] + float64(ndk[k])
		denom := m.BetaSum + float64(m.Nk[k]+dd.nk[k])
		for j, w := range clique {
			fj := float64(j)
			nw := m.nwkRow(w)[k] + dd.nwk[int(w)*m.K+k]
			p *= (ak + fj) * (m.Beta + float64(nw)) / (denom + fj)
		}
		wts[k] = p
	}
	return wts
}

// oracleSweepParallel is SweepParallel's schedule — one base draw,
// ShardRanges, one RNG stream per worker, fold at the barrier — through
// the dense delta kernel. Workers run one after another: they only
// share the frozen globals, so the order is immaterial.
func oracleSweepParallel(m *Model, workers int) {
	base := m.NextSweepBase()
	var deltas []*denseDelta
	for wi, r := range ShardRanges(m.Docs, workers) {
		rng := xrand.New(0)
		rng.Seed(base + uint64(wi)*workerSeedStride)
		dd := newDenseDelta(m)
		for d := r[0]; d < r[1]; d++ {
			ndk := m.ndkRow(d)
			for g, clique := range cliquesOf(&m.Docs[d]) {
				old := m.Z[d][g]
				ndk[old] -= int32(len(clique))
				dd.add(m, clique, old, -1)
				k := int32(rng.Categorical(dd.weights(m, ndk, clique)))
				m.Z[d][g] = k
				ndk[k] += int32(len(clique))
				dd.add(m, clique, k, 1)
			}
		}
		deltas = append(deltas, dd)
	}
	for _, dd := range deltas {
		for i, v := range dd.nwk {
			m.nwk[i] += v
		}
		for k, v := range dd.nk {
			m.Nk[k] += v
		}
	}
	m.invalidateSparse()
}

// chiSquareFit reports whether the histogram of n draws fits the
// unnormalised distribution p (with normaliser norm), pooling the
// states too rare for the χ² approximation into one bin. The limit is
// the mean of χ²(df) plus four of its standard deviations.
func chiSquareFit(hist, p []float64, norm float64, n int) (chi, limit float64, bins int) {
	var poolObs, poolExp float64
	for code, obs := range hist {
		exp := float64(n) * p[code] / norm
		if exp < 10 {
			poolObs, poolExp = poolObs+obs, poolExp+exp
			continue
		}
		chi += (obs - exp) * (obs - exp) / exp
		bins++
	}
	if poolExp > 0 {
		chi += (poolObs - poolExp) * (poolObs - poolExp) / poolExp
		bins++
	}
	df := float64(bins - 1)
	return chi, df + 4*math.Sqrt(2*df), bins
}
