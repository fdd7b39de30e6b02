package topicmodel

import "math"

// Perplexity computes held-out per-token perplexity by document
// completion, the evaluation behind Figures 6 and 7: each training
// document d has a withheld tail test[d] of token ids, scored with the
// model's point estimates
//
//	p(w | d) = Σ_k θ̂_dk · φ̂_kw ,  perplexity = exp(−Σ log p / N).
//
// Because the generative processes of PhraseLDA and LDA are identical
// (§5.2), the two models' values are directly comparable. Documents
// with empty tails contribute nothing. The result is in nats converted
// to the conventional exp scale; divide log by ln 2 for "bits".
func Perplexity(m *Model, test [][]int32) float64 {
	if len(test) != len(m.Docs) {
		panic("topicmodel: test set does not align with training docs")
	}
	theta := make([]float64, m.K)
	phiW := make([]float64, m.K)
	var logSum float64
	var n int
	for d, toks := range test {
		if len(toks) == 0 {
			continue
		}
		m.Theta(d, theta)
		for _, w := range toks {
			if int(w) >= m.V {
				continue // out-of-vocabulary guard
			}
			row := m.nwkRow(w)
			var p float64
			for k := 0; k < m.K; k++ {
				phiW[k] = (float64(row[k]) + m.Beta) / (float64(m.Nk[k]) + m.BetaSum)
				p += theta[k] * phiW[k]
			}
			logSum += math.Log(p)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(-logSum / float64(n))
}
