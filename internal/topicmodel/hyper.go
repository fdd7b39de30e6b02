package topicmodel

import "math"

// Digamma computes ψ(x) = d/dx ln Γ(x) for x > 0 using the standard
// recurrence-plus-asymptotic-series method (relative error below 1e-12
// for the count-offset arguments the optimiser feeds it).
func Digamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	result := 0.0
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion: ψ(x) ≈ ln x − 1/(2x) − Σ B_2n / (2n x^2n).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*1.0/132))))
	return result
}

// OptimizeAlpha runs iters rounds of Minka's fixed-point update for
// the asymmetric document-topic prior (Minka 2000, Eq. 55; the method
// §5.3 of the paper adopts):
//
//	α_k ← α_k · (Σ_d ψ(N_dk+α_k) − D·ψ(α_k)) / (Σ_d ψ(N_d+Σα) − D·ψ(Σα))
func (m *Model) OptimizeAlpha(iters int) {
	d := float64(len(m.Docs))
	if d == 0 {
		return
	}
	for it := 0; it < iters; it++ {
		denom := 0.0
		psiSum := Digamma(m.AlphaSum)
		for di := range m.Docs {
			denom += Digamma(float64(m.Nd[di])+m.AlphaSum) - psiSum
		}
		if denom <= 0 {
			return
		}
		newSum := 0.0
		for k := 0; k < m.K; k++ {
			num := 0.0
			psiAk := Digamma(m.Alpha[k])
			for di := range m.Docs {
				if n := m.ndkRow(di)[k]; n > 0 {
					num += Digamma(float64(n)+m.Alpha[k]) - psiAk
				}
			}
			ak := m.Alpha[k] * num / denom
			if ak < 1e-8 {
				ak = 1e-8 // keep the prior proper
			}
			m.Alpha[k] = ak
			newSum += ak
		}
		m.AlphaSum = newSum
	}
}

// OptimizeBeta runs iters rounds of the symmetric fixed-point update
// for the topic-word prior:
//
//	β ← β · (Σ_k Σ_w ψ(N_wk+β) − K·V·ψ(β)) / (V·(Σ_k ψ(N_k+Vβ) − K·ψ(Vβ)))
func (m *Model) OptimizeBeta(iters int) {
	if m.V == 0 || m.K == 0 {
		return
	}
	m.Materialize()
	kf, vf := float64(m.K), float64(m.V)
	for it := 0; it < iters; it++ {
		psiB := Digamma(m.Beta)
		num := 0.0
		for w := 0; w < m.V; w++ {
			row := m.nwkRow(int32(w))
			for k := 0; k < m.K; k++ {
				if row[k] > 0 {
					num += Digamma(float64(row[k])+m.Beta) - psiB
				}
			}
		}
		psiVB := Digamma(m.BetaSum)
		denom := 0.0
		for k := 0; k < m.K; k++ {
			denom += Digamma(float64(m.Nk[k])+m.BetaSum) - psiVB
		}
		denom *= vf
		if denom <= 0 || num <= 0 {
			return
		}
		beta := m.Beta * num / denom
		if beta < 1e-8 {
			beta = 1e-8
		}
		m.Beta = beta
		m.BetaSum = beta * vf
		_ = kf
	}
}
