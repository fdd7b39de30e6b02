package topicmodel

import (
	"fmt"

	"topmine/internal/xrand"
)

// Checkpoint/restore support for distributed training: a model's full
// Gibbs state at a sweep barrier is (Z, priors, RNG position) — the
// count matrices are a pure function of Z and the documents, so a
// barrier snapshot rebuilds them instead of trusting them off disk.

// NewModelFromState builds a model whose assignments are the given z
// (deep-copied) and whose count matrices are recomputed from those
// assignments — the restore path for barrier checkpoints, where Z is
// globally synchronized and therefore fully determines the counts.
// The alpha vector is copied; betaSum is taken verbatim rather than
// recomputed so the float bits match the checkpointed run exactly.
// The sampler RNG starts from seed 0; callers restoring a checkpoint
// follow up with SetSamplerState.
func NewModelFromState(docs []Doc, vocabSize, k int, alpha []float64, alphaSum, beta, betaSum float64, z [][]int32) (*Model, error) {
	if k <= 0 || vocabSize <= 0 {
		return nil, fmt.Errorf("topicmodel: restored model needs positive K and V, got K=%d V=%d", k, vocabSize)
	}
	if len(alpha) != k {
		return nil, fmt.Errorf("topicmodel: restored alpha has %d entries, want %d", len(alpha), k)
	}
	if len(z) != len(docs) {
		return nil, fmt.Errorf("topicmodel: restored state has %d z rows for %d docs", len(z), len(docs))
	}
	m := &Model{
		K:        k,
		V:        vocabSize,
		Alpha:    append([]float64(nil), alpha...),
		AlphaSum: alphaSum,
		Beta:     beta,
		BetaSum:  betaSum,
		Docs:     docs,
		rng:      xrand.New(0),
	}
	m.Z = make([][]int32, len(docs))
	m.nwk = make([]int32, vocabSize*k)
	m.Nwk = rowViews(m.nwk, k)
	m.ndk = make([]int32, len(docs)*k)
	m.Ndk = rowViews(m.ndk, k)
	m.Nk = make([]int64, k)
	m.Nd = make([]int32, len(docs))
	for d := range docs {
		if len(z[d]) != len(docs[d].Cliques) {
			return nil, fmt.Errorf("topicmodel: restored doc %d has %d assignments for %d cliques", d, len(z[d]), len(docs[d].Cliques))
		}
		m.Z[d] = append([]int32(nil), z[d]...)
		row := m.Ndk[d]
		for g, clique := range docs[d].Cliques {
			zk := z[d][g]
			if zk < 0 || int(zk) >= k {
				return nil, fmt.Errorf("topicmodel: restored doc %d clique %d: topic %d out of range", d, g, zk)
			}
			for _, w := range clique {
				if w < 0 || int(w) >= vocabSize {
					return nil, fmt.Errorf("topicmodel: restored doc %d clique %d holds word %d, vocabulary is %d", d, g, w, vocabSize)
				}
				m.nwkRow(w)[zk]++
			}
			row[zk] += int32(len(clique))
			m.Nk[zk] += int64(len(clique))
			m.Nd[d] += int32(len(clique))
		}
	}
	return m, nil
}

// SamplerState returns the exact position of the model's sweep-schedule
// RNG, for barrier checkpoints. Restoring it with SetSamplerState makes
// the next NextSweepBase draw identical to what an uninterrupted run
// would have drawn.
func (m *Model) SamplerState() xrand.State { return m.rng.State() }

// SetSamplerState restores an RNG position captured by SamplerState.
func (m *Model) SetSamplerState(s xrand.State) error {
	if err := m.rng.SetState(s); err != nil {
		return fmt.Errorf("topicmodel: %w", err)
	}
	return nil
}
