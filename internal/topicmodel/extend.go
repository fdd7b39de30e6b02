package topicmodel

import (
	"fmt"

	"topmine/internal/xrand"
)

// Extend grows a trained model in place so training can continue over
// an enlarged corpus: newDocs are appended to the training set and the
// vocabulary grows from V to newV (ids are append-only, so every
// existing word keeps its row). The existing documents' assignments,
// counts and priors are untouched — incremental training resumes from
// the converged state instead of re-burning in from scratch.
//
// The new documents' cliques are initialised by a single sequential
// sampling pass from the model's current conditional (Equation 7 with
// the grown V in the β denominator), driven by a fresh RNG seeded with
// seed — so extension is deterministic for a fixed seed regardless of
// how the model was trained. The incremental sampler state (sparse
// word-topic index, parallel workers, barrier fold scratch — all sized
// to the old V) is dropped and rebuilt lazily by the next sweep.
func (m *Model) Extend(newDocs []Doc, newV int, seed uint64) error {
	if newV < m.V {
		return fmt.Errorf("topicmodel: Extend: vocabulary cannot shrink (have %d, got %d); ids are append-only", m.V, newV)
	}
	for di := range newDocs {
		for _, w := range newDocs[di].Words {
			if w < 0 || int(w) >= newV {
				return fmt.Errorf("topicmodel: Extend: new doc %d holds word %d, vocabulary is %d", di, w, newV)
			}
		}
	}

	// Arm scratch state first: compactCounts migrates a decoded model's
	// rows into the flat arenas the grow step below copies from.
	m.rng = xrand.New(seed)
	m.sp = nil
	m.par = nil
	m.fold = nil
	m.Materialize()
	m.compactCounts()

	// Grow the word-topic arena to newV rows; existing rows keep their
	// offsets because the stride (K) is unchanged.
	if newV > m.V {
		nwk := make([]int32, newV*m.K)
		copy(nwk, m.nwk)
		m.nwk = nwk
		m.Nwk = rowViews(nwk, m.K)
		m.V = newV
		m.BetaSum = m.Beta * float64(newV)
	}

	// Grow the document-topic arena and append the new documents.
	oldD := len(m.Docs)
	nD := oldD + len(newDocs)
	ndk := make([]int32, nD*m.K)
	copy(ndk, m.ndk)
	m.ndk = ndk
	m.Ndk = rowViews(ndk, m.K)
	m.Docs = append(m.Docs, newDocs...)
	m.Z = append(m.Z, zRows(newDocs)...)
	m.Nd = append(m.Nd, make([]int32, len(newDocs))...)

	w := make([]float64, m.K)
	var rows [][]int32
	for d := oldD; d < nD; d++ {
		for g := range m.Z[d] {
			clique := m.Docs[d].Clique(g)
			rows = rows[:0]
			for _, word := range clique {
				rows = append(rows, m.nwkRow(word))
			}
			m.eq7Weights(w, m.ndkRow(d), rows, m.Nk)
			k := int32(m.rng.Categorical(w))
			m.Z[d][g] = k
			m.addClique(d, clique, k, 1)
		}
		m.Nd[d] = int32(m.Docs[d].NumTokens())
	}
	return nil
}
