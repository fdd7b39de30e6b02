package topicmodel

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"topmine/internal/xrand"
)

// Save serialises the model (counts, assignments, priors, documents)
// with encoding/gob. The sampler's RNG position is not saved; a loaded
// model resumes from a fresh seed.
func (m *Model) Save(w io.Writer) error {
	m.Materialize()
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("topicmodel: encoding model: %w", err)
	}
	return nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("topicmodel: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// ResetSampler re-arms the unexported sampler state (RNG, scratch
// buffers, flat count arenas) that gob does not transmit. It must be
// called on any model materialised by decoding — Load does so
// automatically; callers that embed a Model in their own serialised
// structures (e.g. pipeline snapshots) call it after decode. The gob
// wire format carries the counts as the row-per-word/doc [][]int32 of
// the exported fields — unchanged since the first release — and this
// hook migrates the decoded rows into the K-stride arenas the
// samplers index. Any incremental sampler state (the sparse word-
// topic index, parallel worker deltas) is dropped and will be rebuilt
// lazily. Inference (NewInferIndex) and visualisation work without
// that state, but Sweep/Train need it. A frozen model (DecodeFlat)
// stays frozen: its dense rows wait for Materialize.
func (m *Model) ResetSampler(seed uint64) {
	m.rng = xrand.New(seed)
	m.sp = nil
	m.par = nil
	m.compactCounts()
}

// Load reads a model serialised by Save and re-arms its sampler with
// the given seed so training can continue deterministically. Decoded
// models are validated before the samplers arm — shapes, value
// ranges, and (for models carrying training state) a full recount of
// the matrices against the assignments — so a corrupt but gob-valid
// stream fails here with an error instead of panicking inside a
// later sweep. Loading is a cold path; the recount is O(corpus) like
// the decode itself.
func Load(r io.Reader, seed uint64) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("topicmodel: decoding model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.ResetSampler(seed)
	return &m, nil
}

// Validate checks a decoded model before its samplers arm: shape
// consistency of every matrix against K/V/Docs, value ranges, and —
// for models carrying training state — a full recount of the count
// matrices against the assignments. Frozen (serving-only) models pass
// with their training-state fields empty. Callers that embed a Model
// in their own serialised structures (pipeline snapshots) run this
// after decode, before ResetSampler.
func (m *Model) Validate() error {
	m.Materialize()
	if err := m.validateShapes(); err != nil {
		return err
	}
	if len(m.Docs) > 0 {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("topicmodel: decoded model corrupt: %w", err)
		}
	}
	return nil
}

// validateShapes rejects count matrices inconsistent with K/V/Docs.
func (m *Model) validateShapes() error {
	if m.K <= 0 || m.V < 0 {
		return fmt.Errorf("topicmodel: decoded model has K=%d V=%d", m.K, m.V)
	}
	if len(m.Alpha) != m.K || len(m.Nk) != m.K || len(m.Nwk) != m.V {
		return fmt.Errorf("topicmodel: decoded model shapes inconsistent: K=%d V=%d but len(Alpha)=%d len(Nk)=%d len(Nwk)=%d",
			m.K, m.V, len(m.Alpha), len(m.Nk), len(m.Nwk))
	}
	for w := range m.Nwk {
		if len(m.Nwk[w]) != m.K {
			return fmt.Errorf("topicmodel: decoded model shapes inconsistent: Nwk[%d] has %d topics, want %d", w, len(m.Nwk[w]), m.K)
		}
		// A row holds a negative count exactly when the OR of its cells
		// has the sign bit set; only then is the cell looked for.
		row, or := m.Nwk[w], int32(0)
		for len(row) >= 8 {
			or |= row[0] | row[1] | row[2] | row[3] | row[4] | row[5] | row[6] | row[7]
			row = row[8:]
		}
		for _, c := range row {
			or |= c
		}
		if or >= 0 {
			continue
		}
		for k, c := range m.Nwk[w] {
			if c < 0 {
				return fmt.Errorf("topicmodel: decoded model corrupt: Nwk[%d][%d] = %d", w, k, c)
			}
		}
	}
	for k, c := range m.Nk {
		if c < 0 {
			return fmt.Errorf("topicmodel: decoded model corrupt: Nk[%d] = %d", k, c)
		}
	}
	if len(m.Ndk) != len(m.Docs) || len(m.Nd) != len(m.Docs) || len(m.Z) != len(m.Docs) {
		return fmt.Errorf("topicmodel: decoded model shapes inconsistent: %d docs but len(Ndk)=%d len(Nd)=%d len(Z)=%d",
			len(m.Docs), len(m.Ndk), len(m.Nd), len(m.Z))
	}
	for d := range m.Docs {
		if len(m.Ndk[d]) != m.K {
			return fmt.Errorf("topicmodel: decoded model shapes inconsistent: Ndk[%d] has %d topics, want %d", d, len(m.Ndk[d]), m.K)
		}
		if len(m.Z[d]) != len(m.Docs[d].Cliques) {
			return fmt.Errorf("topicmodel: decoded model shapes inconsistent: doc %d has %d cliques but %d assignments",
				d, len(m.Docs[d].Cliques), len(m.Z[d]))
		}
		for g, clique := range m.Docs[d].Cliques {
			if k := m.Z[d][g]; k < 0 || int(k) >= m.K {
				return fmt.Errorf("topicmodel: decoded model corrupt: Z[%d][%d] = %d, want [0,%d)", d, g, k, m.K)
			}
			for _, w := range clique {
				if w < 0 || int(w) >= m.V {
					return fmt.Errorf("topicmodel: decoded model corrupt: doc %d clique %d holds word %d, vocabulary is %d", d, g, w, m.V)
				}
			}
		}
	}
	return nil
}

// LoadFile reads a model from path.
func LoadFile(path string, seed uint64) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topicmodel: %w", err)
	}
	defer f.Close()
	return Load(f, seed)
}
