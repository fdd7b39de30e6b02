package topicmodel

import (
	"encoding/binary"
	"fmt"
	"math"

	"topmine/internal/secfile"
)

// EncodeFlat returns the model's serving parameters as the two flat
// sections of a .tpm snapshot:
//
//	priors: u64 K, K × f64 α, f64 AlphaSum, f64 β, f64 BetaSum,
//	        K × i64 N_k — little-endian, floats as their bits, so the
//	        hyper-optimised priors round-trip exactly and are never
//	        recomputed;
//	nwk:    per word: uvarint nnz, then nnz (uvarint topic gap, uvarint
//	        count) pairs in ascending topic order, where the gap is the
//	        topic minus one past the previous pair's topic (the first
//	        pair's gap is its topic).
//
// Counts are written as they are; DecodeFlat rejects the ones that are
// not positive. A model whose matrices disagree with K and V cannot be
// written.
func (m *Model) EncodeFlat() (priors, nwk []byte, err error) {
	if err := m.checkServingShapes(); err != nil {
		return nil, nil, err
	}
	priors = make([]byte, 0, 8+16*m.K+24)
	priors = binary.LittleEndian.AppendUint64(priors, uint64(m.K))
	for _, a := range m.Alpha {
		priors = binary.LittleEndian.AppendUint64(priors, math.Float64bits(a))
	}
	for _, x := range []float64{m.AlphaSum, m.Beta, m.BetaSum} {
		priors = binary.LittleEndian.AppendUint64(priors, math.Float64bits(x))
	}
	for _, n := range m.Nk {
		priors = binary.LittleEndian.AppendUint64(priors, uint64(n))
	}
	for _, row := range m.Nwk {
		nnz := 0
		for _, c := range row {
			if c != 0 {
				nnz++
			}
		}
		nwk = binary.AppendUvarint(nwk, uint64(nnz))
		next := 0
		for k, c := range row {
			if c != 0 {
				nwk = binary.AppendUvarint(nwk, uint64(k-next))
				nwk = binary.AppendUvarint(nwk, uint64(int64(c)))
				next = k + 1
			}
		}
	}
	return priors, nwk, nil
}

// checkServingShapes rejects priors and counts inconsistent with K/V.
func (m *Model) checkServingShapes() error {
	if m.K <= 0 || len(m.Alpha) != m.K || len(m.Nk) != m.K || len(m.Nwk) != m.V {
		return fmt.Errorf("topicmodel: model shapes inconsistent: K=%d V=%d but len(Alpha)=%d len(Nk)=%d len(Nwk)=%d",
			m.K, m.V, len(m.Alpha), len(m.Nk), len(m.Nwk))
	}
	for w, row := range m.Nwk {
		if len(row) != m.K {
			return fmt.Errorf("topicmodel: model shapes inconsistent: Nwk[%d] has %d topics, want %d", w, len(row), m.K)
		}
	}
	return nil
}

// DecodeFlat rebuilds a frozen model over a vocabulary of v words from
// the two sections EncodeFlat writes, in one pass: N_wk is scattered
// into the flat V×K arena the exported rows view. It checks every
// length against the bytes present, every topic against K and every
// count for being positive, and refuses models whose V×K arena exceeds
// maxCells — the one allocation the section sizes do not bound. The
// caller arms the sampler (ResetSampler), as after any decode.
func DecodeFlat(priors, nwk []byte, v, maxCells int) (*Model, error) {
	const fixed = 8 + 24
	if len(priors) < fixed {
		return nil, fmt.Errorf("topicmodel: priors section is %d bytes", len(priors))
	}
	k64 := binary.LittleEndian.Uint64(priors)
	if k64 == 0 || k64 > uint64(len(priors)-fixed)/16 || len(priors) != fixed+16*int(k64) {
		return nil, fmt.Errorf("topicmodel: priors section is %d bytes for K=%d", len(priors), k64)
	}
	k := int(k64)
	if v < 0 || uint64(v)*k64 > uint64(maxCells) {
		return nil, fmt.Errorf("topicmodel: a %d×%d count matrix exceeds the %d cells this input may allocate", v, k, maxCells)
	}
	f64 := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(priors[8+8*i:])) }
	m := &Model{K: k, V: v, Alpha: make([]float64, k), Nk: make([]int64, k)}
	for i := range m.Alpha {
		m.Alpha[i] = f64(i)
	}
	m.AlphaSum, m.Beta, m.BetaSum = f64(k), f64(k+1), f64(k+2)
	for i := range m.Nk {
		m.Nk[i] = int64(binary.LittleEndian.Uint64(priors[fixed+8*k+8*i:]))
		if m.Nk[i] < 0 {
			return nil, fmt.Errorf("topicmodel: decoded model corrupt: Nk[%d] = %d", i, m.Nk[i])
		}
	}

	m.nwk = make([]int32, v*k)
	m.Nwk = make([][]int32, v)
	r := secfile.NewReader(nwk)
	for w := range m.Nwk {
		row := m.nwk[w*k : (w+1)*k : (w+1)*k]
		m.Nwk[w] = row
		nnz := r.Count(2) // a pair is at least two bytes
		if nnz > k {
			r.Fail("word %d lists %d topics, K=%d", w, nnz, k)
		}
		next := 0
		for ; nnz > 0; nnz-- {
			gap := r.Uvarint()
			c := r.Uvarint()
			if gap >= uint64(k-next) {
				r.Fail("word %d lists topic %d+%d, K=%d", w, next, gap, k)
				break
			}
			if c == 0 || c > math.MaxInt32 {
				r.Fail("word %d topic %d has count %d", w, next+int(gap), c)
				break
			}
			next += int(gap)
			row[next] = int32(c)
			next++
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("topicmodel: decoding N_wk: %w", err)
	}
	return m, nil
}
