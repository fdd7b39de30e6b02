package topicmodel

import (
	"encoding/binary"
	"fmt"
	"math"
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
// The nwk section is N_wk's one sparse form: a frozen model holds it
// as decoded and returns it as it is; a model with dense rows is
// walked once. Counts are written as they are; DecodeFlat rejects the
// ones that are not positive. A model whose matrices disagree with K
// and V cannot be written.
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
	return priors, m.sparseNwk(), nil
}

// sparseNwk returns N_wk as the nwk section EncodeFlat documents.
func (m *Model) sparseNwk() []byte {
	if m.flatNwk != nil {
		return m.flatNwk
	}
	var nwk []byte
	for w := int32(0); int(w) < m.V; w++ {
		row := m.nwkRow(w)
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
	return nwk
}

// checkServingShapes rejects priors and counts inconsistent with K/V.
func (m *Model) checkServingShapes() error {
	if m.K <= 0 || len(m.Alpha) != m.K || len(m.Nk) != m.K || m.flatNwk == nil && len(m.Nwk) != m.V {
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
// the two sections EncodeFlat writes. N_wk stays in its sparse form,
// checked in one pass: every length against the bytes present, every
// topic against K and every count for being positive. Models whose
// V×K rows would exceed maxCells are refused, so Materialize is bounded
// by the input too. The caller arms the sampler (ResetSampler), as
// after any decode.
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
	if err := eachCount(nwk, v, k, nil); err != nil {
		return nil, fmt.Errorf("topicmodel: decoding N_wk: %w", err)
	}
	m.flatNwk = append([]byte{}, nwk...)
	return m, nil
}

// eachCount walks an nwk section over v words and k topics, checking it
// as DecodeFlat documents, and passes every cell to fn, if not nil, in
// ascending (word, topic) order.
func eachCount(nwk []byte, v, k int, fn func(w, k int, c int32)) error {
	off := 0
	for w := 0; w < v; w++ {
		nnz, n := uvarintAt(nwk, off)
		if n < 0 || nnz > uint64(k) || nnz > uint64(len(nwk)-n)/2 { // a pair is at least two bytes
			return fmt.Errorf("word %d: bad topic count %d at byte %d of %d, K=%d", w, nnz, off, len(nwk), k)
		}
		off = n
		next := 0
		for ; nnz > 0; nnz-- {
			gap, n := uvarintAt(nwk, off)
			c, n := uvarintAt(nwk, n)
			if n < 0 || gap >= uint64(k-next) || c == 0 || c > math.MaxInt32 {
				return fmt.Errorf("word %d: bad pair (topic %d+%d, count %d) at byte %d, K=%d", w, next, gap, c, off, k)
			}
			off = n
			next += int(gap)
			if fn != nil {
				fn(w, next, int32(c))
			}
			next++
		}
	}
	if off != len(nwk) {
		return fmt.Errorf("%d trailing bytes", len(nwk)-off)
	}
	return nil
}

// uvarintAt decodes the uvarint at b[off:] and returns it with the
// offset past it. That offset is -1 for a truncated or overlong
// varint, and stays -1 once a read has failed.
func uvarintAt(b []byte, off int) (uint64, int) {
	if off < 0 {
		return 0, off // an earlier read failed
	}
	if off < len(b) && b[off] < 0x80 { // the common one-byte case
		return uint64(b[off]), off + 1
	}
	x, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, -1
	}
	return x, off + n
}
