package topicmodel

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
)

// Distributed AD-LDA support: the pieces of the sweep barrier that
// cross process boundaries. A coordinator holds the full model and
// drives the schedule exactly like SweepParallel — one RNG base draw
// per sweep (NextSweepBase), token-balanced shard ranges
// (ShardRanges), a fold of every worker's sparse N_wk delta
// (FoldShardDeltas) — while each worker holds a shard model
// (NewShardModel) whose document state covers only its range but whose
// word-topic counts are the globals frozen at the last barrier.
// Because every input to the per-clique draw (frozen globals, private
// delta, document counts, RNG stream) is bit-identical to what the
// corresponding in-process SweepParallel worker would see, the trained
// model — and therefore its rendered topics — is byte-identical to an
// in-process run with the same topology (worker count, ranges, seed).
//
// The wire unit is CountRows: a sparse set of K-stride word rows plus
// the K topic totals. Uploaded by a worker it carries the shard's
// sweep delta; rebroadcast by the coordinator it carries the updated
// values of every row touched this sweep (workers overwrite rather
// than re-apply, so the two sides cannot drift).

// CountRows is a sparse set of word-topic count rows plus topic
// totals, the payload exchanged at each distributed sweep barrier.
// Rows may alias internal model buffers; treat as read-only and
// consume before the next sweep.
type CountRows struct {
	K     int
	Words []int32
	Rows  [][]int32
	Nk    []int64
}

// AppendTo appends the little-endian wire encoding of cr to buf:
//
//	u32 nrows | u32 K | nrows × { u32 word | K × i32 } | K × i64
func (cr *CountRows) AppendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cr.Words)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cr.K))
	for i, w := range cr.Words {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		for _, v := range cr.Rows[i] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	for _, v := range cr.Nk {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// DecodeCountRows decodes one CountRows from data, validating shape
// against the expected vocabulary size v and topic count k. It returns
// the decoded value and the number of bytes consumed; the returned
// slices point into freshly allocated memory, not into data.
func DecodeCountRows(data []byte, v, k int) (*CountRows, int, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("topicmodel: count rows truncated (%d bytes)", len(data))
	}
	nrows := int(binary.LittleEndian.Uint32(data))
	gotK := int(binary.LittleEndian.Uint32(data[4:]))
	if gotK != k {
		return nil, 0, fmt.Errorf("topicmodel: count rows K=%d, want %d", gotK, k)
	}
	if nrows > v {
		return nil, 0, fmt.Errorf("topicmodel: count rows claims %d rows for vocab %d", nrows, v)
	}
	need := 8 + nrows*(4+4*k) + 8*k
	if len(data) < need {
		return nil, 0, fmt.Errorf("topicmodel: count rows truncated: %d bytes, need %d", len(data), need)
	}
	cr := &CountRows{
		K:     k,
		Words: make([]int32, nrows),
		Rows:  make([][]int32, nrows),
		Nk:    make([]int64, k),
	}
	off := 8
	arena := make([]int32, nrows*k)
	for i := 0; i < nrows; i++ {
		w := binary.LittleEndian.Uint32(data[off:])
		if int(w) >= v {
			return nil, 0, fmt.Errorf("topicmodel: count row word %d out of vocab %d", w, v)
		}
		cr.Words[i] = int32(w)
		off += 4
		row := arena[i*k : (i+1)*k : (i+1)*k]
		for j := 0; j < k; j++ {
			row[j] = int32(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		cr.Rows[i] = row
	}
	for j := 0; j < k; j++ {
		cr.Nk[j] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return cr, off, nil
}

// NewShardModel builds a worker-side model over one shard's documents:
// document state (Z, Ndk, Nd) is local to the shard, while the
// word-topic counts (nwk arena, nk) are the coordinator-broadcast
// globals — which include every other shard's tokens, so the usual
// count invariants deliberately do not hold on a shard model. z rows
// are adopted (not copied); nwk must have vocabSize×k entries and is
// adopted as the count arena.
func NewShardModel(docs []Doc, vocabSize, k int, alpha []float64, alphaSum, beta float64, z [][]int32, nwk []int32, nk []int64) (*Model, error) {
	if k <= 0 || vocabSize <= 0 {
		return nil, fmt.Errorf("topicmodel: shard model needs positive K and V, got K=%d V=%d", k, vocabSize)
	}
	if len(alpha) != k {
		return nil, fmt.Errorf("topicmodel: shard alpha has %d entries, want %d", len(alpha), k)
	}
	if len(z) != len(docs) {
		return nil, fmt.Errorf("topicmodel: shard has %d z rows for %d docs", len(z), len(docs))
	}
	if len(nwk) != vocabSize*k {
		return nil, fmt.Errorf("topicmodel: shard nwk arena has %d entries, want %d", len(nwk), vocabSize*k)
	}
	if len(nk) != k {
		return nil, fmt.Errorf("topicmodel: shard nk has %d entries, want %d", len(nk), k)
	}
	m := &Model{
		K:        k,
		V:        vocabSize,
		Alpha:    alpha,
		AlphaSum: alphaSum,
		Beta:     beta,
		BetaSum:  beta * float64(vocabSize),
		Docs:     docs,
		Z:        z,
		Nk:       nk,
		nwk:      nwk,
	}
	m.Nwk = rowViews(nwk, k)
	m.ndk = make([]int32, len(docs)*k)
	m.Ndk = rowViews(m.ndk, k)
	m.Nd = make([]int32, len(docs))
	for d := range docs {
		row := m.Ndk[d]
		if len(z[d]) != len(docs[d].Cliques) {
			return nil, fmt.Errorf("topicmodel: shard doc %d has %d assignments for %d cliques", d, len(z[d]), len(docs[d].Cliques))
		}
		for g, clique := range docs[d].Cliques {
			zk := z[d][g]
			if zk < 0 || int(zk) >= k {
				return nil, fmt.Errorf("topicmodel: shard doc %d clique %d: topic %d out of range", d, g, zk)
			}
			row[zk] += int32(len(clique))
			m.Nd[d] += int32(len(clique))
		}
	}
	return m, nil
}

// SetPriors installs coordinator-broadcast prior values before a
// sweep. Sums are taken from the wire rather than recomputed so the
// float bits match the coordinator's exactly.
func (m *Model) SetPriors(alpha []float64, alphaSum, beta, betaSum float64) error {
	if len(alpha) != m.K {
		return fmt.Errorf("topicmodel: priors have %d alphas, want %d", len(alpha), m.K)
	}
	copy(m.Alpha, alpha)
	m.AlphaSum = alphaSum
	m.Beta = beta
	m.BetaSum = betaSum
	return nil
}

// ShardSweep runs one sweep of this (shard) model as distributed
// worker workerIndex: the same RNG stream, visit order and kernel as
// the corresponding SweepParallel goroutine. It returns the shard's
// sparse N_wk delta for the coordinator to fold (the worker receives
// the folded row values back via SetGlobalRows); the rows alias
// reusable worker buffers and are valid until the next ShardSweep.
func (m *Model) ShardSweep(workerIndex int, base uint64) *CountRows {
	m.ensureSparse()
	ws := m.ensurePar(1).workers[0]
	ws.sweepShard(0, len(m.Docs), base+uint64(workerIndex)*workerSeedStride)
	cr := ws.delta()
	return &cr
}

// foldState is the reusable scratch of a barrier fold.
type foldState struct {
	pending []int32 // [V] deltas of the current fold still to add to the word's row; 0 between folds
	words   []int32 // rows the current fold touches, in first-touch order
}

// foldDeltas adds every delta to the global counts: the reconcile step
// of SweepParallel and of the distributed barrier. It leaves the words
// whose rows it touched in m.fold.words, in first-touch order. The
// caller has checked the deltas' shapes. Folding is integer addition,
// so the result is independent of delta order.
//
// The last delta to reach a row closes it while it is still in cache:
// the row is checked for negative counts — those can only come from a
// corrupted or mismatched delta, caught here at the barrier instead of
// training on garbage — and, when the global word-topic index is live,
// re-listed in sorted packed order. A word's list is then a pure
// function of its counts, which is what keeps a distributed or
// recovered run on the in-process one's random stream.
//
// Every touched row is a K-stride walk on both sides, so the fold is
// split by word id over as many goroutines as there are deltas and
// CPUs; rows of different words share nothing.
func (m *Model) foldDeltas(deltas []*CountRows) error {
	if m.fold == nil {
		m.fold = &foldState{pending: make([]int32, m.V)}
	}
	f := m.fold
	f.words = f.words[:0]
	for _, cr := range deltas {
		for _, w := range cr.Words {
			if f.pending[w] == 0 {
				f.words = append(f.words, w)
			}
			f.pending[w]++
		}
		for k, v := range cr.Nk {
			m.Nk[k] += v
		}
	}
	var lists [][]uint64
	if sp := m.sp; sp != nil && sp.valid {
		lists = sp.wt
	}
	var bad atomic.Int32 // a word whose folded row holds a negative count
	bad.Store(-1)
	parts := int32(min(len(deltas), runtime.GOMAXPROCS(0)))
	foldPart := func(part int32) {
		for _, cr := range deltas {
			for i, w := range cr.Words {
				if w%parts != part {
					continue
				}
				src := cr.Rows[i]
				dst := m.nwkRow(w)[:len(src)]
				for k, v := range src {
					dst[k] += v
				}
				if f.pending[w]--; f.pending[w] > 0 {
					continue
				}
				var negative bool
				if lists != nil {
					lists[w], negative = packRow(lists[w][:0], dst)
				} else {
					var or int32
					for _, c := range dst {
						or |= c
					}
					negative = or < 0
				}
				if negative {
					bad.Store(w)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for part := int32(1); part < parts; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			foldPart(part)
		}()
	}
	foldPart(0)
	wg.Wait()

	if w := bad.Load(); w >= 0 {
		for k, v := range m.nwkRow(w) {
			if v < 0 {
				return fmt.Errorf("topicmodel: fold drove Nwk[%d][%d] negative (%d)", w, k, v)
			}
		}
	}
	for k, v := range m.Nk {
		if v < 0 {
			return fmt.Errorf("topicmodel: fold drove Nk[%d] negative (%d)", k, v)
		}
	}
	return nil
}

// FoldShardDeltas applies every worker's sweep delta to the global
// counts — the distributed form of SweepParallel's reconcile — and
// returns the rebroadcast payload: the post-fold values of every row
// touched this sweep plus the full topic totals. The returned rows
// alias the model's count arena and its Nk slice; they are valid until
// the next mutation of the model. Folding is integer addition, so the
// result is independent of delta order.
func (m *Model) FoldShardDeltas(deltas []*CountRows) (*CountRows, error) {
	m.Materialize()
	for di, cr := range deltas {
		if cr.K != m.K {
			return nil, fmt.Errorf("topicmodel: delta %d has K=%d, want %d", di, cr.K, m.K)
		}
		if len(cr.Nk) != m.K {
			return nil, fmt.Errorf("topicmodel: delta %d has %d topic totals, want %d", di, len(cr.Nk), m.K)
		}
		for _, w := range cr.Words {
			if w < 0 || int(w) >= m.V {
				return nil, fmt.Errorf("topicmodel: delta %d touches word %d outside vocab %d", di, w, m.V)
			}
		}
	}
	if err := m.foldDeltas(deltas); err != nil {
		return nil, err
	}
	words := m.fold.words
	out := &CountRows{K: m.K, Words: words, Rows: make([][]int32, len(words)), Nk: m.Nk}
	for i, w := range words {
		out.Rows[i] = m.nwkRow(w)
	}
	return out, nil
}

// SetGlobalRows overwrites the model's word-topic counts with
// coordinator-broadcast post-fold values: the listed rows wholesale
// plus the full topic-total vector. Workers call this after each
// barrier; untouched rows are already equal on both sides.
func (m *Model) SetGlobalRows(cr *CountRows) error {
	m.Materialize()
	if cr.K != m.K {
		return fmt.Errorf("topicmodel: global rows have K=%d, want %d", cr.K, m.K)
	}
	if len(cr.Nk) != m.K {
		return fmt.Errorf("topicmodel: global rows have %d topic totals, want %d", len(cr.Nk), m.K)
	}
	for i, w := range cr.Words {
		if w < 0 || int(w) >= m.V {
			return fmt.Errorf("topicmodel: global row word %d outside vocab %d", w, m.V)
		}
		row := m.nwkRow(w)
		copy(row, cr.Rows[i])
		if sp := m.sp; sp != nil && sp.valid {
			sp.wt[w], _ = packRow(sp.wt[w][:0], row)
		}
	}
	copy(m.Nk, cr.Nk)
	return nil
}

// InstallShardState copies a shard's final topic assignments back into
// the full model (docs [lo, lo+len(z))) after the last distributed
// sweep, recomputing the affected document-topic rows from the
// assignments rather than trusting them off the wire.
func (m *Model) InstallShardState(lo int, z [][]int32) error {
	if lo < 0 || lo+len(z) > len(m.Docs) {
		return fmt.Errorf("topicmodel: shard state [%d, %d) outside %d docs", lo, lo+len(z), len(m.Docs))
	}
	for i, zr := range z {
		d := lo + i
		if len(zr) != len(m.Docs[d].Cliques) {
			return fmt.Errorf("topicmodel: shard doc %d has %d assignments for %d cliques", d, len(zr), len(m.Docs[d].Cliques))
		}
		row := m.ndkRow(d)
		for k := range row {
			row[k] = 0
		}
		for g, k := range zr {
			if k < 0 || int(k) >= m.K {
				return fmt.Errorf("topicmodel: shard doc %d clique %d: topic %d out of range", d, g, k)
			}
			row[k] += int32(len(m.Docs[d].Cliques[g]))
		}
		copy(m.Z[d], zr)
	}
	return nil
}

// DocsChecksum returns a CRC over the clique structure of docs — word
// ids and clique boundaries, not document IDs — so a distributed
// worker can verify the shard it rebuilt from the corpus file against
// the coordinator's before training on it.
func DocsChecksum(docs []Doc) uint32 {
	crc := crc32.NewIEEE()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		crc.Write(buf[:])
	}
	for i := range docs {
		put(uint32(len(docs[i].Cliques)))
		for _, clique := range docs[i].Cliques {
			put(uint32(len(clique)))
			for _, w := range clique {
				put(uint32(w))
			}
		}
	}
	return crc.Sum32()
}
