package topicmodel

import (
	"sync"
	"time"

	"topmine/internal/xrand"
)

// Parallel training: an approximate distributed Gibbs sampler in the
// style of AD-LDA (Newman et al., "Distributed Algorithms for Topic
// Models"), addressing the §8 future-work item on further scalability
// of the topic-modeling stage. Documents are sharded across workers;
// each sweep, every worker samples its shard against the global
// topic-word counts frozen at the sweep barrier plus its own private
// changes, and the changes are reconciled at the barrier:
//
//	global' = global + Σ_w delta_w
//
// Because every clique belongs to exactly one worker, the reconciled
// counts equal the counts recomputed from the final assignments — the
// model invariants hold exactly; only the *conditional distributions
// sampled from* are stale within a sweep, which is the standard AD-LDA
// approximation. Results are deterministic for a fixed worker count
// but differ from the serial sampler's.
//
// A worker is the sparse sampler of sparse.go — the same apply,
// drawUnigram, drawPhrase and catchUp the serial sweep runs, O(K_d +
// K_w) per clique — bound to a copy-on-touch overlay instead of the
// model's arenas: the first time a sweep touches word w the worker
// copies w's frozen global K-stride row and packed list into its row
// pool and from then on reads and edits the copy, so its view of w is
// always "frozen global + own changes" in one row. It keeps a private
// copy of N_k with its own reciprocals, smoothing masses and journal,
// and draws from its own RNG stream. When its shard is done the worker
// subtracts the global row back out of each overlay row, still on its
// own goroutine, which leaves exactly the sparse delta the barrier
// folds (and the distributed wire frames and checkpoints carry).
//
// Memory: one reusable K-stride row and short packed list per word the
// shard actually touched, plus an O(V) row index — O(cells touched),
// not a V×K copy per worker. The buffers persist across sweeps: after
// the first sweep of a training run, SweepParallel allocates nothing
// proportional to the model. Reconciliation likewise walks only the
// touched rows, each one contiguous K-stride block of the arena, and
// rebuilds the global packed list of every row it changed, so the
// index stays live from one sweep to the next.

// workerSeedStride separates the per-worker RNG streams derived from a
// sweep's base draw. The distributed worker (dist.go) must use the
// same constant for its streams to match in-process ones.
const workerSeedStride = 0x9e3779b97f4a7c15

// ShardRanges splits docs into `workers` contiguous [lo, hi) ranges
// balanced on cumulative token counts, so one long-document shard
// doesn't stall the sweep barrier the way equal-document chunking did.
// The boundaries are a pure function of (docs, workers): shard wi ends
// at the first document whose cumulative token count reaches
// total·(wi+1)/workers. Ranges cover [0, len(docs)) exactly; a range
// may be empty under extreme skew.
func ShardRanges(docs []Doc, workers int) [][2]int {
	ranges := make([][2]int, workers)
	total := 0
	for i := range docs {
		total += docs[i].NumTokens()
	}
	d, cum := 0, 0
	for wi := 0; wi < workers; wi++ {
		lo := d
		if wi == workers-1 {
			d = len(docs)
		} else {
			target := total * (wi + 1) / workers
			for d < len(docs) && cum < target {
				cum += docs[d].NumTokens()
				d++
			}
		}
		ranges[wi] = [2]int{lo, d}
	}
	return ranges
}

// SweepStats is one sweep's breakdown, delivered through the hook
// installed by Options.SweepStats or SetSweepStats. Sample is the
// barrier wait — sweep start to the slowest worker finishing (for a
// distributed run, to its delta frame arriving) — and Reconcile covers
// folding the deltas back into the global counts (plus the rebroadcast,
// when distributed). A serial sweep reports as one worker with no
// reconcile.
type SweepStats struct {
	// Sweep is the 1-based sweep this breakdown describes. In-process
	// training counts sweeps since the model was built; a distributed
	// run reports the coordinator's schedule iteration, which rewinds
	// with the rollback after an elastic recovery (so the same sweep
	// number can be reported twice).
	Sweep        int
	Workers      int
	Sample       time.Duration
	Reconcile    time.Duration
	WorkerSample []time.Duration // per-worker sample wall time
	// Draws counts where the sweep's draws landed, summed over workers.
	// In-process sweeps only: the distributed wire format does not carry
	// it.
	Draws DrawStats
	// Checkpoint is the time spent writing this barrier's on-disk
	// checkpoint; zero on barriers that did not write one. Distributed
	// runs only.
	Checkpoint time.Duration
	// Recovered counts the workers re-accepted after failures so far in
	// the run (cumulative). Nonzero only for elastic distributed runs
	// that actually lost and replaced workers.
	Recovered int
}

// SetSweepStats installs (or clears) the per-sweep hook. Nothing is
// timed when no hook is set.
func (m *Model) SetSweepStats(fn func(SweepStats)) { m.sweepStats = fn }

// NextSweepBase draws the per-sweep RNG base exactly as SweepParallel
// does. The distributed coordinator calls it once per sweep so worker
// RNG streams match the in-process sampler draw for draw.
func (m *Model) NextSweepBase() uint64 { return m.rng.Uint64() }

// SweepParallel runs one Gibbs pass with the given number of workers.
// workers <= 1 falls back to the exact serial sweep.
func (m *Model) SweepParallel(workers int) {
	if workers <= 1 || len(m.Docs) < 2*workers {
		m.Sweep()
		return
	}
	m.sweepSeq++
	base := m.NextSweepBase()
	m.ensureSparse() // the global lists the overlays copy from
	ps := m.ensurePar(workers)

	stats := m.sweepStats
	var t0 time.Time
	var perWorker []time.Duration
	if stats != nil {
		t0 = time.Now()
		perWorker = make([]time.Duration, workers)
	}

	var wg sync.WaitGroup
	for wi, ws := range ps.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var start time.Time
			if stats != nil {
				start = time.Now()
			}
			r := ps.ranges[wi]
			ws.sweepShard(r[0], r[1], base+uint64(wi)*workerSeedStride)
			if stats != nil {
				perWorker[wi] = time.Since(start)
			}
		}()
	}
	wg.Wait()

	var sampleDur time.Duration
	var t1 time.Time
	if stats != nil {
		sampleDur = time.Since(t0)
		t1 = time.Now()
	}

	// Reconcile: fold every worker's delta into the global counts,
	// O(touched rows × K) total.
	var draws DrawStats
	for wi, ws := range ps.workers {
		*ps.deltas[wi] = ws.delta()
		draws.add(ws.draws)
	}
	if err := m.foldDeltas(ps.deltas); err != nil {
		panic(err) // a worker's own delta cannot drive a count negative
	}

	if stats != nil {
		stats(SweepStats{
			Sweep:        m.sweepSeq,
			Workers:      workers,
			Sample:       sampleDur,
			Reconcile:    time.Since(t1),
			WorkerSample: perWorker,
			Draws:        draws,
		})
	}
}

// parState holds the workers and their shard ranges across sweeps.
type parState struct {
	workers []*sparseSampler
	deltas  []*CountRows // the workers' last sweeps, refilled for each fold
	ranges  [][2]int     // ShardRanges(m.Docs, len(workers)) for ndocs documents
	ndocs   int
}

// overlay is a worker's copy-on-touch view of the word-topic counts:
// the rows and packed lists of the words its shard has touched this
// sweep, each started as a copy of the frozen global one. All buffers
// are reused from sweep to sweep; rows outside touched are all zero.
type overlay struct {
	rowOf   []int32    // [V] index into rows and lists, -1 = word untouched
	rows    [][]int32  // row pool, each K entries; rows[i] is touched[i]'s
	lists   [][]uint64 // packed list of rows[i]
	touched []int32    // words with a live row, in first-touch order
}

// overlayChunk is how many pool rows one allocation holds: rows are
// carved from chunks so that the pool, the largest thing a worker owns,
// carries no per-row allocator slack.
const overlayChunk = 256

// touch gives word w a live overlay slot holding a copy of m's global
// row and list. The slot's row is all zero and a global row is nonzero
// exactly on its packed list, so the copy writes K_w cells, not K.
func (ov *overlay) touch(m *Model, w int32) int32 {
	ri := len(ov.touched)
	if ri == len(ov.rows) {
		chunk := make([]int32, overlayChunk*m.K)
		for i := 0; i < overlayChunk; i++ {
			ov.rows = append(ov.rows, chunk[i*m.K:(i+1)*m.K:(i+1)*m.K])
		}
		ov.lists = append(ov.lists, make([][]uint64, overlayChunk)...)
	}
	row, global := ov.rows[ri], m.sp.wt[w]
	for _, e := range global {
		row[uint32(e)] = int32(e >> 32)
	}
	ov.lists[ri] = append(ov.lists[ri][:0], global...)
	ov.rowOf[w] = int32(ri)
	ov.touched = append(ov.touched, w)
	return int32(ri)
}

// ensurePar returns reusable worker state for the given worker count,
// building it when the count changes (determinism is only promised
// for a fixed count, so a rebuild never mixes streams).
func (m *Model) ensurePar(workers int) *parState {
	ps := m.par
	if ps == nil || len(ps.workers) != workers {
		ps = &parState{workers: make([]*sparseSampler, workers), deltas: make([]*CountRows, workers)}
		lengths := m.ensureSparse().lengths
		for i := range ps.workers {
			ps.deltas[i] = new(CountRows)
			ws := newSparseSampler(m, lengths)
			ws.nk = make([]int64, m.K)
			ws.rng = xrand.New(0)
			ws.ov = &overlay{rowOf: make([]int32, m.V)}
			for w := range ws.ov.rowOf {
				ws.ov.rowOf[w] = -1
			}
			ps.workers[i] = ws
		}
		m.par = ps
	}
	if ps.ranges == nil || ps.ndocs != len(m.Docs) {
		ps.ranges, ps.ndocs = ShardRanges(m.Docs, workers), len(m.Docs)
	}
	return ps
}

// sweepShard is one worker's sweep over documents [lo, hi). It leaves
// the overlay holding the shard's delta, valid until the worker's next
// sweep.
func (sp *sparseSampler) sweepShard(lo, hi int, seed uint64) {
	sp.beginShard(seed)
	sp.sweepDocs(lo, hi)
	sp.toDelta()
}

// beginShard forgets the previous sweep's overlay, so the view is the
// frozen global counts again, binds the private N_k to the global
// totals and seeds the worker's stream.
func (sp *sparseSampler) beginShard(seed uint64) {
	ov := sp.ov
	for i, w := range ov.touched {
		clear(ov.rows[i])
		ov.rowOf[w] = -1
	}
	ov.touched = ov.touched[:0]
	copy(sp.nk, sp.m.Nk)
	sp.rng.Seed(seed)
}

// toDelta turns every overlay row (and the private N_k) into its
// difference from the global one: the sparse delta delta() hands to
// the fold. A global row is nonzero exactly on its packed list, so the
// subtraction walks that instead of K cells.
func (sp *sparseSampler) toDelta() {
	m := sp.m
	for i, w := range sp.ov.touched {
		row := sp.ov.rows[i]
		for _, e := range m.sp.wt[w] {
			row[uint32(e)] -= int32(e >> 32)
		}
	}
	for k, g := range m.Nk {
		sp.nk[k] -= g
	}
}

// delta returns the worker's last sweep as a sparse delta whose rows
// alias the overlay's buffers.
func (sp *sparseSampler) delta() CountRows {
	ov := sp.ov
	return CountRows{K: sp.m.K, Words: ov.touched, Rows: ov.rows[:len(ov.touched)], Nk: sp.nk}
}
