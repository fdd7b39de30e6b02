package topicmodel

import (
	"math"
	"testing"
)

// skewedDocs builds a corpus whose first document dwarfs the rest —
// the shape that stalls equal-document chunking at the sweep barrier.
func skewedDocs(nSmall, bigTokens int) []Doc {
	docs := make([]Doc, 0, nSmall+1)
	var big [][]int32
	for t := 0; t < bigTokens; t++ {
		big = append(big, []int32{int32(t % 10)})
	}
	docs = append(docs, NewDoc(0, big...))
	for d := 0; d < nSmall; d++ {
		docs = append(docs, NewDoc(d+1, []int32{int32(d % 10)}))
	}
	return docs
}

// TestShardRangesTokenBalance pins the shard-imbalance fix: boundaries
// follow cumulative token counts, so on a skewed corpus the giant
// document no longer drags half the small ones into its shard.
func TestShardRangesTokenBalance(t *testing.T) {
	docs := skewedDocs(300, 300)
	ranges := ShardRanges(docs, 2)
	if ranges[0] != [2]int{0, 1} {
		t.Fatalf("giant doc should fill shard 0 alone, got %v", ranges)
	}
	if ranges[1] != [2]int{1, 301} {
		t.Fatalf("shard 1 should hold all small docs, got %v", ranges)
	}

	// Balanced corpora split near-evenly on tokens, cover [0, n)
	// contiguously, and the boundaries are deterministic.
	docs = twoTopicDocs(41, 27)
	total := 0
	for i := range docs {
		total += docs[i].NumTokens()
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		ranges := ShardRanges(docs, workers)
		if len(ranges) != workers {
			t.Fatalf("%d workers: got %d ranges", workers, len(ranges))
		}
		prev := 0
		for wi, r := range ranges {
			if r[0] != prev {
				t.Fatalf("%d workers: range %d starts at %d, want %d", workers, wi, r[0], prev)
			}
			prev = r[1]
			tok := 0
			for d := r[0]; d < r[1]; d++ {
				tok += docs[d].NumTokens()
			}
			// Each shard is within one max-document of the ideal share.
			maxDoc := 0
			for i := range docs {
				if n := docs[i].NumTokens(); n > maxDoc {
					maxDoc = n
				}
			}
			if ideal := total / workers; tok > ideal+maxDoc {
				t.Fatalf("%d workers: shard %d holds %d tokens, ideal %d (max doc %d)", workers, wi, tok, ideal, maxDoc)
			}
		}
		if prev != len(docs) {
			t.Fatalf("%d workers: ranges end at %d, want %d", workers, prev, len(docs))
		}
		again := ShardRanges(docs, workers)
		for wi := range ranges {
			if ranges[wi] != again[wi] {
				t.Fatalf("%d workers: ShardRanges not deterministic", workers)
			}
		}
	}
}

// TestSweepParallelSkewedDeterministic pins that training stays
// deterministic (fixed topology) with token-balanced shards on a
// skewed corpus, and that invariants hold.
func TestSweepParallelSkewedDeterministic(t *testing.T) {
	opt := Options{K: 3, Iterations: 10, Seed: 211, Workers: 3}
	a := Train(skewedDocs(50, 120), 10, opt)
	b := Train(skewedDocs(50, 120), 10, opt)
	for d := range a.Z {
		for g := range a.Z[d] {
			if a.Z[d][g] != b.Z[d][g] {
				t.Fatal("skewed parallel training nondeterministic")
			}
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepStatsHook pins the per-sweep hook: parallel sweeps report
// worker count and per-worker sample durations; clearing the hook
// stops reporting.
func TestSweepStatsHook(t *testing.T) {
	docs := twoTopicDocs(20, 20)
	m := NewModel(docs, 10, Options{K: 2, Iterations: 1, Seed: 13})
	var got []SweepStats
	m.SetSweepStats(func(st SweepStats) { got = append(got, st) })
	m.SweepParallel(4)
	m.SweepParallel(4)
	if len(got) != 2 {
		t.Fatalf("expected 2 stats reports, got %d", len(got))
	}
	for _, st := range got {
		if st.Workers != 4 || len(st.WorkerSample) != 4 {
			t.Fatalf("bad stats shape: %+v", st)
		}
		if st.Sample <= 0 {
			t.Fatalf("sample duration not measured: %+v", st)
		}
	}
	m.SetSweepStats(nil)
	m.SweepParallel(4)
	if len(got) != 2 {
		t.Fatal("cleared hook still reporting")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepStatsObservational pins that the hook only watches: the
// sampled assignments are identical with and without one, serial and
// 2-worker, and every draw of a sweep is counted in exactly one bucket.
func TestSweepStatsObservational(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-abstracts", 80)
	var unigrams, phrases int64
	for _, doc := range docs {
		for _, c := range cliquesOf(&doc) {
			if len(c) == 1 {
				unigrams++
			} else {
				phrases++
			}
		}
	}
	for _, workers := range []int{1, 2} {
		run := func(hook func(SweepStats)) string {
			m := NewModel(docs, v, Options{K: 12, Iterations: 1, Seed: 61, SweepStats: hook})
			for i := 0; i < 4; i++ {
				m.SweepParallel(workers)
			}
			return zHash(m)
		}
		var got []SweepStats
		with := run(func(st SweepStats) { got = append(got, st) })
		if without := run(nil); with != without {
			t.Errorf("%d workers: assignments differ with a stats hook installed", workers)
		}
		if len(got) != 4 {
			t.Fatalf("%d workers: %d reports for 4 sweeps", workers, len(got))
		}
		for i, st := range got {
			dr := st.Draws
			if st.Sweep != i+1 || st.Workers != workers || st.Sample <= 0 {
				t.Errorf("%d workers: report %d is %+v", workers, i, st)
			}
			if dr.Smooth+dr.Doc+dr.Word != unigrams || dr.Cand+dr.Rest != phrases || dr.Exact != 0 {
				t.Errorf("%d workers: sweep %d draws %+v, corpus has %d unigram and %d phrase cliques",
					workers, st.Sweep, dr, unigrams, phrases)
			}
		}
	}
}

func TestSweepParallelPreservesInvariants(t *testing.T) {
	docs := twoTopicDocs(20, 20)
	m := NewModel(docs, 10, Options{K: 3, Iterations: 1, Seed: 91})
	for i := 0; i < 5; i++ {
		m.SweepParallel(4)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepParallelFallsBackWhenTiny(t *testing.T) {
	docs := twoTopicDocs(1, 5) // 2 docs: fewer than 2*workers
	m := NewModel(docs, 10, Options{K: 2, Iterations: 1, Seed: 93})
	m.SweepParallel(8) // must not panic; falls back to serial
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainParallelDeterministic(t *testing.T) {
	opt := Options{K: 2, Iterations: 15, Seed: 97, Workers: 4}
	a := Train(twoTopicDocs(10, 10), 10, opt)
	b := Train(twoTopicDocs(10, 10), 10, opt)
	for d := range a.Z {
		for g := range a.Z[d] {
			if a.Z[d][g] != b.Z[d][g] {
				t.Fatal("parallel training nondeterministic for fixed worker count")
			}
		}
	}
}

func TestTrainParallelQualityComparable(t *testing.T) {
	// AD-LDA approximation: held-out perplexity should land close to
	// the serial sampler's (within 10%).
	mkDocs := func() []Doc { return twoTopicDocs(40, 30) }
	test := make([][]int32, 80)
	for d := range test {
		base := int32(0)
		if d >= 40 {
			base = 5
		}
		test[d] = []int32{base, base + 2}
	}
	serial := Train(mkDocs(), 10, Options{K: 2, Iterations: 60, Seed: 101})
	parallel := Train(mkDocs(), 10, Options{K: 2, Iterations: 60, Seed: 101, Workers: 4})
	ps := Perplexity(serial, test)
	pp := Perplexity(parallel, test)
	if math.IsNaN(ps) || math.IsNaN(pp) {
		t.Fatalf("NaN perplexities: %v %v", ps, pp)
	}
	if pp > ps*1.10 || pp < ps*0.90 {
		t.Fatalf("parallel perplexity %v too far from serial %v", pp, ps)
	}
}

func TestTrainParallelRecoversTopics(t *testing.T) {
	docs := twoTopicDocs(30, 30)
	m := Train(docs, 10, Options{K: 2, Iterations: 100, Seed: 103, Workers: 4})
	topicOf := func(w int32) int {
		if m.Nwk[w][0] >= m.Nwk[w][1] {
			return 0
		}
		return 1
	}
	a := topicOf(0)
	for w := int32(1); w < 5; w++ {
		if topicOf(w) != a {
			t.Fatalf("topic-A words split under parallel training: word %d", w)
		}
	}
	for w := int32(5); w < 10; w++ {
		if topicOf(w) == a {
			t.Fatalf("topic-B word %d merged into topic A", w)
		}
	}
}

func TestSweepParallelWithCliques(t *testing.T) {
	// Multi-word cliques across many docs, parallel sweeps: invariants
	// must hold exactly after reconciliation.
	var docs []Doc
	for d := 0; d < 50; d++ {
		docs = append(docs, NewDoc(d,
			[]int32{int32(d % 4), int32((d + 1) % 4)},
			[]int32{int32(d % 7)},
			[]int32{4, 5, 6},
		))
	}
	m := NewModel(docs, 10, Options{K: 4, Iterations: 1, Seed: 107})
	for i := 0; i < 8; i++ {
		m.SweepParallel(4)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
