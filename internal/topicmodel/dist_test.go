package topicmodel

import (
	"testing"
)

// mixedCliqueDocs builds a corpus with multi-word cliques and varied
// document lengths — both sampler paths (unigram and phrase) and
// uneven shard boundaries get exercised.
func mixedCliqueDocs(n int) []Doc {
	docs := make([]Doc, n)
	for d := 0; d < n; d++ {
		cliques := [][]int32{
			{int32(d % 4), int32((d + 1) % 4)},
			{int32(d % 7)},
			{4, 5, 6},
		}
		for j := 0; j < d%5; j++ {
			cliques = append(cliques, [][]int32{{int32((d + j) % 9)}}...)
		}
		docs[d] = NewDoc(d, cliques...)
	}
	return docs
}

// distSimulate reproduces the distributed training loop in-package —
// shard models, wire-codec round trips at every barrier, value
// rebroadcast, hyper-barrier Ndk uploads, final state install — so the
// byte-identity contract is pinned without sockets. internal/dtrain
// re-tests it across real connections and processes.
func distSimulate(t *testing.T, docs []Doc, v int, opt Options, workers int) *Model {
	t.Helper()
	opt = opt.Filled()
	cm := NewModel(docs, v, opt)
	ranges := ShardRanges(docs, workers)

	shards := make([]*Model, workers)
	for wi, r := range ranges {
		lo, hi := r[0], r[1]
		sdocs := make([]Doc, hi-lo)
		copy(sdocs, docs[lo:hi])
		z := make([][]int32, hi-lo)
		for i := range z {
			z[i] = append([]int32(nil), cm.Z[lo+i]...)
		}
		nwk := make([]int32, v*opt.K)
		for w := 0; w < v; w++ {
			copy(nwk[w*opt.K:(w+1)*opt.K], cm.Nwk[w])
		}
		nk := append([]int64(nil), cm.Nk...)
		alpha := append([]float64(nil), cm.Alpha...)
		sm, err := NewShardModel(sdocs, v, opt.K, alpha, cm.AlphaSum, cm.Beta, z, nwk, nk)
		if err != nil {
			t.Fatalf("shard %d: %v", wi, err)
		}
		shards[wi] = sm
	}

	for it := 1; it <= opt.Iterations; it++ {
		base := cm.NextSweepBase()
		hyper := opt.OptimizeHyper && it > opt.BurnIn && it%opt.HyperEvery == 0
		deltas := make([]*CountRows, workers)
		for wi, sm := range shards {
			if err := sm.SetPriors(cm.Alpha, cm.AlphaSum, cm.Beta, cm.BetaSum); err != nil {
				t.Fatal(err)
			}
			d := sm.ShardSweep(wi, base)
			wire := d.AppendTo(nil)
			dec, n, err := DecodeCountRows(wire, v, opt.K)
			if err != nil || n != len(wire) {
				t.Fatalf("delta codec round trip: n=%d len=%d err=%v", n, len(wire), err)
			}
			deltas[wi] = dec
		}
		combined, err := cm.FoldShardDeltas(deltas)
		if err != nil {
			t.Fatal(err)
		}
		if hyper {
			for wi, sm := range shards {
				lo := ranges[wi][0]
				for i := range sm.Ndk {
					copy(cm.Ndk[lo+i], sm.Ndk[i])
				}
			}
		}
		wire := combined.AppendTo(nil)
		dec, _, err := DecodeCountRows(wire, v, opt.K)
		if err != nil {
			t.Fatalf("globals codec: %v", err)
		}
		for _, sm := range shards {
			if err := sm.SetGlobalRows(dec); err != nil {
				t.Fatal(err)
			}
		}
		if hyper {
			cm.OptimizeAlpha(5)
			cm.OptimizeBeta(5)
		}
	}

	for wi, sm := range shards {
		if err := cm.InstallShardState(ranges[wi][0], sm.Z); err != nil {
			t.Fatalf("install shard %d: %v", wi, err)
		}
	}
	return cm
}

func assertModelsIdentical(t *testing.T, want, got *Model) {
	t.Helper()
	for d := range want.Z {
		if !int32SlicesEq(want.Z[d], got.Z[d]) {
			t.Fatalf("Z[%d] differs: %v vs %v", d, want.Z[d], got.Z[d])
		}
		if !int32SlicesEq(want.Ndk[d], got.Ndk[d]) {
			t.Fatalf("Ndk[%d] differs", d)
		}
	}
	for w := range want.Nwk {
		if !int32SlicesEq(want.Nwk[w], got.Nwk[w]) {
			t.Fatalf("Nwk[%d] differs: %v vs %v", w, want.Nwk[w], got.Nwk[w])
		}
	}
	for k := range want.Nk {
		if want.Nk[k] != got.Nk[k] {
			t.Fatalf("Nk[%d]: %d vs %d", k, want.Nk[k], got.Nk[k])
		}
	}
	for k := range want.Alpha {
		if want.Alpha[k] != got.Alpha[k] {
			t.Fatalf("Alpha[%d]: %v vs %v", k, want.Alpha[k], got.Alpha[k])
		}
	}
	if want.AlphaSum != got.AlphaSum || want.Beta != got.Beta || want.BetaSum != got.BetaSum {
		t.Fatalf("priors differ: %v/%v/%v vs %v/%v/%v",
			want.AlphaSum, want.Beta, want.BetaSum, got.AlphaSum, got.Beta, got.BetaSum)
	}
}

func int32SlicesEq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDistBarrierMatchesSweepParallel is the core byte-identity pin:
// the distributed barrier protocol (shard models + wire codec + value
// rebroadcast), driven with the same topology, reproduces
// parallel Train's final state exactly — including across hyperparameter
// optimisation barriers.
func TestDistBarrierMatchesSweepParallel(t *testing.T) {
	// workers >= 2: SweepParallel(1) falls back to the serial sampler,
	// which the distributed protocol deliberately does not mimic.
	docs := mixedCliqueDocs(60)
	for _, workers := range []int{2, 3} {
		opt := Options{K: 3, Iterations: 40, OptimizeHyper: true, HyperEvery: 10, BurnIn: 5, Seed: 77, Workers: workers}
		want := Train(docs, 10, opt)
		got := distSimulate(t, docs, 10, opt, workers)
		assertModelsIdentical(t, want, got)
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%d workers: coordinator invariants: %v", workers, err)
		}
	}
}

// TestDistBarrierSkewedCorpus runs the same pin over a skewed corpus,
// where one shard is a single giant document.
func TestDistBarrierSkewedCorpus(t *testing.T) {
	docs := skewedDocs(40, 100)
	opt := Options{K: 3, Iterations: 15, Seed: 19, Workers: 2}
	want := Train(docs, 10, opt)
	got := distSimulate(t, docs, 10, opt, 2)
	assertModelsIdentical(t, want, got)
}

func TestCountRowsCodecErrors(t *testing.T) {
	cr := &CountRows{K: 2, Words: []int32{3}, Rows: [][]int32{{1, -2}}, Nk: []int64{5, -5}}
	wire := cr.AppendTo(nil)
	if _, _, err := DecodeCountRows(wire, 4, 2); err != nil {
		t.Fatalf("valid decode failed: %v", err)
	}
	if dec, _, _ := DecodeCountRows(wire, 4, 2); dec.Rows[0][1] != -2 || dec.Nk[1] != -5 {
		t.Fatal("negative deltas mangled in transit")
	}
	if _, _, err := DecodeCountRows(wire[:len(wire)-1], 4, 2); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, _, err := DecodeCountRows(wire, 4, 3); err == nil {
		t.Fatal("K mismatch accepted")
	}
	if _, _, err := DecodeCountRows(wire, 3, 2); err == nil {
		t.Fatal("word id beyond vocab accepted")
	}
	if _, _, err := DecodeCountRows(nil, 4, 2); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestFoldShardDeltasRejectsBadDeltas(t *testing.T) {
	docs := mixedCliqueDocs(10)
	m := NewModel(docs, 10, Options{K: 2, Iterations: 1, Seed: 3})
	if _, err := m.FoldShardDeltas([]*CountRows{{K: 3, Nk: []int64{0, 0, 0}}}); err == nil {
		t.Fatal("K mismatch accepted")
	}
	bad := &CountRows{K: 2, Words: []int32{99}, Rows: [][]int32{{1, 0}}, Nk: []int64{1, 0}}
	if _, err := m.FoldShardDeltas([]*CountRows{bad}); err == nil {
		t.Fatal("out-of-vocab word accepted")
	}
	// A delta that drives a count negative must be rejected loudly.
	neg := &CountRows{K: 2, Words: []int32{0}, Rows: [][]int32{{-1000, 0}}, Nk: []int64{-1000, 0}}
	if _, err := m.FoldShardDeltas([]*CountRows{neg}); err == nil {
		t.Fatal("negative fold accepted")
	}
}

func TestNewShardModelValidation(t *testing.T) {
	docs := mixedCliqueDocs(4)
	alpha := []float64{1, 1}
	goodZ := make([][]int32, len(docs))
	for i := range goodZ {
		goodZ[i] = make([]int32, docs[i].NumCliques())
	}
	nwk := make([]int32, 10*2)
	nk := make([]int64, 2)
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, goodZ, nwk, nk); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	if _, err := NewShardModel(docs, 10, 2, alpha[:1], 2, 0.01, goodZ, nwk, nk); err == nil {
		t.Fatal("short alpha accepted")
	}
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, goodZ[:2], nwk, nk); err == nil {
		t.Fatal("z/doc count mismatch accepted")
	}
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, goodZ, nwk[:5], nk); err == nil {
		t.Fatal("short nwk arena accepted")
	}
	badZ := make([][]int32, len(docs))
	for i := range badZ {
		badZ[i] = make([]int32, docs[i].NumCliques())
	}
	badZ[0][0] = 7
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, badZ, nwk, nk); err == nil {
		t.Fatal("out-of-range topic accepted")
	}
}

func TestDocsChecksum(t *testing.T) {
	a := mixedCliqueDocs(8)
	b := mixedCliqueDocs(8)
	if DocsChecksum(a) != DocsChecksum(b) {
		t.Fatal("identical docs, different checksums")
	}
	// IDs are excluded: a rebased shard must checksum the same.
	for i := range b {
		b[i].ID = i + 100
	}
	if DocsChecksum(a) != DocsChecksum(b) {
		t.Fatal("doc IDs leaked into the checksum")
	}
	b[3].Clique(0)[0]++
	if DocsChecksum(a) == DocsChecksum(b) {
		t.Fatal("word change not detected")
	}
	if DocsChecksum(a[:4]) == DocsChecksum(a) {
		t.Fatal("range change not detected")
	}
}
