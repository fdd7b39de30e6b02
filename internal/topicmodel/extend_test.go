package topicmodel

import (
	"bytes"
	"testing"
)

// grownDocs builds new-topic documents over ids [10, 10+extraV) plus
// some overlap with the original 10-word vocabulary.
func grownDocs(n, tokens, extraV int) []Doc {
	var docs []Doc
	for d := 0; d < n; d++ {
		var cliques [][]int32
		for i := 0; i < tokens; i++ {
			var w int32
			if i%3 == 0 {
				w = int32((i + d) % 10) // overlap with the base vocabulary
			} else {
				w = int32(10 + (i+d)%extraV)
			}
			cliques = append(cliques, []int32{w})
		}
		docs = append(docs, NewDoc(1000+d, cliques...))
	}
	return docs
}

func TestExtendInvariants(t *testing.T) {
	m := Train(twoTopicDocs(5, 15), 10, Options{K: 3, Iterations: 10, Seed: 5})
	oldD, oldTok := len(m.Docs), m.TotalTokens()
	newDocs := grownDocs(4, 12, 6)
	if err := m.Extend(newDocs, 16, 99); err != nil {
		t.Fatal(err)
	}
	if m.V != 16 || m.BetaSum != m.Beta*16 {
		t.Fatalf("V = %d, BetaSum = %g after Extend", m.V, m.BetaSum)
	}
	if len(m.Docs) != oldD+4 {
		t.Fatalf("len(Docs) = %d, want %d", len(m.Docs), oldD+4)
	}
	if m.TotalTokens() != oldTok+4*12 {
		t.Fatalf("TotalTokens = %d, want %d", m.TotalTokens(), oldTok+4*12)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Training continues over the grown set with both samplers.
	for i := 0; i < 5; i++ {
		m.Sweep()
	}
	m.sweepDense()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExtendDropsBarrierScratch: every piece of sampler state sized to
// the old vocabulary goes with Extend — the sparse index, the parallel
// workers and the coordinator-side fold scratch — so a parallel sweep
// and a distributed fold can touch the new word ids straight away.
func TestExtendDropsBarrierScratch(t *testing.T) {
	m := NewModel(twoTopicDocs(5, 15), 10, Options{K: 3, Iterations: 1, Seed: 5})
	m.SweepParallel(2) // arms the sparse index, the workers and the fold scratch at V=10
	if err := m.Extend(grownDocs(4, 12, 6), 16, 99); err != nil {
		t.Fatal(err)
	}
	m.SweepParallel(2)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A delta that moves one token of a new word between two topics.
	const w = 15
	from := -1
	for k, c := range m.Nwk[w] {
		if c > 0 {
			from = k
		}
	}
	if from < 0 {
		t.Fatalf("word %d has no tokens after Extend", w)
	}
	to := (from + 1) % m.K
	row := make([]int32, m.K)
	nk := make([]int64, m.K)
	row[from], row[to] = -1, 1
	nk[from], nk[to] = -1, 1
	want := m.Nwk[w][to] + 1
	out, err := m.FoldShardDeltas([]*CountRows{{K: m.K, Words: []int32{w}, Rows: [][]int32{row}, Nk: nk}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Words) != 1 || out.Words[0] != w || out.Rows[0][to] != want {
		t.Fatalf("fold of a new word id returned %+v", out)
	}
	if err := m.sp.checkWordLists(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendDeterministic(t *testing.T) {
	build := func() *Model {
		m := Train(twoTopicDocs(5, 15), 10, Options{K: 3, Iterations: 10, Seed: 5})
		if err := m.Extend(grownDocs(4, 12, 6), 16, 42); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			m.Sweep()
		}
		return m
	}
	a, b := build(), build()
	for d := range a.Z {
		for g := range a.Z[d] {
			if a.Z[d][g] != b.Z[d][g] {
				t.Fatalf("assignments diverge at doc %d clique %d", d, g)
			}
		}
	}
}

func TestExtendAfterLoad(t *testing.T) {
	// Extend must work on a freshly decoded model (arenas unarmed).
	m := Train(twoTopicDocs(4, 10), 10, Options{K: 2, Iterations: 5, Seed: 3})
	var buf bytes.Buffer
	if err := gobSave(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Extend(grownDocs(2, 8, 4), 14, 7); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	loaded.Sweep()
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendSameVocab(t *testing.T) {
	// Growing only the document set (no new words) must work too.
	m := Train(twoTopicDocs(3, 10), 10, Options{K: 2, Iterations: 5, Seed: 1})
	if err := m.Extend(twoTopicDocs(2, 10), 10, 8); err != nil {
		t.Fatal(err)
	}
	if m.V != 10 {
		t.Fatalf("V = %d, want 10", m.V)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendRejects(t *testing.T) {
	m := Train(twoTopicDocs(3, 10), 10, Options{K: 2, Iterations: 2, Seed: 1})
	if err := m.Extend(nil, 9, 0); err == nil {
		t.Fatal("shrinking vocabulary should fail")
	}
	bad := []Doc{NewDoc(1, []int32{12})}
	if err := m.Extend(bad, 12, 0); err == nil {
		t.Fatal("out-of-range word id should fail")
	}
	// A failed Extend leaves the model usable.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
