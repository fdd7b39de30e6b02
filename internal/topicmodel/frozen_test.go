package topicmodel

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

// arenaInferIndex is the oracle NewInferIndex is pinned against: the
// index as it was built before N_wk had one sparse form, by one 8-wide
// pass over the dense V·K count arena.
func arenaInferIndex(m *Model, maxLen int) *InferIndex {
	if maxLen < 1 {
		maxLen = 1
	}
	K := m.K
	ix := &InferIndex{
		k:        K,
		alpha:    append([]float64(nil), m.Alpha...),
		alphaSum: m.AlphaSum,
		beta:     m.Beta,
		invBeta:  1 / m.Beta,
		den:      make([]float64, K),
		bden:     make([]float64, K),
		off:      make([]uint32, m.V+1),
		ent:      make([]wordTopic, 0, 4*m.V),
	}
	for k := range ix.den {
		ix.den[k] = m.BetaSum + float64(m.Nk[k])
		ix.bden[k] = m.Beta / ix.den[k]
	}
	emit := func(cell int, c int32) {
		w, k := cell/K, cell%K
		ix.ent = append(ix.ent, wordTopic{int32(k), c, float64(c) / ix.den[k]})
		ix.off[w+1]++
	}
	arena := m.nwk[:m.V*K]
	i := 0
	for ; i+8 <= len(arena); i += 8 {
		oct := arena[i : i+8 : i+8]
		if oct[0]|oct[1]|oct[2]|oct[3]|oct[4]|oct[5]|oct[6]|oct[7] == 0 {
			continue
		}
		for j, c := range oct {
			if c > 0 {
				emit(i+j, c)
			}
		}
	}
	for ; i < len(arena); i++ {
		if c := arena[i]; c > 0 {
			emit(i, c)
		}
	}
	for w := 0; w < m.V; w++ {
		ix.off[w+1] += ix.off[w]
		list := ix.list(int32(w))
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && list[j-1].n < list[j].n; j-- {
				list[j-1], list[j] = list[j], list[j-1]
			}
		}
	}
	ix.term = make([][]float64, maxLen+1)
	ix.pre = make([][]float64, maxLen+1)
	ix.betaPow = make([]float64, maxLen+1)
	ix.betaPow[0] = 1
	for W := 1; W <= maxLen; W++ {
		ix.betaPow[W] = ix.betaPow[W-1] * m.Beta
		term, pre := make([]float64, K), make([]float64, K)
		fj, sum := float64(W-1), 0.0
		for k := range term {
			t := (ix.alpha[k] + fj) * m.Beta / (ix.den[k] + fj)
			if W > 1 {
				t *= ix.term[W-1][k]
			}
			sum += t
			term[k], pre[k] = t, sum
		}
		ix.term[W], ix.pre[W] = term, pre
	}
	return ix
}

// frozenCopy returns m's serving parameters as a snapshot load decodes
// them: a frozen model with N_wk in its sparse form.
func frozenCopy(t testing.TB, m *Model) *Model {
	t.Helper()
	priors, nwk, err := m.EncodeFlat()
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFlat(priors, nwk, m.V, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	f.ResetSampler(7)
	return f
}

// fixtureModel reads the model out of a version-1 pipeline snapshot in
// the repository's testdata: past the 22-byte header, its gob payload
// has a Model field, and gob skips the payload's other fields.
func fixtureModel(t testing.TB, name string) *Model {
	t.Helper()
	data, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct{ Model *Model }
	if err := gob.NewDecoder(bytes.NewReader(data[22:])).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	m := payload.Model
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.ResetSampler(7)
	return m
}

// TestInferIndexMatchesArenaOracle: the index read off N_wk's sparse
// form is entry for entry the one the arena scan built, from a trained
// model's rows and from the frozen model a snapshot load gives.
func TestInferIndexMatchesArenaOracle(t *testing.T) {
	docs, _, v := synthPhraseDocs(t, "dblp-titles", 300)
	sparse := sparsePhiModel(1000, 500)
	sparse.Nwk = rowViews(sparse.nwk, sparse.K)
	models := []struct {
		name string
		m    *Model
	}{
		{"v1 frozen fixture", fixtureModel(t, "snapshot_v1_frozen.tpm")},
		{"v1 training fixture", fixtureModel(t, "snapshot_v1_training.tpm")},
		{"trained K=4", Train(docs, v, Options{K: 4, Iterations: 20, Seed: 3})},
		{"trained K=200", Train(docs, v, Options{K: 200, Iterations: 20, Seed: 3})},
		{"sparsePhiModel K=1000", sparse},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			want := arenaInferIndex(tc.m, 6)
			if len(want.ent) == 0 {
				t.Fatal("the model has no counts")
			}
			if got := NewInferIndex(tc.m, 6); !reflect.DeepEqual(got, want) {
				t.Fatal("index built from the trained model's rows differs from the arena scan")
			}
			if got := NewInferIndex(frozenCopy(t, tc.m), 6); !reflect.DeepEqual(got, want) {
				t.Fatal("index built from the frozen model differs from the arena scan")
			}
		})
	}
}

// TestFrozenModelMatchesMaterialized: every exported Model method
// answers on a frozen model as on the same model after Materialize,
// and EncodeFlat and NewInferIndex leave a frozen model frozen.
func TestFrozenModelMatchesMaterialized(t *testing.T) {
	trained, c := trainedOnSynth(t, 200, 20)
	more := grownDocs(3, 12, 4)
	for _, tc := range []struct {
		name string
		call func(m *Model) any
	}{
		{"EncodeFlat", func(m *Model) any { p, n, err := m.EncodeFlat(); return []any{p, n, err} }},
		{"NewInferIndex", func(m *Model) any { return NewInferIndex(m, 4) }},
		{"TopUnigrams", func(m *Model) any {
			var out [][]string
			for k := 0; k < m.K; k++ {
				out = append(out, m.TopUnigrams(k, 12, c))
			}
			return out
		}},
		{"Visualize", func(m *Model) any { return m.Visualize(c, VisualizeOptions{TopUnigrams: 8, TopPhrases: 6}) }},
		{"BackgroundPhrases", func(m *Model) any { return m.BackgroundPhrases(c, 0.5, 5) }},
		{"BackgroundPhrasesDF", func(m *Model) any { return m.BackgroundPhrasesDF(c, 0.5, 0.1, 5) }},
		{"TotalTokens", func(m *Model) any { return m.TotalTokens() }},
		{"CheckInvariants", func(m *Model) any { return m.CheckInvariants() }},
		{"Validate", func(m *Model) any { return m.Validate() }},
		{"Save", func(m *Model) any {
			var buf bytes.Buffer
			err := m.Save(&buf)
			return []any{buf.Bytes(), err}
		}},
		{"Perplexity", func(m *Model) any { return fmt.Sprint(Perplexity(m, nil)) }},
		{"OptimizeAlpha", func(m *Model) any { m.OptimizeAlpha(3); return []any{m.Alpha, m.AlphaSum} }},
		{"OptimizeBeta", func(m *Model) any { m.OptimizeBeta(3); return []any{m.Beta, m.BetaSum} }},
		{"Sweep", func(m *Model) any { m.Sweep(); return m.Nwk }},
		{"SweepParallel", func(m *Model) any { m.SweepParallel(2); return m.Nwk }},
		{"Resume", func(m *Model) any { m.Resume(Options{Iterations: 3, OptimizeHyper: true, HyperEvery: 1}); return m.Nwk }},
		{"ShardSweep", func(m *Model) any { return *m.ShardSweep(0, 5) }},
		{"FoldShardDeltas", func(m *Model) any {
			row := make([]int32, m.K)
			row[1] = 2
			out, err := m.FoldShardDeltas([]*CountRows{{K: m.K, Words: []int32{3}, Rows: [][]int32{row}, Nk: make([]int64, m.K)}})
			return []any{*out, err, m.Nwk}
		}},
		{"SetGlobalRows", func(m *Model) any {
			row := make([]int32, m.K)
			row[0] = 9
			err := m.SetGlobalRows(&CountRows{K: m.K, Words: []int32{2}, Rows: [][]int32{row}, Nk: m.Nk})
			return []any{err, m.Nwk}
		}},
		{"Extend", func(m *Model) any {
			err := m.Extend(more, m.V+4, 9)
			return []any{err, m.Nwk, m.Z, m.Ndk}
		}},
		{"SamplerState", func(m *Model) any { return m.SamplerState() }},
		{"NextSweepBase", func(m *Model) any { return m.NextSweepBase() }},
		{"SetPriors", func(m *Model) any {
			err := m.SetPriors(m.Alpha, m.AlphaSum, 0.02, 0.02*float64(m.V))
			return []any{err, m.Beta, m.BetaSum}
		}},
		{"InstallShardState", func(m *Model) any { return m.InstallShardState(0, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dense := frozenCopy(t, trained)
			dense.Materialize()
			want := tc.call(dense)
			frozen := frozenCopy(t, trained)
			if got := tc.call(frozen); !reflect.DeepEqual(got, want) {
				t.Fatalf("frozen model answers %v, materialised %v", got, want)
			}
		})
	}

	frozen := frozenCopy(t, trained)
	frozen.EncodeFlat()
	NewInferIndex(frozen, 4)
	if frozen.Nwk != nil || frozen.nwk != nil {
		t.Fatal("EncodeFlat or NewInferIndex built the dense rows")
	}
	frozen.Materialize()
	if err := frozen.Validate(); err != nil || !reflect.DeepEqual(frozen.Nwk, trained.Nwk) {
		t.Fatalf("materialised rows differ from the trained model's (%v)", err)
	}
}

// TestDecodeFlatRejectsDamagedNwk: every cut of a valid N_wk section
// fails to decode, and a model decoded from a section with one byte
// changed materialises and indexes without panicking.
func TestDecodeFlatRejectsDamagedNwk(t *testing.T) {
	m := sparsePhiModel(150, 60)
	m.Nwk = rowViews(m.nwk, m.K)
	m.nwk[7*m.K+100] = 300 // a two-byte count
	priors, nwk, err := m.EncodeFlat()
	if err != nil {
		t.Fatal(err)
	}
	for cut := range nwk {
		if _, err := DecodeFlat(priors, nwk[:cut], m.V, math.MaxInt); err == nil {
			t.Fatalf("a section cut at %d/%d decoded", cut, len(nwk))
		}
	}
	for i := range nwk {
		for _, b := range []byte{0, 1, 0x7f, 0x80, 0xff} {
			bad := append([]byte(nil), nwk...)
			bad[i] = b
			f, err := DecodeFlat(priors, bad, m.V, math.MaxInt)
			if err != nil {
				continue
			}
			NewInferIndex(f, 3)
			f.Materialize()
			if err := f.Validate(); err != nil {
				t.Fatalf("byte %d set to %#x: decoded model does not validate: %v", i, b, err)
			}
		}
	}
}
