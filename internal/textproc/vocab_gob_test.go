package textproc

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"
)

// legacyGob encodes v in the gob wire form earlier builds wrote, which
// GobDecode still reads.
func legacyGob(t testing.TB, v *Vocab) []byte {
	t.Helper()
	var w vocabWire
	for id := range v.Size() {
		votes := slices.Clone(v.surface[id])
		slices.SortFunc(votes, func(a, b surfaceVote) int { return strings.Compare(a.form, b.form) })
		var forms []string
		var counts []int
		for _, sv := range votes {
			forms = append(forms, sv.form)
			counts = append(counts, sv.n)
		}
		w.Words = append(w.Words, v.Word(int32(id)))
		w.Counts = append(w.Counts, v.Count(int32(id)))
		w.SurfaceForms = append(w.SurfaceForms, forms)
		w.SurfaceCounts = append(w.SurfaceCounts, counts)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVocabGobRoundTrip(t *testing.T) {
	v := NewVocab()
	v.Intern("mine", "mining")
	v.Intern("mine", "mining")
	v.Intern("mine", "mines")
	v.Intern("topic", "topics")
	v.Intern("phrase", "phrase")

	var got Vocab
	if err := got.GobDecode(legacyGob(t, v)); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if got.Size() != v.Size() {
		t.Fatalf("size = %d, want %d", got.Size(), v.Size())
	}
	for id := int32(0); int(id) < v.Size(); id++ {
		if got.Word(id) != v.Word(id) {
			t.Fatalf("word %d = %q, want %q", id, got.Word(id), v.Word(id))
		}
		if got.Count(id) != v.Count(id) {
			t.Fatalf("count %d = %d, want %d", id, got.Count(id), v.Count(id))
		}
		if got.Unstem(id) != v.Unstem(id) {
			t.Fatalf("unstem %d = %q, want %q", id, got.Unstem(id), v.Unstem(id))
		}
	}
	// The rebuilt index must resolve stems, including after new interns.
	if id, ok := got.ID("topic"); !ok || got.Word(id) != "topic" {
		t.Fatalf("ID(topic) = %d, %v", id, ok)
	}
	next := got.Intern("corpus", "corpora")
	if int(next) != v.Size() {
		t.Fatalf("post-decode intern id = %d, want %d", next, v.Size())
	}
}

// TestVocabFlatDeterministic: equal vocabularies whose surface votes
// arrived in different orders encode to the same flat bytes.
func TestVocabFlatDeterministic(t *testing.T) {
	build := func(forms ...string) *Vocab {
		v := NewVocab()
		for _, f := range forms {
			v.Intern("mine", f)
		}
		v.Intern("text", "texts")
		return v
	}
	a := build("mining", "mined", "mines").AppendFlat(nil)
	b := build("mines", "mining", "mined").AppendFlat(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("identical vocabularies encoded to different bytes")
	}
}

func TestVocabGobEmptyAndCorrupt(t *testing.T) {
	var got Vocab
	if err := got.GobDecode(legacyGob(t, NewVocab())); err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got.Size() != 0 {
		t.Fatalf("empty vocab decoded to size %d", got.Size())
	}
	if err := got.GobDecode([]byte("junk")); err == nil {
		t.Fatal("corrupt vocab bytes accepted")
	}
}
