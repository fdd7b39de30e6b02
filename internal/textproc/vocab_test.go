package textproc

import (
	"testing"
	"testing/quick"
)

func TestVocabInternAssignsDenseIDs(t *testing.T) {
	v := NewVocab()
	a := v.Intern("mine", "mining")
	b := v.Intern("pattern", "patterns")
	c := v.Intern("mine", "mining")
	if a != c {
		t.Fatalf("same stem got different ids: %d vs %d", a, c)
	}
	if a == b {
		t.Fatalf("different stems share id %d", a)
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
	if v.Word(a) != "mine" || v.Word(b) != "pattern" {
		t.Fatalf("Word round-trip failed")
	}
}

func TestVocabCounts(t *testing.T) {
	v := NewVocab()
	id := v.Intern("mine", "mining")
	v.Intern("mine", "mined")
	v.Intern("mine", "mining")
	if got := v.Count(id); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestVocabUnstemPicksMostFrequentSurface(t *testing.T) {
	v := NewVocab()
	id := v.Intern("mine", "mined")
	v.Intern("mine", "mining")
	v.Intern("mine", "mining")
	if got := v.Unstem(id); got != "mining" {
		t.Fatalf("Unstem = %q, want %q", got, "mining")
	}
}

func TestVocabUnstemTieBreaksLexicographically(t *testing.T) {
	v := NewVocab()
	id := v.Intern("mine", "mining")
	v.Intern("mine", "mined")
	if got := v.Unstem(id); got != "mined" {
		t.Fatalf("Unstem tie = %q, want %q (lexicographic)", got, "mined")
	}
}

func TestVocabIDMissing(t *testing.T) {
	v := NewVocab()
	if _, ok := v.ID("absent"); ok {
		t.Fatal("ID reported presence for absent stem")
	}
}

func TestVocabBijectionProperty(t *testing.T) {
	v := NewVocab()
	seen := map[string]int32{}
	f := func(raw uint8) bool {
		stem := "w" + string(rune('a'+raw%26)) // cheap deterministic word-ish key
		id := v.Intern(stem, stem)
		if prev, ok := seen[stem]; ok && prev != id {
			return false
		}
		seen[stem] = id
		return v.Word(id) == stem
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
