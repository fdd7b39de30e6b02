package textproc

import (
	"reflect"
	"strings"
	"testing"
)

func TestTokenizeUnicodePunctuation(t *testing.T) {
	got := scanTokenize("models — fast, robust… and “cheap”")
	want := [][]string{{"models"}, {"fast"}, {"robust"}, {"and"}, {"cheap"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeApostropheEdge(t *testing.T) {
	// Possessive trailing apostrophe (plural) acts as punctuation.
	got := scanTokenize("the workers' union")
	want := [][]string{{"the", "workers"}, {"union"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeLeadingApostrophe(t *testing.T) {
	got := scanTokenize("'tis the season")
	// Leading apostrophe is punctuation (breaks segment before 'tis).
	if len(got) == 0 {
		t.Fatal("no tokens")
	}
	joined := ""
	for _, seg := range got {
		joined += strings.Join(seg, " ") + "|"
	}
	if !strings.Contains(joined, "tis the season") {
		t.Fatalf("unexpected tokens: %v", got)
	}
}

func TestTokenizeMixedDigitsLetters(t *testing.T) {
	got := scanTokenize("b2b sales via web2.0 apps")
	want := [][]string{{"b2b", "sales", "via", "web2"}, {"0", "apps"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeVeryLongToken(t *testing.T) {
	long := strings.Repeat("a", 10000)
	got := scanTokenize(long + " end")
	if len(got) != 1 || len(got[0]) != 2 || len(got[0][0]) != 10000 {
		t.Fatal("long token mangled")
	}
}

func TestTokenizeOnlyHyphens(t *testing.T) {
	if got := scanTokenize("--- -- -"); len(got) != 0 {
		t.Fatalf("hyphen runs should produce no tokens: %v", got)
	}
}

func TestTokenizeCRLFAndTabs(t *testing.T) {
	got := scanTokenize("one\ttwo\r\nthree")
	want := [][]string{{"one", "two", "three"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStemHyphenatedCompound(t *testing.T) {
	// Hyphenated tokens pass through the stemmer without panicking.
	got := Stem("state-of-the-art")
	if got == "" {
		t.Fatal("empty stem")
	}
}

func TestStemAllConsonants(t *testing.T) {
	for _, w := range []string{"rhythm", "tsk", "crwth"} {
		if got := Stem(w); got == "" {
			t.Fatalf("Stem(%q) empty", w)
		}
	}
}

func TestStemRepeatedLetters(t *testing.T) {
	// Pathological repeats must terminate and stay non-empty.
	for _, w := range []string{"aaaaaa", "ssssss", "eeeeee", "yyyyyy"} {
		if got := Stem(w); got == "" {
			t.Fatalf("Stem(%q) empty", w)
		}
	}
}

func TestFilterKeepsHyphenatedWords(t *testing.T) {
	kept := scanFilter([]string{"state-of-the-art", "method"}, true)
	if len(kept) != 2 {
		t.Fatalf("hyphenated token dropped: %+v", kept)
	}
}

func TestVocabUnstemUnknownID(t *testing.T) {
	v := NewVocab()
	id := v.Intern("mine", "mining")
	// Unstem of an id with surface data works; word lookup for a fresh
	// vocab id panics out of range — verify the supported path only.
	if v.Unstem(id) != "mining" {
		t.Fatal("unstem failed")
	}
}
