package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := scanTokenize("Mining frequent patterns without candidate generation")
	want := [][]string{{"mining", "frequent", "patterns", "without", "candidate", "generation"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeSegmentsOnPunctuation(t *testing.T) {
	got := scanTokenize("Mining frequent patterns: a tree approach, revisited.")
	want := [][]string{
		{"mining", "frequent", "patterns"},
		{"a", "tree", "approach"},
		{"revisited"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeLowercases(t *testing.T) {
	got := scanTokenize("Markov Blanket Feature Selection")
	want := [][]string{{"markov", "blanket", "feature", "selection"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeKeepsInnerHyphenApostrophe(t *testing.T) {
	got := scanTokenize("state-of-the-art don't stop")
	want := [][]string{{"state-of-the-art", "don't", "stop"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeTrailingHyphenBreaks(t *testing.T) {
	got := scanTokenize("pre- and post-processing")
	// "pre-" has a dangling hyphen: token closes, segment breaks.
	want := [][]string{{"pre"}, {"and", "post-processing"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeQuotesBreakSegments(t *testing.T) {
	got := scanTokenize(`he said "strong tea" loudly`)
	want := [][]string{{"he", "said"}, {"strong", "tea"}, {"loudly"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	for _, in := range []string{"", "   ", "...", "?!,;:"} {
		if got := scanTokenize(in); len(got) != 0 {
			t.Errorf("scanTokenize(%q) = %v, want empty", in, got)
		}
	}
}

func TestTokenizeParentheses(t *testing.T) {
	got := scanTokenize("support vector machines (SVM) rock")
	want := [][]string{{"support", "vector", "machines"}, {"svm"}, {"rock"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeNumbersKeptAsTokens(t *testing.T) {
	got := scanTokenize("top 10 results")
	want := [][]string{{"top", "10", "results"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeNeverEmitsEmptyTokensOrSegments(t *testing.T) {
	f := func(s string) bool {
		for _, seg := range scanTokenize(s) {
			if len(seg) == 0 {
				return false
			}
			for _, tok := range seg {
				if tok == "" || tok != strings.ToLower(tok) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterRemovesStopwordsAndTracksGaps(t *testing.T) {
	seg := []string{"house", "and", "senate", "committee"}
	got := scanFilter(seg, true)
	want := []RawToken{
		{Surface: "house", Gap: ""},
		{Surface: "senate", Gap: "and"},
		{Surface: "committee", Gap: ""},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestFilterDropsPureNumbers(t *testing.T) {
	got := scanFilter([]string{"top", "10", "results"}, true)
	want := []RawToken{
		{Surface: "top", Gap: ""},
		{Surface: "results", Gap: "10"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestFilterLeadingGapCleared(t *testing.T) {
	got := scanFilter([]string{"the", "house"}, true)
	if len(got) != 1 || got[0].Gap != "" {
		t.Fatalf("leading stopword should not create a gap: %+v", got)
	}
}

func TestFilterAllStopwords(t *testing.T) {
	if got := scanFilter([]string{"the", "of", "and"}, true); len(got) != 0 {
		t.Fatalf("all-stopword segment should filter to empty, got %+v", got)
	}
}

func TestFilterNoStopwordRemoval(t *testing.T) {
	got := scanFilter([]string{"the", "house"}, false)
	if len(got) != 2 {
		t.Fatalf("with dropStopwords=false expected 2 tokens, got %+v", got)
	}
}

func TestFilterMultiWordGap(t *testing.T) {
	got := scanFilter([]string{"rice", "and", "the", "beans"}, true)
	if len(got) != 2 || got[1].Gap != "and the" {
		t.Fatalf("multi-word gap mis-tracked: %+v", got)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is", "we"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"mining", "database", "topic", "phrase"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestIsPhraseInvariantPunct(t *testing.T) {
	for _, r := range ".,;:!?()[]{}" {
		if !IsPhraseInvariantPunct(r) {
			t.Errorf("IsPhraseInvariantPunct(%q) = false", r)
		}
	}
	for _, r := range "ab1-' " {
		if IsPhraseInvariantPunct(r) {
			t.Errorf("IsPhraseInvariantPunct(%q) = true", r)
		}
	}
}
