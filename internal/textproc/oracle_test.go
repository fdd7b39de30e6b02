package textproc

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// This file keeps the rune-slice tokenizer and stop-word filter the
// pipeline used before Scanner, verbatim, as the oracle the scanner is
// fuzzed against: for any bytes, the scanner must yield exactly the
// tokens, segment boundaries and gaps Tokenize followed by Filter does.

// A RawToken is a surface token together with the stop words (or other
// dropped tokens) that immediately preceded it inside the same segment.
// The gap is what the paper re-inserts after mining so that phrases
// such as "house and senate" display naturally (§7.1).
type RawToken struct {
	Surface string // lowercased surface form, e.g. "mining"
	Gap     string // dropped words between the previous kept token and this one, e.g. "and"
}

// IsPhraseInvariantPunct reports whether r is punctuation across which
// no phrase may extend (§4.1). Hyphens and apostrophes are handled
// separately because they may occur inside a token.
func IsPhraseInvariantPunct(r rune) bool {
	switch r {
	case '.', ',', ';', ':', '!', '?', '(', ')', '[', ']', '{', '}',
		'"', '“', '”', '‘', '’', '…', '—', '–', '/', '\\', '|', '<', '>',
		'=', '+', '*', '&', '%', '$', '#', '@', '~', '^', '`':
		return true
	}
	return false
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenize splits text into segments of lowercased surface tokens.
// Segment boundaries occur at phrase-invariant punctuation; token
// boundaries occur at whitespace. Hyphens and apostrophes are kept when
// they join two word characters ("state-of-the-art", "don't") and act
// as punctuation otherwise. Empty segments are omitted.
func Tokenize(text string) [][]string {
	var (
		segments [][]string
		segment  []string
		token    []rune
	)
	runes := []rune(text)
	flushToken := func() {
		if len(token) > 0 {
			segment = append(segment, strings.ToLower(string(token)))
			token = token[:0]
		}
	}
	flushSegment := func() {
		flushToken()
		if len(segment) > 0 {
			segments = append(segments, segment)
			segment = nil
		}
	}
	for i, r := range runes {
		switch {
		case isWordRune(r):
			token = append(token, unicode.ToLower(r))
		case r == '-' || r == '\'':
			// Keep only when joining word characters on both sides.
			if len(token) > 0 && i+1 < len(runes) && isWordRune(runes[i+1]) {
				token = append(token, r)
			} else {
				flushSegment()
			}
		case unicode.IsSpace(r):
			flushToken()
		case IsPhraseInvariantPunct(r):
			flushSegment()
		default:
			// Unknown symbol: treat conservatively as punctuation.
			flushSegment()
		}
	}
	flushSegment()
	return segments
}

// hasLetter reports whether the token contains at least one letter;
// pure numbers and symbol runs are dropped from the mining stream.
func hasLetter(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) {
			return true
		}
	}
	return false
}

// Filter applies stop-word and non-word removal to one tokenized
// segment, recording removed words in the Gap of the following kept
// token so they can be re-inserted into displayed phrases. Dropped
// words at the end of a segment vanish (they can never be phrase-
// internal). If stem is true each kept token's Surface remains the raw
// surface form; stemming happens later so the surface is preserved.
func Filter(segment []string, dropStopwords bool) []RawToken {
	var (
		kept []RawToken
		gap  []string
	)
	for _, tok := range segment {
		drop := !hasLetter(tok) || (dropStopwords && IsStopword(tok))
		if drop {
			gap = append(gap, tok)
			continue
		}
		kept = append(kept, RawToken{Surface: tok, Gap: strings.Join(gap, " ")})
		gap = gap[:0]
	}
	if len(kept) > 0 {
		kept[0].Gap = "" // a leading gap is not phrase-internal
	}
	return kept
}

// scanTokenize renders the scanner's raw-token pass in Tokenize's
// shape: every token, kept or not, grouped by segment.
func scanTokenize(text string) [][]string {
	var s Scanner
	s.Reset(text, false, false)
	var segs [][]string
	for {
		brk, ok := s.word()
		if !ok {
			return segs
		}
		if brk || len(segs) == 0 {
			segs = append(segs, nil)
		}
		segs[len(segs)-1] = append(segs[len(segs)-1], string(s.tok))
	}
}

// scanFilter runs the scanner over one tokenized segment, rejoined by
// spaces, in Filter's shape.
func scanFilter(segment []string, dropStopwords bool) []RawToken {
	var kept []RawToken
	for _, seg := range scanSegments(strings.Join(segment, " "), dropStopwords, true) {
		kept = append(kept, seg...)
	}
	return kept
}

// scanSegments collects the scanner's kept tokens and gaps by segment.
func scanSegments(text string, dropStopwords, keepGaps bool) [][]RawToken {
	var s Scanner
	s.Reset(text, dropStopwords, keepGaps)
	var segs [][]RawToken
	for s.Next() {
		if s.SegmentStart() {
			segs = append(segs, nil)
		}
		segs[len(segs)-1] = append(segs[len(segs)-1], RawToken{Surface: string(s.Token()), Gap: string(s.Gap())})
	}
	return segs
}

// oracleSegments is Tokenize followed by Filter, with segments that
// keep no token omitted — what every pipeline stage consumed before
// the scanner. Without keepGaps the gaps are blanked.
func oracleSegments(text string, dropStopwords, keepGaps bool) [][]RawToken {
	var segs [][]RawToken
	for _, raw := range Tokenize(text) {
		kept := Filter(raw, dropStopwords)
		if len(kept) == 0 {
			continue
		}
		if !keepGaps {
			for i := range kept {
				kept[i].Gap = ""
			}
		}
		segs = append(segs, kept)
	}
	return segs
}

// checkScanMatchesOracle compares the scanner with the oracle on one
// text, for both stop-word settings and with and without gaps.
func checkScanMatchesOracle(t *testing.T, text string) {
	t.Helper()
	if got, want := scanTokenize(text), Tokenize(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("raw tokens of %q:\nscanner %q\noracle  %q", text, got, want)
	}
	for _, drop := range []bool{true, false} {
		for _, keep := range []bool{true, false} {
			if got, want := scanSegments(text, drop, keep), oracleSegments(text, drop, keep); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q (dropStopwords=%v keepGaps=%v):\nscanner %q\noracle  %q", text, drop, keep, got, want)
			}
		}
	}
}

// scanSeeds are the inputs of the tokenizer and filter unit tests plus
// the byte-level edge cases the ASCII fast path must agree on.
var scanSeeds = []string{
	"Mining frequent patterns without candidate generation",
	"Mining frequent patterns: a tree approach, revisited.",
	"Markov Blanket Feature Selection",
	"state-of-the-art don't stop",
	"pre- and post-processing",
	`he said "strong tea" loudly`,
	"", "   ", "...", "?!,;:",
	"support vector machines (SVM) rock",
	"top 10 results",
	"house and senate committee",
	"rice and the beans",
	"the of and",
	"models — fast, robust… and “cheap”",
	"the workers' union",
	"'tis the season",
	"b2b sales via web2.0 apps",
	"--- -- -",
	"one\ttwo\r\nthree",
	"a-é é-a 1-a a-1 a--b a-'b a'-b -a a- 'a a'",
	"Zürich ΣΟΦΙΑ İstanbul ǅ ﬁ ١٢٣ ²³ ＡＢＣ 数据mining",
	"bad \xff\xfe utf8 \xc3 a\x80b c\xe2\x80d e-\xff",
	"nbsp\u00a0em\u2003nel\u0085zwsp\u200bend",
	"x = y + z * 2 & 50% of $5 #tag @me ~x ^y `z` a/b c|d <e>",
}

func TestScannerMatchesOracle(t *testing.T) {
	for _, text := range scanSeeds {
		checkScanMatchesOracle(t, text)
	}
}

// FuzzScan checks the scanner against the oracle on arbitrary bytes:
// tokens, segment boundaries and gaps, under both stop-word settings.
func FuzzScan(f *testing.F) {
	for _, text := range scanSeeds {
		f.Add(text)
	}
	f.Fuzz(checkScanMatchesOracle)
}

// TestScannerReuseAllocatesNothing pins that a warm scanner yields
// tokens and gaps without allocating.
func TestScannerReuseAllocatesNothing(t *testing.T) {
	text := "Support-Vector machines, and the query processing of 42 Zürich databases."
	var s Scanner
	scan := func() {
		s.Reset(text, true, true)
		for s.Next() {
		}
	}
	scan()
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Fatalf("warm scan allocates %v times", n)
	}
}
