// Package textproc supplies the text-processing substrate for ToPMine:
// a segmenting byte scanner, the Porter stemmer, an English stop-word
// table, and a vocabulary that interns words and remembers how to
// un-stem them for display.
//
// The paper (§4.1) splits each document on "phrase-invariant
// punctuation (commas, periods, semicolons, etc)" so that frequent
// phrase mining and phrase construction operate on constant-size
// chunks, making the whole pipeline linear in corpus size. The scanner
// here performs exactly that split, in one pass over the text's bytes.
package textproc

import (
	"unicode"
	"unicode/utf8"
)

// Character classes of the scanner. Every rune that is not a word
// character, whitespace or a joiner ends the current segment: the
// phrase-invariant punctuation of §4.1, and conservatively any other
// symbol (including the U+FFFD an invalid UTF-8 byte decodes to).
const (
	clsBreak uint8 = iota
	clsSpace
	clsJoin  // '-' and '\'': part of a token only between word characters
	clsDigit // the first word class; every class from here on is a word rune
	clsLower
	clsUpper
	clsOther // a non-ASCII letter or digit
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z':
			t[c] = clsLower
		case 'A' <= c && c <= 'Z':
			t[c] = clsUpper
		case '0' <= c && c <= '9':
			t[c] = clsDigit
		case c == '-' || c == '\'':
			t[c] = clsJoin
		case unicode.IsSpace(rune(c)):
			t[c] = clsSpace
		}
	}
	return t
}()

func classOf(r rune) uint8 {
	switch {
	case r < utf8.RuneSelf:
		return asciiClass[r]
	case unicode.IsLetter(r) || unicode.IsDigit(r):
		return clsOther
	case unicode.IsSpace(r):
		return clsSpace
	}
	return clsBreak
}

// Scanner splits raw text into segments of kept, lowercased tokens in
// one pass over its bytes, with ASCII on a table-driven fast path.
// Segment boundaries occur at phrase-invariant punctuation; token
// boundaries occur at whitespace. Hyphens and apostrophes are kept when
// they join two word characters ("state-of-the-art", "don't") and act
// as punctuation otherwise. Tokens without a letter, and stop words
// when requested, are not yielded: they form the gap before the next
// kept token of the same segment, so displayed phrases can re-insert
// them (§7.1). A gap before a segment's first kept token is never
// phrase-internal and is dropped, as are dropped words at a segment's
// end.
//
// The zero value is ready after Reset. Token and Gap alias buffers the
// scanner reuses, so a warm Scanner allocates nothing. Not safe for
// concurrent use.
type Scanner struct {
	text     string
	pos      int
	dropStop bool
	keepGaps bool
	brk      bool // a segment boundary follows the last raw token
	open     bool // the current segment has yielded a kept token
	start    bool // the current kept token opens its segment
	letter   bool // the last raw token has a letter
	tok, gap []byte
}

// Reset starts scanning text. dropStopwords moves stop words into gaps;
// keepGaps makes Gap return the dropped words (otherwise it is empty
// and the scanner never copies them).
func (s *Scanner) Reset(text string, dropStopwords, keepGaps bool) {
	*s = Scanner{text: text, dropStop: dropStopwords, keepGaps: keepGaps, tok: s.tok[:0], gap: s.gap[:0]}
}

// Next advances to the next kept token, reporting false at the end of
// the text.
func (s *Scanner) Next() bool {
	s.gap = s.gap[:0]
	for {
		brk, ok := s.word()
		if !ok {
			return false
		}
		if brk {
			s.open = false
			s.gap = s.gap[:0]
		}
		if !s.letter || s.dropStop && stopwords[string(s.tok)] {
			if s.keepGaps && s.open {
				if len(s.gap) > 0 {
					s.gap = append(s.gap, ' ')
				}
				s.gap = append(s.gap, s.tok...)
			}
			continue
		}
		s.start, s.open = !s.open, true
		return true
	}
}

// Token returns the current kept token, lowercased. It is valid until
// the next call to Next or Reset.
func (s *Scanner) Token() []byte { return s.tok }

// Gap returns the dropped words between the previous kept token of the
// segment and the current one, space-separated: empty for a segment's
// first token and whenever gaps are not kept. It is valid until the
// next call to Next or Reset.
func (s *Scanner) Gap() []byte { return s.gap }

// SegmentStart reports whether the current kept token is the first of
// a new segment.
func (s *Scanner) SegmentStart() bool { return s.start }

// word scans the next raw token — kept or not — into s.tok and reports
// whether a segment boundary separates it from the previous one. ok is
// false once the text holds no further token.
func (s *Scanner) word() (brk, ok bool) {
	brk, s.brk = s.brk, false
	s.tok, s.letter = s.tok[:0], false
	for s.pos < len(s.text) {
		r, size := s.runeAt(s.pos)
		cls := classOf(r)
		s.pos += size
		switch cls {
		case clsLower:
			s.tok = append(s.tok, byte(r))
			s.letter = true
			continue
		case clsUpper:
			s.tok = append(s.tok, byte(r)+'a'-'A')
			s.letter = true
			continue
		case clsDigit:
			s.tok = append(s.tok, byte(r))
			continue
		case clsOther:
			l := unicode.ToLower(r)
			s.tok = utf8.AppendRune(s.tok, l)
			s.letter = s.letter || unicode.IsLetter(l)
			continue
		case clsJoin:
			if len(s.tok) > 0 && s.pos < len(s.text) {
				if next, _ := s.runeAt(s.pos); classOf(next) >= clsDigit {
					s.tok = append(s.tok, byte(r))
					continue
				}
			}
			cls = clsBreak
		}
		if len(s.tok) > 0 {
			s.brk = cls == clsBreak
			return brk, true
		}
		brk = brk || cls == clsBreak
	}
	return brk, len(s.tok) > 0
}

func (s *Scanner) runeAt(i int) (rune, int) {
	if c := s.text[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s.text[i:])
}
