package corpus

import "topmine/internal/textproc"

// Tokenizer is the one path from raw text to kept tokens: textproc's
// byte scanner, plus a memo from each lowercased surface form to its
// stem. Building (Builder, Appender, every BuildFromSource worker),
// read-only mapping (MapInto, MapText) and corpus-file sketching all
// scan through it, so they cannot disagree on a token.
//
// Porter stemming is a pure function, so the memo is exact: a Tokenizer
// kept across documents stems each distinct surface form once, and a
// repeated token costs a map probe instead of a stem and two string
// allocations. The memo holds the same strings the vocabulary's surface
// votes keep; it stops growing at maxForms entries, after which a new
// form is stemmed every time it occurs. Not safe for concurrent use.
type Tokenizer struct {
	opt   BuildOptions
	sc    textproc.Scanner
	forms map[string]form
	stem  []byte // MapInto's stemming buffer
}

// maxForms caps one Tokenizer's memo: every ingest worker keeps its own,
// so the cap bounds their sum on corpora whose vocabulary has no end
// (identifiers, typos). Frequent forms arrive early and are memoised
// first.
const maxForms = 1 << 18

// form is one memoised surface form and its stem. The strings are the
// ones the vocabulary and the arena's string pool keep, so interning a
// repeated token allocates nothing.
type form struct{ surface, stem string }

// NewTokenizer returns a Tokenizer normalising text as opt says.
func NewTokenizer(opt BuildOptions) *Tokenizer {
	return &Tokenizer{opt: opt, forms: make(map[string]form)}
}

// form returns the memoised form of the current token.
func (t *Tokenizer) form() form {
	tok := t.sc.Token()
	if f, ok := t.forms[string(tok)]; ok {
		return f
	}
	s := string(tok)
	f := form{surface: s, stem: s}
	if t.opt.Stem {
		f.stem = textproc.Stem(s)
	}
	if len(t.forms) < maxForms {
		t.forms[s] = f
	}
	return f
}

// Stems appends text's kept stem sequence, segments concatenated in
// order, to dst: the representation min-hash sketches are defined over.
func (t *Tokenizer) Stems(text string, dst []string) []string {
	t.sc.Reset(text, t.opt.RemoveStopwords, false)
	for t.sc.Next() {
		dst = append(dst, t.form().stem)
	}
	return dst
}

// add scans one raw document into ar, interning its stems into vocab.
// Documents that keep no token still get a (segment-free) Document.
func (t *Tokenizer) add(ar *tokenArena, vocab *textproc.Vocab, text string, id int) *Document {
	doc := &Document{ID: id}
	t.sc.Reset(text, t.opt.RemoveStopwords, t.opt.KeepSurface)
	off := ar.mark()
	for t.sc.Next() {
		if t.sc.SegmentStart() && ar.mark() > off {
			doc.Segments = append(doc.Segments, ar.seg(off))
			off = ar.mark()
		}
		ar.grow(1)
		f := t.form()
		ar.push(vocab.Intern(f.stem, f.surface), f.surface, t.sc.Gap())
	}
	if ar.mark() > off {
		doc.Segments = append(doc.Segments, ar.seg(off))
	}
	return doc
}

// MapInto scans text against v without mutating either: every kept
// token that resolves to a vocabulary id is appended to words, and the
// end offset (in words) of every segment that kept at least one id is
// appended to ends. Out-of-vocabulary tokens are dropped like stop
// words. A surface form training saw as its own stem resolves without
// Porter (see textproc.Vocab.Resolve); the memo is not consulted, so
// serving builds no table. This is the serving path: with buffers
// reused across calls it allocates nothing.
func (t *Tokenizer) MapInto(text string, v *textproc.Vocab, words, ends []int32) ([]int32, []int32) {
	t.sc.Reset(text, t.opt.RemoveStopwords, false)
	off := len(words)
	for t.sc.Next() {
		if t.sc.SegmentStart() && len(words) > off {
			ends = append(ends, int32(len(words)))
			off = len(words)
		}
		if id, ok := v.Resolve(t.sc.Token(), t.opt.Stem, &t.stem); ok {
			words = append(words, id)
		}
	}
	if len(words) > off {
		ends = append(ends, int32(len(words)))
	}
	return words, ends
}
