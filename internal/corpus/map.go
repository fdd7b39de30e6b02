package corpus

import "topmine/internal/textproc"

// MapText tokenizes raw text against an existing vocabulary without
// mutating it: out-of-vocabulary words are dropped like stop words. It
// is Tokenizer.MapInto wrapped as a Document that owns a private,
// surface-free token arena, so mapped documents are independent of any
// training corpus. Hot callers use MapInto with reused buffers instead.
func MapText(text string, v *textproc.Vocab, opt BuildOptions) *Document {
	words, ends := NewTokenizer(opt).MapInto(text, v, nil, nil)
	ar := &tokenArena{words: words}
	doc := &Document{ID: -1, Segments: make([]Segment, len(ends))}
	off := int32(0)
	for i, end := range ends {
		doc.Segments[i] = Segment{ar: ar, off: off, n: end - off}
		off = end
	}
	return doc
}
