package corpus

import "fmt"

// Appender extends an existing corpus with new documents in place.
// The corpus's own token columns are never copied or mutated — they
// may be zero-copy views into a read-only mmap'd corpus file — so
// appended tokens go to a fresh growable arena chained onto the last
// existing one (see tokenArena.prev). The shared vocabulary keeps
// interning exactly as a serial build would, which makes appending
// observationally identical to rebuilding from the concatenated
// input: same ids, same counts, same string pool, and therefore the
// same bytes when the grown corpus is persisted.
type Appender struct {
	c        *Corpus
	tk       *Tokenizer
	ar       *tokenArena
	poolBase int // pool entries inherited from the base corpus
	docsBase int
	tokens   int // kept tokens appended so far
}

// NewAppender prepares c for in-place growth. The corpus must carry a
// vocabulary that still supports interning (true for corpora built by
// this package and for corpora opened from .tpc files).
func NewAppender(c *Corpus) (*Appender, error) {
	if c == nil || c.Vocab == nil {
		return nil, fmt.Errorf("corpus: NewAppender: corpus has no vocabulary")
	}
	base := lastArena(c)
	keep := c.BuildOpts.KeepSurface
	if base != nil && base.keep != keep {
		return nil, fmt.Errorf("corpus: NewAppender: corpus arena and build options disagree on surface retention")
	}
	a := &Appender{c: c, tk: NewTokenizer(c.BuildOpts), docsBase: len(c.Docs)}
	a.ar = &tokenArena{keep: keep, prev: base}
	if keep {
		// The new arena's pool is cumulative: the base strings keep
		// their ids (only the headers are copied) and the intern table
		// is rebuilt over them once, so appended tokens intern against
		// the full pool exactly like a serial build over the
		// concatenated input would.
		if base == nil || len(base.pool.strs) == 0 {
			a.ar.pool.init()
		} else {
			strs := base.pool.strs
			a.ar.pool.strs = append(make([]string, 0, len(strs)), strs...)
			if err := a.ar.pool.reindex(); err != nil {
				return nil, fmt.Errorf("corpus: NewAppender: %w", err)
			}
		}
		a.poolBase = len(a.ar.pool.strs)
	}
	return a, nil
}

// lastArena returns the arena holding the corpus's final tokens — the
// chain head a new append arena must link to. Nil for corpora with no
// segments.
func lastArena(c *Corpus) *tokenArena {
	for i := len(c.Docs) - 1; i >= 0; i-- {
		if segs := c.Docs[i].Segments; len(segs) > 0 {
			return segs[len(segs)-1].ar
		}
	}
	return nil
}

// Add processes one raw document with the corpus's build options and
// appends it: the corpus's document list, token total and vocabulary
// all grow immediately. Like Builder.Add, documents that tokenize to
// nothing still occupy a slot.
func (a *Appender) Add(text string) *Document {
	doc := a.tk.add(a.ar, a.c.Vocab, text, len(a.c.Docs))
	n := doc.Len()
	a.c.TotalTokens += n
	a.tokens += n
	a.c.Docs = append(a.c.Docs, doc)
	return doc
}

// Stems returns text's kept stem sequence (see Tokenizer.Stems),
// appended to dst, through the appender's own tokenizer and stem memo.
func (a *Appender) Stems(text string, dst []string) []string { return a.tk.Stems(text, dst) }

// DocsAdded returns how many documents this appender has added.
func (a *Appender) DocsAdded() int { return len(a.c.Docs) - a.docsBase }

// TokensAdded returns how many kept tokens this appender has added.
func (a *Appender) TokensAdded() int { return a.tokens }

// Group returns the columnar delta of everything appended so far —
// the RawGroup a corpus file's appended segment persists. The slices
// alias the appender's arena; the caller must treat them as read-only
// and must not interleave further Adds with their use.
func (a *Appender) Group() *RawGroup {
	g := &RawGroup{Words: a.ar.words, TotalTokens: a.tokens}
	if a.ar.keep {
		g.Surface = a.ar.surface
		g.Gaps = a.ar.gaps
		g.PoolDelta = a.ar.pool.strs[a.poolBase:]
	}
	docs := a.c.Docs[a.docsBase:]
	g.SegCounts = make([]int32, len(docs))
	for i, d := range docs {
		g.SegCounts[i] = int32(len(d.Segments))
		for si := range d.Segments {
			g.SegOffs = append(g.SegOffs, d.Segments[si].off)
			g.SegLens = append(g.SegLens, d.Segments[si].n)
		}
	}
	return g
}
