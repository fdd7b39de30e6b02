package corpus

// The columnar corpus layout: instead of every Segment owning three
// parallel slices (Words []int32, Surface []string, Gaps []string — 3
// slice headers plus 2 string headers and a fresh string allocation per
// token), all tokens of a corpus live in one flat arena and a Segment
// is just an offset range into it. Surface forms and gaps are interned
// in a shared string pool — gaps like " the " and " of " repeat
// massively, and surface forms repeat once per word occurrence — so the
// per-token cost drops from ~36 bytes of headers plus two string
// bodies to 12 bytes of ids (4 when surfaces are not kept).
//
// Appending to the arena never invalidates existing Segments: they
// address the arena through a stable *tokenArena pointer and the arena
// only grows, so offsets taken before an append remain correct after
// the backing slices are reallocated.

// stringPool interns strings as dense uint32 ids. Id 0 is always the
// empty string, letting absent gaps cost nothing to represent.
type stringPool struct {
	ids  map[string]uint32
	strs []string
}

func (p *stringPool) init() {
	p.ids = map[string]uint32{"": 0}
	p.strs = []string{""}
}

func (p *stringPool) intern(s string) uint32 {
	if p.ids == nil {
		panic("corpus: intern on a compacted string pool")
	}
	if id, ok := p.ids[s]; ok {
		return id
	}
	id := uint32(len(p.strs))
	p.ids[s] = id
	p.strs = append(p.strs, s)
	return id
}

// internBytes is intern for a scanner buffer: a string is allocated
// only the first time the pool sees b.
func (p *stringPool) internBytes(b []byte) uint32 {
	if id, ok := p.ids[string(b)]; ok {
		return id
	}
	return p.intern(string(b))
}

// tokenArena is the flat token store shared by every Segment of one
// corpus (or one MapText document). words holds the vocabulary id of
// every kept token in corpus order; surface and gaps, when surfaces are
// kept, hold pool ids parallel to words.
type tokenArena struct {
	words   []int32
	surface []uint32
	gaps    []uint32
	pool    stringPool
	keep    bool
	// sealed marks an arena whose backing storage is borrowed — a
	// mmap'd corpus-file region, or slices handed to FromRaw — rather
	// than owned append-grown memory. Pushing to a sealed arena would
	// either fault (read-only mapping) or silently detach the borrowed
	// view, so it panics instead.
	sealed bool
	// prev chains this arena to the one holding the corpus's earlier
	// tokens. A freshly built corpus has a single arena (prev nil);
	// every Append — in memory via Appender, or on disk via a corpus
	// file's appended segment groups — adds one arena to the chain
	// instead of copying the existing (possibly mmap'd, read-only)
	// token columns. Chained arenas keep cumulative string pools: an
	// arena's pool always extends its prev's, so pool ids from earlier
	// arenas stay valid everywhere down the chain.
	prev *tokenArena
}

func newArena(keepSurface bool) *tokenArena {
	ar := &tokenArena{keep: keepSurface}
	if keepSurface {
		// Without surfaces nothing is ever interned (push skips the
		// side tables), so skip the map allocation.
		ar.pool.init()
	}
	return ar
}

// maxArenaTokens is the arena's capacity ceiling: offsets are int32,
// so one corpus holds at most 2^31-1 kept tokens (roughly 13 GB of
// English text). grow panics past it rather than letting the cast in
// mark wrap silently and corrupt segment offsets.
const maxArenaTokens = 1<<31 - 1

func (ar *tokenArena) grow(n int) {
	if ar.sealed {
		panic("corpus: append to a sealed (borrowed-storage) token arena")
	}
	if len(ar.words)+n > maxArenaTokens {
		panic("corpus: corpus exceeds 2^31 tokens; shard the input into multiple corpora")
	}
}

// mark returns the current end of the arena — the offset the next
// pushed token will occupy.
func (ar *tokenArena) mark() int32 { return int32(len(ar.words)) }

// push appends one kept token. surface and gap are ignored unless the
// arena keeps surfaces.
func (ar *tokenArena) push(w int32, surface string, gap []byte) {
	ar.words = append(ar.words, w)
	if ar.keep {
		ar.surface = append(ar.surface, ar.pool.intern(surface))
		ar.gaps = append(ar.gaps, ar.pool.internBytes(gap))
	}
}

// seg closes the segment opened at mark() == off, spanning every token
// pushed since.
func (ar *tokenArena) seg(off int32) Segment {
	return Segment{ar: ar, off: off, n: int32(len(ar.words)) - off}
}
