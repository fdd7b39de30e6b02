package corpus

import (
	"fmt"

	"topmine/internal/strtab"
)

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
// empty string, letting absent gaps cost nothing to represent. While
// the pool is built, tab interns the strings into one arena and strs
// holds views of it; a compacted or borrowed pool has strs alone.
type stringPool struct {
	tab  strtab.Table
	strs []string
}

func (p *stringPool) init() {
	p.tab.Add("")
	p.strs = []string{""}
}

func (p *stringPool) intern(s string) uint32 {
	p.checkIndexed()
	return p.added(p.tab.Add(s))
}

// internBytes is intern for a scanner buffer: the bytes are copied
// only the first time the pool sees them.
func (p *stringPool) internBytes(b []byte) uint32 {
	p.checkIndexed()
	return p.added(p.tab.AddBytes(b))
}

func (p *stringPool) checkIndexed() {
	if p.tab.Len() == 0 {
		panic("corpus: intern on a compacted string pool")
	}
}

// added records a string the table has just interned.
func (p *stringPool) added(id int32, isNew bool) uint32 {
	if isNew {
		p.strs = append(p.strs, p.tab.Key(id))
	}
	return uint32(id)
}

// reindex rebuilds the intern table over strs, a compacted or borrowed
// pool, so that interning can continue where it left off. It fails if
// strs repeats a string: ids would no longer be the pool's.
func (p *stringPool) reindex() error {
	p.tab = strtab.Table{}
	for i, s := range p.strs {
		if _, added := p.tab.Add(s); !added {
			return fmt.Errorf("string pool entry %d repeats an earlier one", i)
		}
	}
	return nil
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
		// side tables), so skip the table allocation.
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
