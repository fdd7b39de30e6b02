// Package phrasemine implements Algorithm 1 of the paper: frequent
// contiguous phrase mining with position-based Apriori pruning
// (downward closure) and document data-antimonotonicity.
//
// The mining unit is the punctuation-delimited segment (§4.1), which
// bounds per-unit work by a constant and makes total work linear in
// corpus size. At iteration n, candidate phrases of length n are
// counted only at "active indices" — positions whose length-(n-1)
// prefix is frequent and whose successor position is also active (so
// the length-(n-1) suffix is frequent too). Segments left with fewer
// than two active indices drop out of all further consideration.
//
// Mining runs on integer ids: a frequent phrase has a dense id at its
// level (a unigram's is its word id), and a length-n candidate is the
// key (id of its length-(n-1) prefix, next word id) in one
// open-addressed table per level. String keys are built only for the
// frequent phrases, when the result crosses into counter.NGrams.
package phrasemine

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"topmine/internal/corpus"
	"topmine/internal/counter"
)

// Options configures mining.
type Options struct {
	// MinSupport is the paper's ε: the minimum corpus count for a
	// phrase to be considered frequent. Values < 1 are treated as 1.
	MinSupport int
	// MaxLen bounds phrase length; 0 means unbounded (mining stops when
	// no candidates survive, the natural termination of Algorithm 1).
	MaxLen int
}

// DefaultOptions returns the options used throughout the paper's
// experiments: an absolute support floor suitable for medium corpora.
func DefaultOptions() Options { return Options{MinSupport: 5, MaxLen: 8} }

// Result carries the mined aggregate statistics.
type Result struct {
	// Counts maps every frequent phrase (length >= 1, count >= ε) to
	// its corpus count. This is the {(P, C(P))} of Algorithm 1 and the
	// input to the significance-guided segmentation.
	Counts *counter.NGrams
	// TotalTokens is L, the corpus token count used by the Bernoulli
	// null model of the significance score.
	TotalTokens int
	// MinSupport echoes the effective ε.
	MinSupport int
	// MaxPhraseLen is the length of the longest frequent phrase found.
	MaxPhraseLen int
	// LevelCandidates[n] is the number of distinct length-n candidates
	// counted (diagnostics: shows Apriori pruning at work).
	LevelCandidates []int
}

// sep follows every segment in the flat token copy. Word ids are
// non-negative, so sep is never active and no candidate spans it.
const sep = -1

// site is an active index: a position in the flat token copy and the
// id of the frequent phrase of the current length starting there.
type site struct{ pos, id int32 }

// Mine runs Algorithm 1 over the corpus.
func Mine(c *corpus.Corpus, opt Options) *Result {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}

	// Level 1: copy every non-empty segment into one flat slice, each
	// followed by sep (the first also preceded by one), and count
	// unigrams in an array by word id.
	size := 1
	for _, d := range c.Docs {
		size += d.Len() + len(d.Segments)
	}
	words := append(make([]int32, 0, size), sep)
	for _, d := range c.Docs {
		for i := range d.Segments {
			if w := d.Segments[i].Words(); len(w) > 0 {
				words = append(append(words, w...), sep)
			}
		}
	}
	uni := make([]phrase, slices.Max(words)+1) // a unigram's id is its word id
	for w := range uni {
		uni[w].key = pair(0, int32(w))
	}
	distinct := 0
	for _, w := range words {
		if w != sep {
			if uni[w].count == 0 {
				distinct++
			}
			uni[w].count++
		}
	}
	res := &Result{
		TotalTokens:     c.TotalTokens,
		MinSupport:      opt.MinSupport,
		LevelCandidates: []int{0, distinct}, // index 0 unused
	}

	// Level-2 active indices: positions holding a frequent unigram.
	act := make([]site, 0, len(words))
	for p, w := range words {
		if w != sep && int(uni[w].count) >= opt.MinSupport {
			act = append(act, site{int32(p), w})
			res.MaxPhraseLen = 1
		}
	}

	levels := [][]phrase{uni} // levels[n-1] holds the length-n phrases by id
	for n := 2; paired(act, words) && (opt.MaxLen == 0 || n <= opt.MaxLen); n++ {
		// A candidate starts at every active index whose successor is
		// active too; it extends the prefix there by one word.
		var t table
		for k := 0; k+1 < len(act); k++ {
			if a := act[k]; act[k+1].pos == a.pos+1 {
				t.inc(pair(a.id, words[int(a.pos)+n-1]))
			}
		}
		res.LevelCandidates = append(res.LevelCandidates, t.n)
		level := t.prune(opt.MinSupport)
		if len(level) > 0 {
			res.MaxPhraseLen = n
		}
		levels = append(levels, level)

		// An active index survives iff its candidate is frequent, and
		// takes that candidate's id. act is compacted in place: act[k+1]
		// is read before anything is written past k.
		next := act[:0]
		for k := 0; k+1 < len(act); k++ {
			if a := act[k]; act[k+1].pos == a.pos+1 {
				if id := t.get(pair(a.id, words[int(a.pos)+n-1])); id >= 0 {
					next = append(next, site{a.pos, id})
				}
			}
		}
		act = next
	}
	res.Counts = ngrams(levels, opt.MinSupport)
	return res
}

// paired reports whether some segment holds two active indices —
// Algorithm 1's condition for counting another level, met even when
// no two of them are adjacent (the level then counts no candidates).
// The scans cover disjoint stretches of words, so the check is linear.
func paired(act []site, words []int32) bool {
	for k := 0; k+1 < len(act); k++ {
		if !slices.Contains(words[act[k].pos:act[k+1].pos], sep) {
			return true
		}
	}
	return false
}

// pair is a candidate's key: its prefix's id and its last word.
func pair(prefix, word int32) uint64 { return uint64(prefix)<<32 | uint64(word) }

// phrase is one phrase of a level: its pair key and its count.
type phrase struct {
	key   uint64
	count int32
}

// table counts one level's candidate keys by open addressing with
// linear probing at load ≤ ¾. A slot holds key+1, so 0 marks it empty.
// While counting, vals holds each key's count; prune then replaces it
// with the key's dense id, or -1 when the key is infrequent. The corpus
// arena is int32-addressed, so no count overflows.
type table struct {
	keys  []uint64
	vals  []int32
	n     int
	shift uint // 64 - log2(len(keys))
}

// slot returns the slot holding key+1, or the empty slot where it
// belongs.
func (t *table) slot(k uint64) int {
	s := int((k * 0x9E3779B97F4A7C15) >> t.shift)
	for t.keys[s] != k && t.keys[s] != 0 {
		s = (s + 1) & (len(t.keys) - 1)
	}
	return s
}

func (t *table) inc(key uint64) {
	if 4*t.n >= 3*len(t.keys) {
		t.grow()
	}
	s := t.slot(key + 1)
	if t.keys[s] == 0 {
		t.keys[s] = key + 1
		t.n++
	}
	t.vals[s]++
}

// grow doubles the table (to 1024 slots from empty) and reinserts
// every key.
func (t *table) grow() {
	keys, vals := t.keys, t.vals
	size := max(2*len(keys), 1<<10)
	t.keys, t.vals = make([]uint64, size), make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, k := range keys {
		if k != 0 {
			s := t.slot(k)
			t.keys[s], t.vals[s] = k, vals[i]
		}
	}
}

// get returns the id prune gave key, or -1 when it was infrequent.
func (t *table) get(key uint64) int32 { return t.vals[t.slot(key+1)] }

// prune gives every key counted at least min times the next dense id,
// in slot order, and returns those keys with their counts by id.
func (t *table) prune(min int) []phrase {
	var out []phrase
	for s, k := range t.keys {
		if k == 0 {
			continue
		}
		if int(t.vals[s]) >= min {
			out = append(out, phrase{k - 1, t.vals[s]})
			t.vals[s] = int32(len(out) - 1)
		} else {
			t.vals[s] = -1
		}
	}
	return out
}

// ngrams converts the phrases counted at least min times to the
// string-keyed counter. Each level's keys lie back to back in one
// buffer, in id order, every key rebuilt from its prefix's key in the
// previous level's buffer and its last word; the kept keys are copied
// into the counter's arena, level by level.
func ngrams(levels [][]phrase, min int) *counter.NGrams {
	size, n := 0, 0
	for i, level := range levels {
		for _, p := range level {
			if int(p.count) >= min {
				size, n = size+4*(i+1), n+1
			}
		}
	}
	arena := make([]byte, 0, size)
	ends := make([]uint32, 0, n)
	counts := make([]int64, 0, n)
	var prev []byte
	for i, level := range levels {
		l := 4 * i // the prefix's key length
		b := make([]byte, 0, (l+4)*len(level))
		for _, p := range level {
			off := l * int(p.key>>32)
			b = binary.BigEndian.AppendUint32(append(b, prev[off:off+l]...), uint32(p.key))
			if int(p.count) >= min {
				arena = append(arena, b[len(b)-l-4:]...)
				ends, counts = append(ends, uint32(len(arena))), append(counts, int64(p.count))
			}
		}
		prev = b
	}
	return counter.FromColumns(arena, ends, counts)
}
