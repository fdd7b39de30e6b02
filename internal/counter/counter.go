// Package counter implements the string-keyed phrase counter that holds
// Algorithm 1's result, {(P, C(P))}: the form the segmenter probes and
// the corpus and snapshot files store. (Algorithm 1 itself counts on
// integer phrase ids; see internal/phrasemine.)
//
// Keys are contiguous word-id sequences packed 4 bytes big-endian per
// id into a Go string: collision-free, order-preserving within one
// length class, and cheap to build. Lookups and increments of existing
// keys take the key as bytes and do not allocate; a new key is copied
// once, into the counter's arena.
package counter

import (
	"encoding/binary"
	"sort"

	"topmine/internal/strtab"
)

// Key packs the word ids into a map key.
func Key(words []int32) string {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(w))
	}
	return string(buf)
}

// AppendKey packs words[start:end] into dst (resetting it) and returns
// the updated buffer; use with GetBytes/IncBytes to avoid allocating
// on the hot path.
func AppendKey(dst []byte, words []int32, start, end int) []byte {
	dst = dst[:0]
	for _, w := range words[start:end] {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(w))
		dst = append(dst, b[:]...)
	}
	return dst
}

// Unkey unpacks a key back into word ids.
func Unkey(key string) []int32 {
	n := len(key) / 4
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = int32(binary.BigEndian.Uint32([]byte(key[4*i : 4*i+4])))
	}
	return out
}

// KeyLen returns the number of words encoded in key.
func KeyLen(key string) int { return len(key) / 4 }

// NGrams counts phrase occurrences: the keys sit in one flat interning
// table (internal/strtab) and the counts in one slice indexed by key id.
type NGrams struct {
	keys   strtab.Table
	counts []int64
}

// New returns an empty counter.
func New() *NGrams { return &NGrams{} }

// Inc adds one occurrence of key.
func (c *NGrams) Inc(key string) { c.Add(key, 1) }

// IncBytes adds one occurrence of the packed key held in buf. The
// lookup does not allocate; only first occurrences copy the key.
func (c *NGrams) IncBytes(buf []byte) {
	id, added := c.keys.AddBytes(buf)
	if added {
		c.counts = append(c.counts, 0)
	}
	c.counts[id]++
}

// Add adds delta occurrences of key.
func (c *NGrams) Add(key string, delta int64) {
	id, added := c.keys.Add(key)
	if added {
		c.counts = append(c.counts, 0)
	}
	c.counts[id] += delta
}

// Get returns the count for key (0 when absent).
func (c *NGrams) Get(key string) int64 {
	if id, ok := c.keys.Find(key); ok {
		return c.counts[id]
	}
	return 0
}

// GetBytes looks up a packed key held in a byte buffer without
// allocating.
func (c *NGrams) GetBytes(key []byte) int64 {
	if id, ok := c.keys.FindBytes(key); ok {
		return c.counts[id]
	}
	return 0
}

// Len returns the number of distinct keys.
func (c *NGrams) Len() int { return c.keys.Len() }

// MaxLen returns the number of words in the longest key, 0 when empty.
func (c *NGrams) MaxLen() int {
	longest := 0
	for id := range c.keys.Len() {
		longest = max(longest, c.keys.KeyLen(int32(id)))
	}
	return longest / 4
}

// Each calls f for every (key, count) pair in key id order: the order
// keys were first added, or the stored order for a decoded counter.
// The keys alias the counter's arena and stay valid after it changes.
func (c *NGrams) Each(f func(key string, count int64)) {
	for id, n := range c.counts {
		f(c.keys.Key(int32(id)), n)
	}
}

// Entry is one phrase with its corpus count.
type Entry struct {
	Words []int32
	Count int64
}

// Entries returns all entries with at least minWords words (0 = all),
// sorted by descending count then by key for determinism.
func (c *NGrams) Entries(minWords int) []Entry {
	type kv struct {
		k string
		v int64
	}
	tmp := make([]kv, 0, c.Len())
	c.Each(func(k string, v int64) {
		if KeyLen(k) >= minWords {
			tmp = append(tmp, kv{k, v})
		}
	})
	sort.Slice(tmp, func(i, j int) bool {
		if tmp[i].v != tmp[j].v {
			return tmp[i].v > tmp[j].v
		}
		return tmp[i].k < tmp[j].k
	})
	out := make([]Entry, len(tmp))
	for i, e := range tmp {
		out[i] = Entry{Words: Unkey(e.k), Count: e.v}
	}
	return out
}
