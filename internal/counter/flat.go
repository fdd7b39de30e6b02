package counter

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"topmine/internal/secfile"
)

// FromColumns builds a counter over decoded columns — the one
// constructor behind both the gob and the flat decoder: key i maps to
// a pointer into counts, so the values live in one arena instead of
// one heap int64 per key.
func FromColumns(keys []string, counts []int64) *NGrams {
	c := &NGrams{m: make(map[string]*int64, len(keys))}
	for i, k := range keys {
		c.m[k] = &counts[i]
	}
	return c
}

// sortedKeys returns the counter's keys in ascending byte order, the
// order both wire forms use so identical counters encode identically.
func (c *NGrams) sortedKeys() []string {
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AppendFlat appends the counter's flat section encoding to dst:
//
//	uvarint keys, uvarint total words over all keys, then per key in
//	ascending key order: uvarint words, each word id as a uvarint,
//	uvarint count.
func (c *NGrams) AppendFlat(dst []byte) []byte {
	keys := c.sortedKeys()
	words := 0
	for _, k := range keys {
		words += KeyLen(k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	dst = binary.AppendUvarint(dst, uint64(words))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(KeyLen(k)))
		for i := 0; i < len(k); i += 4 {
			dst = binary.AppendUvarint(dst, uint64(binary.BigEndian.Uint32([]byte(k[i:i+4]))))
		}
		dst = binary.AppendUvarint(dst, uint64(*c.m[k]))
	}
	return dst
}

// DecodeFlat decodes a section written by AppendFlat in one pass: all
// keys are substrings of one string and all counts live in one arena.
// Keys must be non-empty, strictly ascending and hold word ids below
// vocabSize, and counts must be positive. Every count and length is
// checked against the bytes left, so no input allocates more than a
// small multiple of len(b).
func DecodeFlat(b []byte, vocabSize int) (*NGrams, error) {
	r := secfile.NewReader(b)
	n := r.Count(3)     // a key is at least its length, one id and its count
	words := r.Count(1) // an id is at least one byte
	var arena strings.Builder
	arena.Grow(4 * words)
	ends := make([]int, n)
	counts := make([]int64, n)
	var id [4]byte
	for i := range ends {
		nw := r.Count(1)
		if nw == 0 || nw > words {
			r.Fail("key %d holds %d words, %d of the header's left", i, nw, words)
			break
		}
		words -= nw
		for ; nw > 0; nw-- {
			w := r.Uvarint()
			if w >= uint64(vocabSize) {
				r.Fail("key %d holds word id %d, vocabulary size is %d", i, w, vocabSize)
			}
			binary.BigEndian.PutUint32(id[:], uint32(w))
			arena.Write(id[:])
		}
		ends[i] = arena.Len()
		counts[i] = int64(r.Uvarint())
		if counts[i] < 1 {
			r.Fail("key %d has count %d", i, counts[i])
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("counter: decoding phrase counts: %w", err)
	}
	if words != 0 {
		return nil, fmt.Errorf("counter: decoding phrase counts: %d words fewer than the header claims", words)
	}
	s := arena.String()
	keys := make([]string, n)
	start := 0
	for i, end := range ends {
		keys[i] = s[start:end]
		if i > 0 && keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("counter: decoding phrase counts: key %d is not above key %d", i, i-1)
		}
		start = end
	}
	return FromColumns(keys, counts), nil
}
