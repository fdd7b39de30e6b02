package counter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"topmine/internal/secfile"
	"topmine/internal/strtab"
)

// FromColumns builds a counter over keys laid out back to back in
// arena, key i ending at ends[i], with counts[i] occurrences. It adopts
// all three slices. The keys must be pairwise distinct — Algorithm 1's
// phrase ids and the flat decoder's ascending check guarantee it — so
// they are indexed without being compared.
func FromColumns(arena []byte, ends []uint32, counts []int64) *NGrams {
	return fromTable(strtab.BuildDistinct(arena, ends), counts)
}

// fromTable pairs a key table with its counts; an empty counter holds
// nil counts, as New's does.
func fromTable(keys strtab.Table, counts []int64) *NGrams {
	if len(counts) == 0 {
		counts = nil
	}
	return &NGrams{keys: keys, counts: counts}
}

// sortedIDs returns the counter's key ids in ascending key byte order,
// the order AppendFlat writes so identical counters encode identically.
func (c *NGrams) sortedIDs() []int32 {
	ids := make([]int32, c.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(c.keys.Key(a), c.keys.Key(b)) })
	return ids
}

// AppendFlat appends the counter's flat section encoding to dst:
//
//	uvarint keys, uvarint total words over all keys, then per key in
//	ascending key order: uvarint words, each word id as a uvarint,
//	uvarint count.
func (c *NGrams) AppendFlat(dst []byte) []byte {
	ids := c.sortedIDs()
	words := 0
	for _, id := range ids {
		words += c.keys.KeyLen(id) / 4
	}
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	dst = binary.AppendUvarint(dst, uint64(words))
	for _, id := range ids {
		k := c.keys.Key(id)
		dst = binary.AppendUvarint(dst, uint64(KeyLen(k)))
		for i := 0; i < len(k); i += 4 {
			dst = binary.AppendUvarint(dst, uint64(binary.BigEndian.Uint32([]byte(k[i:i+4]))))
		}
		dst = binary.AppendUvarint(dst, uint64(c.counts[id]))
	}
	return dst
}

// DecodeFlat decodes a section written by AppendFlat in one pass,
// straight into the counter's key arena and count slice. Keys must be
// non-empty, strictly ascending and hold word ids below vocabSize, and
// counts must be positive. Every count and length is checked against
// the bytes left, so no input allocates more than a small multiple of
// len(b).
func DecodeFlat(b []byte, vocabSize int) (*NGrams, error) {
	r := secfile.NewReader(b)
	n := r.Count(3)     // a key is at least its length, one id and its count
	words := r.Count(1) // an id is at least one byte
	if 4*uint64(words) > strtab.MaxBytes {
		r.Fail("%d words exceed a key table's %d bytes", words, strtab.MaxBytes)
		n, words = 0, 0
	}
	arena := make([]byte, 0, 4*words)
	ends := make([]uint32, n)
	counts := make([]int64, n)
	prev, start := 0, 0 // key i-1 is arena[prev:start]
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
			arena = binary.BigEndian.AppendUint32(arena, uint32(w))
		}
		if i > 0 && bytes.Compare(arena[start:], arena[prev:start]) <= 0 {
			r.Fail("key %d is not above key %d", i, i-1)
			break
		}
		ends[i] = uint32(len(arena))
		prev, start = start, len(arena)
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
	return FromColumns(arena, ends, counts), nil
}
