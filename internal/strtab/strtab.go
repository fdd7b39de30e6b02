// Package strtab interns byte strings as dense int32 ids in one flat
// table: the keys lie back to back in one append-only byte arena, a
// []uint32 holds each key's end offset, and an open-addressed []uint32
// slot array indexes them. It is the one string-keyed index behind the
// vocabulary, the phrase counter and the corpus string pool: a decoder
// writes the keys straight into the arena and the table fills its slot
// array in one pass, with no Go map and no string per key.
//
// The slot array is hashed with hash/maphash under one random seed per
// process and is never persisted, so no input can be crafted to collide
// in it. Its size is canonical: the smallest power of two of at least 8
// slots that keeps the load at or under ¾ with one key to spare (no
// slots for an empty table), reached by Build and by growth alike. Keys
// are placed by linear probing in id order, so two tables holding the
// same keys in the same id order are identical, field for field.
//
// Limits: at most 2³¹−1 keys (ids are int32) holding at most 4 GiB of
// key bytes together (end offsets are uint32). Add panics past them;
// decoders check them against their input first.
//
// Lookups never write, so a table that is no longer added to may be
// read from any number of goroutines.
package strtab

import (
	"hash/maphash"
	"math"
	"math/bits"
	"unsafe"
)

// seed keys every table of the process.
var seed = maphash.MakeSeed()

// MaxBytes is the most key bytes one table holds; its ids are int32,
// so it holds at most math.MaxInt32 keys.
const MaxBytes uint64 = math.MaxUint32

// Table is a set of distinct byte strings with dense ids in insertion
// order. The zero value is an empty table ready for use.
//
// A slot holds 0 when empty, else id+1 in its low bits (id+1 < len(slots)
// always, since the load stays under ¾) and the hash's top bits above
// them, so most probes of other keys are rejected without touching the
// arena.
type Table struct {
	arena []byte
	ends  []uint32
	slots []uint32
}

// Build returns the table whose key i is arena[ends[i-1]:ends[i]]
// (ends[-1] = 0), adopting both slices. ends must be non-decreasing and
// end at len(arena). The second result is the id of the first key equal
// to an earlier one, or -1; the table is valid only when it is -1.
func Build(arena []byte, ends []uint32) (Table, int32) {
	t := adopt(arena, ends)
	for id := range t.ends {
		key := t.Key(int32(id))
		h := maphash.String(seed, key)
		if _, ok := t.find(key, h); ok {
			return Table{}, int32(id)
		}
		t.place(h, int32(id))
	}
	return t, -1
}

// BuildDistinct is Build for keys the caller knows to be pairwise
// distinct, such as keys it has checked to be strictly ascending: it
// compares no keys.
func BuildDistinct(arena []byte, ends []uint32) Table {
	t := adopt(arena, ends)
	t.rehash()
	return t
}

func adopt(arena []byte, ends []uint32) Table {
	if len(ends) > math.MaxInt32 || uint64(len(arena)) > MaxBytes ||
		len(ends) > 0 && int(ends[len(ends)-1]) != len(arena) || len(ends) == 0 && len(arena) > 0 {
		panic("strtab: ends do not cover the arena")
	}
	if len(ends) == 0 {
		return Table{}
	}
	if len(arena) == 0 {
		arena = nil // as a table grown from empty keys holds it
	}
	return Table{arena: arena, ends: ends, slots: make([]uint32, slotsFor(len(ends)))}
}

// slotsFor is the canonical slot count for n keys: the smallest power
// of two of at least 8 with 3·size ≥ 4·(n+1).
func slotsFor(n int) int {
	size := 8
	for 3*size < 4*(n+1) {
		size *= 2
	}
	return size
}

// Len returns the number of keys.
func (t *Table) Len() int { return len(t.ends) }

// KeyLen returns the length of key id.
func (t *Table) KeyLen(id int32) int { return int(t.ends[id] - t.start(id)) }

func (t *Table) start(id int32) uint32 {
	if id == 0 {
		return 0
	}
	return t.ends[id-1]
}

// Key returns key id. The string aliases the arena, whose bytes are
// never overwritten, so it stays valid for the life of the program.
func (t *Table) Key(id int32) string {
	s, e := t.start(id), t.ends[id]
	if s == e {
		return ""
	}
	return unsafe.String(&t.arena[s], int(e-s))
}

// Find returns key's id and whether it is present.
func (t *Table) Find(key string) (int32, bool) {
	if len(t.ends) == 0 {
		return -1, false
	}
	return t.find(key, maphash.String(seed, key))
}

// FindBytes is Find for a key held in a byte slice; it does not
// allocate.
func (t *Table) FindBytes(key []byte) (int32, bool) { return t.Find(view(key)) }

// Add returns key's id, adding it as the next id when absent, and
// whether it was added.
func (t *Table) Add(key string) (int32, bool) {
	h := maphash.String(seed, key)
	if len(t.ends) > 0 {
		if id, ok := t.find(key, h); ok {
			return id, false
		}
	}
	id := len(t.ends)
	if id == math.MaxInt32 || uint64(len(t.arena))+uint64(len(key)) > MaxBytes {
		panic("strtab: table full (2^31-1 keys or 4 GiB of key bytes)")
	}
	t.arena = append(t.arena, key...)
	t.ends = append(t.ends, uint32(len(t.arena)))
	if size := slotsFor(id + 1); size > len(t.slots) {
		t.slots = make([]uint32, size)
		t.rehash()
	} else {
		t.place(h, int32(id))
	}
	return int32(id), true
}

// AddBytes is Add for a key held in a byte slice: the bytes are copied
// only when the key is new.
func (t *Table) AddBytes(key []byte) (int32, bool) { return t.Add(view(key)) }

// view returns b's bytes as a string without copying; the string must
// not outlive the call it is passed to.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// shift is the number of low slot bits that hold id+1.
func (t *Table) shift() uint { return uint(bits.Len(uint(len(t.slots) - 1))) }

func (t *Table) find(key string, h uint64) (int32, bool) {
	mask := uint64(len(t.slots) - 1)
	shift := t.shift()
	tag := uint32(h>>32) >> shift << shift
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, false
		}
		if s&^uint32(mask) == tag {
			id := int32(s&uint32(mask)) - 1
			if t.Key(id) == key {
				return id, true
			}
		}
	}
}

// place puts id, whose key hashes to h, in the first empty slot of its
// probe sequence.
func (t *Table) place(h uint64, id int32) {
	mask := uint64(len(t.slots) - 1)
	shift := t.shift()
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = uint32(h>>32)>>shift<<shift | uint32(id+1)
}

// rehash places every key, in id order, in the cleared slot array.
func (t *Table) rehash() {
	for id := range t.ends {
		t.place(maphash.String(seed, t.Key(int32(id))), int32(id))
	}
}
