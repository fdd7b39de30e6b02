package counter

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// legacyGob encodes c in the gob wire form earlier builds wrote, which
// GobDecode still reads.
func legacyGob(t testing.TB, c *NGrams) []byte {
	t.Helper()
	var w ngramsWire
	for _, id := range c.sortedIDs() {
		w.Keys = append(w.Keys, c.keys.Key(id))
		w.Counts = append(w.Counts, c.counts[id])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestNGramsGobRoundTrip(t *testing.T) {
	c := New()
	c.Add(Key([]int32{1}), 7)
	c.Add(Key([]int32{2}), 3)
	c.Add(Key([]int32{1, 2}), 5)
	c.Add(Key([]int32{1, 2, 3}), 2)

	got := New()
	if err := got.GobDecode(legacyGob(t, c)); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if got.Len() != c.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), c.Len())
	}
	c.Each(func(k string, n int64) {
		if got.Get(k) != n {
			t.Fatalf("count for %v = %d, want %d", Unkey(k), got.Get(k), n)
		}
	})
	// The decoded counter stays fully functional.
	got.Inc(Key([]int32{1, 2}))
	if got.Get(Key([]int32{1, 2})) != 6 {
		t.Fatal("post-decode increment lost")
	}
}

// TestNGramsFlatDeterministic: equal counters built in different
// orders encode to the same flat bytes.
func TestNGramsFlatDeterministic(t *testing.T) {
	c, other := New(), New()
	for i := int32(0); i < 50; i++ {
		c.Add(Key([]int32{i % 7, i}), int64(i))
		other.Add(Key([]int32{(49 - i) % 7, 49 - i}), int64(49-i))
	}
	if !bytes.Equal(c.AppendFlat(nil), other.AppendFlat(nil)) {
		t.Fatal("equal counters encoded to different bytes")
	}
}

func TestNGramsGobCorrupt(t *testing.T) {
	c := New()
	if err := c.GobDecode([]byte("not gob data")); err == nil {
		t.Fatal("corrupt counter bytes accepted")
	}
}
