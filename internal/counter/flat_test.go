package counter

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
)

func flatTestCounter() *NGrams {
	c := New()
	c.Add(Key([]int32{3}), 9)
	c.Add(Key([]int32{3, 200}), 5)
	c.Add(Key([]int32{70000, 1, 2}), 6)
	c.Add(Key([]int32{0}), 1)
	return c
}

// TestNGramsFlatMatchesGob: the flat and the gob decoder build the same
// counter, and the counts stay independent although they share one
// arena.
func TestNGramsFlatMatchesGob(t *testing.T) {
	c := flatTestCounter()
	flat, err := DecodeFlat(c.AppendFlat(nil), 70001)
	if err != nil {
		t.Fatal(err)
	}
	var viaGob NGrams
	if err := viaGob.GobDecode(legacyGob(t, c)); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*NGrams{flat, &viaGob} {
		if !reflect.DeepEqual(d.Entries(0), c.Entries(0)) {
			t.Fatalf("decoded %v, want %v", d.Entries(0), c.Entries(0))
		}
		d.Add(Key([]int32{3}), 1)
		if d.Get(Key([]int32{3, 200})) != 5 || d.Get(Key([]int32{3})) != 10 {
			t.Fatal("an increment reached a neighbouring count")
		}
	}
	if !bytes.Equal(flatTestCounter().AppendFlat(nil), c.AppendFlat(nil)) {
		t.Fatal("flat encoding is not deterministic")
	}
}

func TestNGramsFlatRejectsBadInput(t *testing.T) {
	valid := flatTestCounter().AppendFlat(nil)
	for i := range valid {
		if _, err := DecodeFlat(valid[:i], 70001); err == nil {
			t.Fatalf("accepted a %d-byte prefix of a %d-byte section", i, len(valid))
		}
	}
	if _, err := DecodeFlat(valid, 70000); err == nil {
		t.Fatal("accepted a word id beyond the vocabulary")
	}
	for name, b := range map[string][]byte{
		"huge key count":    {0xff, 0xff, 0xff, 0x7f, 1, 1, 0, 1},
		"empty key":         {1, 1, 0, 0, 1},
		"zero count":        {1, 1, 1, 0, 0},
		"keys out of order": {2, 2, 1, 5, 1, 1, 4, 1},
		"duplicate key":     {2, 2, 1, 5, 1, 1, 5, 1},
		"words over total":  {1, 1, 2, 0, 0, 1},
		"trailing byte":     append(append([]byte(nil), valid...), 0),
	} {
		if _, err := DecodeFlat(b, 70001); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BenchmarkDecodeFlat decodes a phrase-count section at the scale of
// the benchmark's abstracts-prep model: 96 000 keys of 1 to 7 word ids
// over a 50 000-stem vocabulary.
func BenchmarkDecodeFlat(b *testing.B) {
	const vocab = 50000
	r := rand.New(rand.NewPCG(1, 2))
	c := New()
	for w := int32(0); w < 40000; w++ {
		c.Add(Key([]int32{w}), 1+r.Int64N(1000))
	}
	for c.Len() < 96000 {
		words := make([]int32, 2+r.IntN(6))
		for i := range words {
			words[i] = r.Int32N(vocab)
		}
		c.Add(Key(words), 1+r.Int64N(100))
	}
	section := c.AppendFlat(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(section)))
	for b.Loop() {
		if _, err := DecodeFlat(section, vocab); err != nil {
			b.Fatal(err)
		}
	}
}
