package counter

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestKeyUnkeyRoundTrip(t *testing.T) {
	cases := [][]int32{
		{}, {0}, {1, 2, 3}, {2147483647}, {7, 7, 7, 7, 7},
	}
	for _, words := range cases {
		got := Unkey(Key(words))
		if len(words) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, words) {
			t.Errorf("round trip %v -> %v", words, got)
		}
	}
}

func TestKeyRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		words := make([]int32, len(raw))
		for i, r := range raw {
			words[i] = int32(r & 0x7fffffff)
		}
		back := Unkey(Key(words))
		if len(words) == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(back, words)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyInjective(t *testing.T) {
	// Phrases that could collide under naive string joins must not.
	a := Key([]int32{1, 23})
	b := Key([]int32{12, 3})
	if a == b {
		t.Fatal("distinct phrases share a key")
	}
	if Key([]int32{1}) == Key([]int32{1, 0}) {
		t.Fatal("prefix phrase shares key with extension")
	}
}

func TestKeyLen(t *testing.T) {
	for n := 0; n < 6; n++ {
		words := make([]int32, n)
		if got := KeyLen(Key(words)); got != n {
			t.Errorf("KeyLen = %d, want %d", got, n)
		}
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	words := []int32{5, 9, 100, 3}
	buf := AppendKey(nil, words, 1, 3)
	if string(buf) != Key(words[1:3]) {
		t.Fatal("AppendKey and Key disagree")
	}
	// Reuse should reset.
	buf = AppendKey(buf, words, 0, 2)
	if string(buf) != Key(words[0:2]) {
		t.Fatal("AppendKey reuse did not reset buffer")
	}
}

func TestIncGet(t *testing.T) {
	c := New()
	k := Key([]int32{1, 2})
	if c.Get(k) != 0 {
		t.Fatal("fresh counter nonzero")
	}
	c.Inc(k)
	c.Inc(k)
	c.Add(k, 3)
	if got := c.Get(k); got != 5 {
		t.Fatalf("Get = %d, want 5", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestIncBytesEquivalentToInc(t *testing.T) {
	c := New()
	words := []int32{3, 1, 4}
	buf := AppendKey(nil, words, 0, 3)
	c.IncBytes(buf)
	c.IncBytes(buf)
	if got := c.Get(Key(words)); got != 2 {
		t.Fatalf("IncBytes count = %d, want 2", got)
	}
	if got := c.GetBytes(buf); got != 2 {
		t.Fatalf("GetBytes = %d, want 2", got)
	}
}

func TestEachVisitsAll(t *testing.T) {
	c := New()
	c.Add(Key([]int32{1}), 1)
	c.Add(Key([]int32{2, 3}), 2)
	var total int64
	c.Each(func(k string, v int64) { total += v })
	if total != 3 {
		t.Fatalf("Each total = %d, want 3", total)
	}
}

func TestEntriesSortedAndFiltered(t *testing.T) {
	c := New()
	c.Add(Key([]int32{1}), 10)
	c.Add(Key([]int32{2, 3}), 30)
	c.Add(Key([]int32{4, 5}), 20)
	all := c.Entries(0)
	if len(all) != 3 || all[0].Count != 30 || all[2].Count != 10 {
		t.Fatalf("Entries(0) mis-sorted: %+v", all)
	}
	multi := c.Entries(2)
	if len(multi) != 2 {
		t.Fatalf("Entries(2) = %+v", multi)
	}
	for _, e := range multi {
		if len(e.Words) < 2 {
			t.Fatalf("unigram leaked through filter: %+v", e)
		}
	}
}

func TestEntriesDeterministicTieBreak(t *testing.T) {
	c := New()
	c.Add(Key([]int32{9}), 5)
	c.Add(Key([]int32{1}), 5)
	e := c.Entries(0)
	if e[0].Words[0] != 1 {
		t.Fatalf("tie not broken by key order: %+v", e)
	}
}

func BenchmarkIncBytesHot(b *testing.B) {
	c := New()
	words := []int32{10, 20, 30}
	buf := AppendKey(nil, words, 0, 3)
	c.IncBytes(buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IncBytes(buf)
	}
}

func BenchmarkGetBytes(b *testing.B) {
	c := New()
	buf := AppendKey(nil, []int32{10, 20, 30}, 0, 3)
	c.IncBytes(buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.GetBytes(buf)
	}
}
