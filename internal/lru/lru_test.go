package lru

import (
	"fmt"
	"sync"
	"testing"
)

func sizeStr(k string, v string) int { return len(k) + len(v) }

func TestGetPutBasics(t *testing.T) {
	c := New[string, string](1<<20, 4, sizeStr)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", "1")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("a", "22")
	if v, _ := c.Get("a"); v != "22" {
		t.Fatalf("overwrite lost: %q", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
	if st.Bytes != int64(len("a")+len("22")) {
		t.Fatalf("bytes = %d after overwrite, want %d", st.Bytes, len("a")+len("22"))
	}
}

func TestEvictionIsLRU(t *testing.T) {
	// One shard so recency order is global and deterministic.
	c := New[string, string](20, 1, sizeStr)
	c.Put("a", "xxxxxxxxx") // 10 bytes
	c.Put("b", "yyyyyyyyy") // 10 bytes -> full
	c.Get("a")              // refresh a; b is now LRU
	c.Put("c", "zzzzzzzzz") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted but was not LRU", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestOversizedEntryStillCached(t *testing.T) {
	c := New[string, string](8, 1, sizeStr)
	c.Put("k", "a value far larger than the whole budget")
	if _, ok := c.Get("k"); !ok {
		t.Fatal("oversized entry was not admitted")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	// The next Put must evict it to get under budget again.
	c.Put("small", "v")
	if _, ok := c.Get("k"); ok {
		t.Fatal("oversized entry survived a later Put")
	}
}

func TestByteBudgetHeld(t *testing.T) {
	const budget = 1 << 10
	c := New[int, string](budget, 4, func(k int, v string) int { return 8 + len(v) })
	for i := 0; i < 1000; i++ {
		c.Put(i, "0123456789012345678901234567890123456789")
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}
}

func TestRemove(t *testing.T) {
	c := New[string, string](1<<20, 2, sizeStr)
	c.Put("a", "1")
	c.Put("b", "2")
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false for cached key")
	}
	if c.Remove("a") {
		t.Fatal("Remove(a) = true for absent key")
	}
}

func TestStructKeys(t *testing.T) {
	type key struct {
		Model string
		Iters int
	}
	c := New[key, []byte](1<<20, 8, func(k key, v []byte) int { return len(k.Model) + len(v) })
	k1 := key{"m", 50}
	c.Put(k1, []byte("theta"))
	if v, ok := c.Get(key{"m", 50}); !ok || string(v) != "theta" {
		t.Fatalf("struct-key get = %q, %v", v, ok)
	}
	if _, ok := c.Get(key{"m", 51}); ok {
		t.Fatal("distinct struct key collided")
	}
}

// TestConcurrent hammers every shard from many goroutines; run under
// -race this is the package's data-race check.
func TestConcurrent(t *testing.T) {
	c := New[string, string](1<<12, 8, sizeStr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%64)
				if i%3 == 0 {
					c.Put(k, "some cached payload value")
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget violated: %d > %d", st.Bytes, st.MaxBytes)
	}
}
