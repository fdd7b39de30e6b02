// Package lru provides a generic, sharded, byte-bounded LRU cache
// safe for concurrent use. Keys hash to one of N independently locked
// shards, so concurrent readers and writers on different shards never
// contend; each shard keeps its own recency list and evicts once its
// slice of the byte budget is exceeded. Hit/miss/eviction counters are
// maintained with atomics and readable at any time via Stats.
//
// The cache charges each entry the caller-provided size function's
// value (plus nothing else), so the budget bounds payload bytes, not
// total process memory; pick a size function that covers whatever
// dominates an entry (for string/[]byte payloads, their lengths).
package lru

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU mapping K to V, bounded by total payload
// bytes. The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	shards []*shard[K, V]
	seed   maphash.Seed
	sizeOf func(K, V) int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type shard[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]*list.Element
	order    *list.List // front = most recently used
	bytes    int64
	maxBytes int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// Stats is a point-in-time snapshot of cache effectiveness and size.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
	MaxBytes  int64
}

// New builds a cache bounded to maxBytes total payload, split across
// nShards independently locked shards (values < 1 become 1). sizeOf
// reports the byte charge of one entry; it is called once at Put and
// must be consistent for a given pair. A single entry larger than its
// shard's budget is still admitted alone (the shard holds just it), so
// Put never silently discards.
func New[K comparable, V any](maxBytes int64, nShards int, sizeOf func(K, V) int) *Cache[K, V] {
	if nShards < 1 {
		nShards = 1
	}
	if maxBytes < 1 {
		maxBytes = 1
	}
	c := &Cache[K, V]{
		shards: make([]*shard[K, V], nShards),
		seed:   maphash.MakeSeed(),
		sizeOf: sizeOf,
	}
	per := maxBytes / int64(nShards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard[K, V]{
			entries:  make(map[K]*list.Element),
			order:    list.New(),
			maxBytes: per,
		}
	}
	return c
}

func (c *Cache[K, V]) shardFor(key K) *shard[K, V] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[maphash.Comparable(c.seed, key)%uint64(len(c.shards))]
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.order.MoveToFront(el)
	v := el.Value.(*entry[K, V]).val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put inserts or replaces key's value, evicting least-recently-used
// entries from the key's shard until the shard is back under budget.
func (c *Cache[K, V]) Put(key K, val V) {
	size := int64(c.sizeOf(key, val))
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry[K, V])
		s.bytes += size - e.size
		e.val, e.size = val, size
		s.order.MoveToFront(el)
	} else {
		s.entries[key] = s.order.PushFront(&entry[K, V]{key: key, val: val, size: size})
		s.bytes += size
	}
	var evicted uint64
	// Keep at least the newest entry even when it alone exceeds the
	// shard budget: evicting the value just written would turn every
	// oversized Put into a guaranteed miss.
	for s.bytes > s.maxBytes && s.order.Len() > 1 {
		el := s.order.Back()
		e := el.Value.(*entry[K, V])
		s.order.Remove(el)
		delete(s.entries, e.key)
		s.bytes -= e.size
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Remove drops key if present, returning whether it was cached.
func (c *Cache[K, V]) Remove(key K) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return false
	}
	e := el.Value.(*entry[K, V])
	s.order.Remove(el)
	delete(s.entries, e.key)
	s.bytes -= e.size
	return true
}

// Stats snapshots counters and occupancy. Counters are exact; Entries
// and Bytes are summed shard by shard, so a concurrent writer may make
// the totals momentarily inconsistent with each other — fine for
// metrics, not for invariants.
func (c *Cache[K, V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Entries += s.order.Len()
		st.Bytes += s.bytes
		st.MaxBytes += s.maxBytes
		s.mu.Unlock()
	}
	return st
}
