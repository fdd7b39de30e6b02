package counter

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"topmine/internal/secfile"
	"topmine/internal/strtab"
)

// ngramsWire is the gob wire form of an NGrams counter: parallel key
// and count slices, keys sorted so identical counters serialise to
// identical bytes.
type ngramsWire struct {
	Keys   []string
	Counts []int64
}

// GobEncode serialises the counter so mined phrase statistics can be
// persisted in pipeline snapshots.
func (c *NGrams) GobEncode() ([]byte, error) {
	ids := c.sortedIDs()
	w := ngramsWire{Keys: make([]string, len(ids)), Counts: make([]int64, len(ids))}
	for i, id := range ids {
		w.Keys[i], w.Counts[i] = c.keys.Key(id), c.counts[id]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("counter: encoding ngrams: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode restores a counter serialised by GobEncode: the keys are
// copied into one arena in wire order and the counts slice is adopted.
func (c *NGrams) GobDecode(data []byte) error {
	var w ngramsWire
	if err := secfile.GobDecode(data, &w); err != nil {
		return fmt.Errorf("counter: decoding ngrams: %w", err)
	}
	if len(w.Keys) != len(w.Counts) {
		return fmt.Errorf("counter: decoding ngrams: %d keys but %d counts", len(w.Keys), len(w.Counts))
	}
	size := 0
	for _, k := range w.Keys {
		size += len(k)
	}
	if uint64(size) > strtab.MaxBytes {
		return fmt.Errorf("counter: decoding ngrams: %d key bytes exceed a key table's %d", size, strtab.MaxBytes)
	}
	arena := make([]byte, 0, size)
	ends := make([]uint32, len(w.Keys))
	for i, k := range w.Keys {
		arena = append(arena, k...)
		ends[i] = uint32(len(arena))
	}
	keys, dup := strtab.Build(arena, ends)
	if dup >= 0 {
		return fmt.Errorf("counter: decoding ngrams: key %d repeats an earlier key", dup)
	}
	*c = *fromTable(keys, w.Counts)
	return nil
}
