package counter

import (
	"fmt"

	"topmine/internal/secfile"
	"topmine/internal/strtab"
)

// ngramsWire is the gob wire form of an NGrams counter that earlier
// builds wrote into .tpc and version-1 snapshot files: parallel key and
// count slices, keys sorted. Nothing writes it any more; GobDecode reads
// it.
type ngramsWire struct {
	Keys   []string
	Counts []int64
}

// GobDecode restores a counter from its gob wire form: the keys are
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
	for i, k := range w.Keys {
		if len(k) == 0 || len(k)%4 != 0 {
			return fmt.Errorf("counter: decoding ngrams: key %d is %d bytes, not a whole number of word ids", i, len(k))
		}
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
