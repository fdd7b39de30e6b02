package counter

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"topmine/internal/secfile"
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
	w := ngramsWire{Keys: c.sortedKeys(), Counts: make([]int64, 0, len(c.m))}
	for _, k := range w.Keys {
		w.Counts = append(w.Counts, *c.m[k])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("counter: encoding ngrams: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode restores a counter serialised by GobEncode through the
// flat decoder's constructor (FromColumns): the counts stay in the one
// decoded slice the map points into.
func (c *NGrams) GobDecode(data []byte) error {
	var w ngramsWire
	if err := secfile.GobDecode(data, &w); err != nil {
		return fmt.Errorf("counter: decoding ngrams: %w", err)
	}
	if len(w.Keys) != len(w.Counts) {
		return fmt.Errorf("counter: decoding ngrams: %d keys but %d counts", len(w.Keys), len(w.Counts))
	}
	*c = *FromColumns(w.Keys, w.Counts)
	return nil
}
