package textproc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"topmine/internal/secfile"
)

// vocabWire is the gob wire form of a Vocab. The stem index is not
// transmitted (it is rebuilt on decode from the word list), and each
// stem's surface-form votes are flattened to parallel slices sorted by
// form — gob encodes maps in random iteration order, and a sorted wire
// form keeps serialisation byte-deterministic for identical inputs.
type vocabWire struct {
	Words         []string
	Counts        []int64
	SurfaceForms  [][]string
	SurfaceCounts [][]int
}

// GobEncode serialises the vocabulary (stems, frequencies, surface-form
// votes) so corpora and pipeline snapshots can be persisted. Identical
// vocabularies encode to identical bytes.
func (v *Vocab) GobEncode() ([]byte, error) {
	words := make([]string, v.Size())
	for id := range words {
		words[id] = v.Word(int32(id))
	}
	w := vocabWire{
		Words:         words,
		Counts:        v.counts,
		SurfaceForms:  make([][]string, len(v.surface)),
		SurfaceCounts: make([][]int, len(v.surface)),
	}
	for id, votes := range v.surface {
		if len(votes) == 0 {
			continue
		}
		sorted := make([]surfaceVote, len(votes))
		copy(sorted, votes)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].form < sorted[b].form })
		forms := make([]string, len(sorted))
		counts := make([]int, len(sorted))
		for i, sv := range sorted {
			forms[i] = sv.form
			counts[i] = sv.n
		}
		w.SurfaceForms[id] = forms
		w.SurfaceCounts[id] = counts
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("textproc: encoding vocab: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode restores a vocabulary serialised by GobEncode through the
// flat decoder's constructor (vocabFromColumns): the stems are copied
// into one arena and indexed, and the surface votes land in one arena.
func (v *Vocab) GobDecode(data []byte) error {
	var w vocabWire
	if err := secfile.GobDecode(data, &w); err != nil {
		return fmt.Errorf("textproc: decoding vocab: %w", err)
	}
	if len(w.Counts) != len(w.Words) ||
		len(w.SurfaceForms) != len(w.Words) || len(w.SurfaceCounts) != len(w.Words) {
		return fmt.Errorf("textproc: decoding vocab: inconsistent lengths (%d words, %d counts, %d surface lists)",
			len(w.Words), len(w.Counts), len(w.SurfaceForms))
	}
	var arena []byte
	stemEnds := make([]uint32, len(w.Words))
	for id, stem := range w.Words {
		arena = append(arena, stem...)
		stemEnds[id] = uint32(len(arena))
	}
	total := 0
	for id, forms := range w.SurfaceForms {
		if len(forms) != len(w.SurfaceCounts[id]) {
			return fmt.Errorf("textproc: decoding vocab: stem %d has %d surface forms but %d counts",
				id, len(forms), len(w.SurfaceCounts[id]))
		}
		total += len(forms)
	}
	votes := make([]surfaceVote, 0, total)
	ends := make([]int32, len(w.Words))
	for id, forms := range w.SurfaceForms {
		for i, s := range forms {
			votes = append(votes, surfaceVote{form: s, n: w.SurfaceCounts[id][i]})
		}
		ends[id] = int32(len(votes))
	}
	nv, err := vocabFromColumns(arena, stemEnds, w.Counts, votes, ends)
	if err != nil {
		return fmt.Errorf("textproc: decoding vocab: %w", err)
	}
	*v = *nv
	return nil
}
