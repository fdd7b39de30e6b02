package textproc

import (
	"fmt"

	"topmine/internal/secfile"
)

// vocabWire is the gob wire form of a Vocab that earlier builds wrote
// into .tpc and version-1 snapshot files: the stems in id order, their
// counts, and each stem's surface-form votes as parallel slices sorted
// by form. Nothing writes it any more; GobDecode reads it.
type vocabWire struct {
	Words         []string
	Counts        []int64
	SurfaceForms  [][]string
	SurfaceCounts [][]int
}

// GobDecode restores a vocabulary from its gob wire form through the
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
