package textproc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"topmine/internal/secfile"
	"topmine/internal/strtab"
)

// vocabFromColumns builds a Vocab over decoded columns — the one
// constructor behind both the gob and the flat decoder. Stem id is
// arena[stemEnds[id-1]:stemEnds[id]]; the arena, stemEnds and counts
// are adopted, and building the stem table rejects a repeated stem.
// Stem id's surface votes are votes[voteEnds[id-1]:voteEnds[id]], all
// in one arena, each row capped at its length so that Intern and
// MergeInto reallocate a row they grow instead of overwriting the next
// stem's votes. A stem without votes gets a nil row, as a freshly
// interned stem has.
func vocabFromColumns(arena []byte, stemEnds []uint32, counts []int64, votes []surfaceVote, voteEnds []int32) (*Vocab, error) {
	if uint64(len(arena)) > strtab.MaxBytes {
		return nil, fmt.Errorf("%d stem bytes exceed a stem table's %d", len(arena), strtab.MaxBytes)
	}
	stems, dup := strtab.Build(arena, stemEnds)
	if dup >= 0 {
		start := 0
		if dup > 0 {
			start = int(stemEnds[dup-1])
		}
		return nil, fmt.Errorf("stem %q appears twice", arena[start:stemEnds[dup]])
	}
	if len(counts) == 0 {
		counts = nil
	}
	v := &Vocab{stems: stems, counts: counts}
	if len(voteEnds) > 0 {
		v.surface = make([][]surfaceVote, len(voteEnds))
	}
	start := int32(0)
	for id, end := range voteEnds {
		if end > start {
			v.surface[id] = votes[start:end:end]
		}
		start = end
	}
	return v, nil
}

// AppendFlat appends the vocabulary's flat section encoding to dst:
//
//	uvarint V, uvarint total surface votes, then per stem in id order:
//	  uvarint len, stem bytes, uvarint count, uvarint votes,
//	  per vote, sorted by form: uvarint 0 when the form equals the
//	  stem, else len(form)+1 and the form's bytes; then uvarint tally.
//
// Identical vocabularies encode to identical bytes.
func (v *Vocab) AppendFlat(dst []byte) []byte {
	total := 0
	for _, votes := range v.surface {
		total += len(votes)
	}
	dst = binary.AppendUvarint(dst, uint64(v.Size()))
	dst = binary.AppendUvarint(dst, uint64(total))
	var sorted []surfaceVote
	for id := range v.Size() {
		stem := v.Word(int32(id))
		dst = binary.AppendUvarint(dst, uint64(len(stem)))
		dst = append(dst, stem...)
		dst = binary.AppendUvarint(dst, uint64(v.counts[id]))
		sorted = append(sorted[:0], v.surface[id]...)
		slices.SortFunc(sorted, func(a, b surfaceVote) int { return strings.Compare(a.form, b.form) })
		dst = binary.AppendUvarint(dst, uint64(len(sorted)))
		for _, sv := range sorted {
			if sv.form == stem {
				dst = append(dst, 0)
			} else {
				dst = binary.AppendUvarint(dst, uint64(len(sv.form))+1)
				dst = append(dst, sv.form...)
			}
			dst = binary.AppendUvarint(dst, uint64(sv.n))
		}
	}
	return dst
}

// DecodeFlatVocab decodes a section written by AppendFlat in one pass:
// the stems are copied back to back into the stem table's arena, a
// surface form equal to its stem aliases the stem's key in the table,
// the other forms are copied into one buffer, and the votes live in one
// arena. Every count and length is checked against the bytes left, so
// no input allocates more than a small multiple of len(b).
func DecodeFlatVocab(b []byte) (*Vocab, error) {
	r := secfile.NewReader(b)
	nw := r.Count(3)    // a stem is at least its length, count and vote count
	total := r.Count(2) // a vote is at least its tag and tally
	// The stem and form bytes together fit in what the headers' minimum
	// sizes leave.
	room := max(0, len(b)-r.Offset()-3*nw-2*total)
	arena := make([]byte, 0, room)
	// forms is grown once, at the first form that differs from its stem,
	// so that every such form's string views the one buffer.
	var forms strings.Builder
	self := make([]uint64, (total+63)/64) // bit j: vote j's form is its stem
	stemEnds := make([]uint32, nw)
	counts := make([]int64, nw)
	votes := make([]surfaceVote, total)
	ends := make([]int32, nw)
	used := 0
	for id := range stemEnds {
		arena = append(arena, r.Bytes(r.Count(1))...)
		stemEnds[id] = uint32(len(arena))
		counts[id] = int64(r.Uvarint())
		nv := r.Count(2)
		if nv > total-used {
			r.Fail("stem %d claims %d votes, %d of %d left", id, nv, total-used, total)
			break
		}
		for j := used; j < used+nv; j++ {
			if tag := r.Count(1); tag == 0 {
				self[j/64] |= 1 << (j % 64)
			} else if form := r.Bytes(tag - 1); form != nil {
				if forms.Cap() == 0 {
					forms.Grow(max(0, room-len(arena)))
				}
				off := forms.Len()
				forms.Write(form)
				votes[j].form = forms.String()[off:]
			}
			votes[j].n = int(r.Uvarint())
		}
		used += nv
		ends[id] = int32(used)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("textproc: decoding vocabulary: %w", err)
	}
	if used != total {
		return nil, fmt.Errorf("textproc: decoding vocabulary: %d votes, header claims %d", used, total)
	}
	v, err := vocabFromColumns(arena, stemEnds, counts, votes, ends)
	if err != nil {
		return nil, fmt.Errorf("textproc: decoding vocabulary: %w", err)
	}
	start := int32(0)
	for id, end := range ends {
		for j := start; j < end; j++ {
			if self[j/64]&(1<<(j%64)) != 0 {
				votes[j].form = v.Word(int32(id))
			}
		}
		start = end
	}
	return v, nil
}
