package textproc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"topmine/internal/secfile"
)

// vocabFromColumns builds a Vocab over decoded columns — the one
// constructor behind both the gob and the flat decoder. words and
// counts are adopted; stem id's surface votes are votes[ends[id-1]:
// ends[id]], all in one arena, each row capped at its length so that
// Intern and MergeInto reallocate a row they grow instead of
// overwriting the next stem's votes. A stem without votes gets a nil
// row, as a freshly interned stem has.
func vocabFromColumns(words []string, counts []int64, votes []surfaceVote, ends []int32) (*Vocab, error) {
	v := &Vocab{
		byWord:  make(map[string]int32, len(words)),
		words:   words,
		counts:  counts,
		surface: make([][]surfaceVote, len(words)),
	}
	for id, stem := range words {
		if _, dup := v.byWord[stem]; dup {
			return nil, fmt.Errorf("stem %q appears twice", stem)
		}
		v.byWord[stem] = int32(id)
	}
	start := int32(0)
	for id, end := range ends {
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
	dst = binary.AppendUvarint(dst, uint64(len(v.words)))
	dst = binary.AppendUvarint(dst, uint64(total))
	var sorted []surfaceVote
	for id, stem := range v.words {
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
// every stem and form is a substring of one string copied from b, and
// the votes live in one arena. Every count and length is checked
// against the bytes left, so no input allocates more than a small
// multiple of len(b).
func DecodeFlatVocab(b []byte) (*Vocab, error) {
	s := string(b)
	r := secfile.NewReader(b)
	str := func(n int) string {
		off := r.Offset()
		if r.Bytes(n) == nil {
			return ""
		}
		return s[off : off+n]
	}
	nw := r.Count(3)    // a stem is at least its length, count and vote count
	total := r.Count(2) // a vote is at least its tag and tally
	words := make([]string, nw)
	counts := make([]int64, nw)
	votes := make([]surfaceVote, total)
	ends := make([]int32, nw)
	used := 0
	for id := range words {
		stem := str(r.Count(1))
		words[id] = stem
		counts[id] = int64(r.Uvarint())
		nv := r.Count(2)
		if nv > total-used {
			r.Fail("stem %d claims %d votes, %d of %d left", id, nv, total-used, total)
			break
		}
		for j := used; j < used+nv; j++ {
			form := stem
			if tag := r.Count(1); tag > 0 {
				form = str(tag - 1)
			}
			votes[j] = surfaceVote{form: form, n: int(r.Uvarint())}
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
	v, err := vocabFromColumns(words, counts, votes, ends)
	if err != nil {
		return nil, fmt.Errorf("textproc: decoding vocabulary: %w", err)
	}
	return v, nil
}
