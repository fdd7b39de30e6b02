package textproc

import (
	"fmt"

	"topmine/internal/strtab"
)

// Vocab interns stemmed word forms as dense int32 ids and remembers,
// for each stem, the most frequent surface form seen in the corpus so
// phrases can be displayed un-stemmed ("mine" -> "mining") as the paper
// does for its visualisations (§7.1).
//
// The stems are interned in one flat table (internal/strtab): their
// bytes back to back, ids dense in first-occurrence order.
//
// Vocab is not safe for concurrent mutation; build it single-threaded
// (or per-shard and merge) and then share it read-only.
type Vocab struct {
	stems   strtab.Table    // id <-> stem
	counts  []int64         // id -> total corpus frequency
	surface [][]surfaceVote // id -> surface-form tallies
}

// surfaceVote is one surface form's occurrence count for a stem. A
// stem typically sees one to three distinct surface forms, so a small
// linearly-scanned slice beats a map both in memory (a map costs
// hundreds of bytes even for one entry) and in Intern's hot path.
type surfaceVote struct {
	form string
	n    int
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab { return &Vocab{} }

// add returns stem's id, interning it with no occurrences if absent.
func (v *Vocab) add(stem string) int32 {
	id, added := v.stems.Add(stem)
	if added {
		v.counts = append(v.counts, 0)
		v.surface = append(v.surface, nil)
	}
	return id
}

// Intern returns the id for stem, adding it if absent, and records one
// occurrence with the given surface form.
func (v *Vocab) Intern(stem, surfaceForm string) int32 {
	id := v.add(stem)
	v.counts[id]++
	votes := v.surface[id]
	for i := range votes {
		if votes[i].form == surfaceForm {
			votes[i].n++
			return id
		}
	}
	v.surface[id] = append(votes, surfaceVote{form: surfaceForm, n: 1})
	return id
}

// MergeInto folds v's stems, counts and surface tallies into dst,
// walking v in id order (which is v's first-occurrence order) and
// interning each stem absent from dst. It returns the remap table from
// v's ids to dst's. Merging shard vocabularies into a global one in
// corpus order is therefore equivalent to replaying every Intern call
// against the global vocabulary directly: ids, counts and surface
// tallies all come out identical.
//
// This is the one remap primitive behind every vocabulary-growth path:
// the parallel builder folds ingest shards with it, k-way corpus-file
// merge unions source vocabularies through it (deterministic id
// assignment = source order), and corpus append is its degenerate case
// (interning straight into the shared vocabulary, remap = identity).
func (v *Vocab) MergeInto(dst *Vocab) []int32 {
	remap := make([]int32, v.Size())
	for lid := range remap {
		gid := dst.add(v.Word(int32(lid)))
		dst.counts[gid] += v.counts[lid]
		for _, sv := range v.surface[lid] {
			votes := dst.surface[gid]
			found := false
			for i := range votes {
				if votes[i].form == sv.form {
					votes[i].n += sv.n
					found = true
					break
				}
			}
			if !found {
				dst.surface[gid] = append(votes, sv)
			}
		}
		remap[lid] = gid
	}
	return remap
}

// IsPrefixOf reports whether w extends v: every stem of v is present
// in w under the same id. Vocabularies only ever grow by appending
// ids, so a model trained against v remains valid against any w that
// v is a prefix of — the check incremental training runs before
// resuming a snapshot on a grown corpus. Counts and surface tallies
// are not compared; they legitimately grow with the corpus.
func (v *Vocab) IsPrefixOf(w *Vocab) bool {
	if v.Size() > w.Size() {
		return false
	}
	for id := range int32(v.Size()) {
		if w.Word(id) != v.Word(id) {
			return false
		}
	}
	return true
}

// ID returns the id for stem and whether it is present.
func (v *Vocab) ID(stem string) (int32, bool) { return v.stems.Find(stem) }

// Resolve returns the id of a lowercased surface form, and whether it
// has one, stemming it first when stem is set. A form that is itself a
// stem and appears among that stem's surface votes was seen in training
// stemming to itself, so Stem(surface) == surface and the id is exact
// without running Porter: every stem-invariant form training saw skips
// the stemmer. Any other form is stemmed into *buf, which the caller
// reuses across calls, and probed again.
func (v *Vocab) Resolve(surface []byte, stem bool, buf *[]byte) (int32, bool) {
	id, ok := v.stems.FindBytes(surface)
	if !stem {
		return id, ok
	}
	if ok {
		for _, sv := range v.surface[id] {
			if sv.form == string(surface) {
				return id, true
			}
		}
	}
	*buf = appendStem((*buf)[:0], surface)
	return v.stems.FindBytes(*buf)
}

// Word returns the stem for id. It panics on out-of-range ids. The
// string aliases the vocabulary's stem arena.
func (v *Vocab) Word(id int32) string { return v.stems.Key(id) }

// Count returns the corpus frequency recorded for id.
func (v *Vocab) Count(id int32) int64 { return v.counts[id] }

// Size returns the number of distinct stems.
func (v *Vocab) Size() int { return v.stems.Len() }

// Unstem returns the most frequent surface form recorded for id,
// falling back to the stem itself. Ties break lexicographically so the
// result is deterministic.
func (v *Vocab) Unstem(id int32) string {
	if int(id) >= len(v.surface) || len(v.surface[id]) == 0 {
		return v.Word(id)
	}
	best, bestN := "", -1
	for _, sv := range v.surface[id] {
		if sv.n > bestN || (sv.n == bestN && sv.form < best) {
			best, bestN = sv.form, sv.n
		}
	}
	if best == "" {
		return v.Word(id)
	}
	return best
}

// String summarises the vocabulary for debugging.
func (v *Vocab) String() string {
	return fmt.Sprintf("Vocab(%d stems)", v.Size())
}
