package corpusfile

import (
	"fmt"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/minhash"
	"topmine/internal/phrasemine"
	"topmine/internal/strtab"
	"topmine/internal/textproc"
)

// MergeStats reports what MergeFiles produced and, when it had to
// drop something, why — a merge never silently loses artifacts.
type MergeStats struct {
	Sources int
	Docs    int
	Tokens  int // kept tokens in the merged corpus
	// ArtifactsMerged is true when the sources' mined phrase counts
	// were re-aggregated exactly into the output.
	ArtifactsMerged bool
	// ArtifactsDropped explains why artifacts were not merged ("" when
	// they were, or when no source carried any).
	ArtifactsDropped string
	// SketchesCarried is true when every source stored sketches of the
	// same size and the output carries their concatenation.
	SketchesCarried bool
}

// MergeFiles k-way-merges the corpus files at srcs (in order) into a
// fresh single-segment file at dst, written atomically. The merged
// corpus is bit-identical to one preprocessed from the concatenated
// inputs: source vocabularies are unioned in source order through the
// same remap primitive the parallel builder uses (textproc.MergeInto),
// string pools are re-interned in first-occurrence order, and every
// token column is rewritten under the union ids.
//
// Bundled phrase statistics are re-aggregated exactly — and only
// exactly — when every source carries artifacts mined under identical
// parameters with no support pruning (MinSupport <= 1 and
// RelativeSupport == 0); per-source pruning at higher thresholds
// discards counts that cross-source mass could have pushed over the
// threshold, so merging them would be wrong and they are dropped with
// the reason recorded in MergeStats. Per-document segmentations are
// always dropped: they were chosen against per-source phrase
// statistics. Sketches are carried over whenever every source stores
// them at one size.
func MergeFiles(dst string, srcs ...string) (*MergeStats, error) {
	if len(srcs) < 2 {
		return nil, fmt.Errorf("corpusfile: Merge: need at least 2 sources, have %d", len(srcs))
	}
	files := make([]*File, 0, len(srcs))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	raws := make([]*corpus.Raw, len(srcs))
	for i, path := range srcs {
		f, err := Open(path)
		if err != nil {
			return nil, fmt.Errorf("corpusfile: Merge: source %s: %w", path, err)
		}
		files = append(files, f)
		raw, err := f.Corpus().Raw()
		if err != nil {
			return nil, fmt.Errorf("corpusfile: Merge: source %s: %w", path, err)
		}
		raws[i] = raw
		if raw.BuildOpts != raws[0].BuildOpts {
			return nil, fmt.Errorf("corpusfile: Merge: source %s was built with %+v, source %s with %+v",
				srcs[i], raw.BuildOpts, srcs[0], raws[0].BuildOpts)
		}
	}

	merged, remaps := mergeRaws(raws)
	stats := &MergeStats{Sources: len(srcs), Docs: len(merged.SegCounts), Tokens: merged.TotalTokens}

	art := mergeArtifacts(files, srcs, remaps, stats)
	sketches := mergeSketches(files, stats)

	// Round-trip the merged columns through the corpus assembler: it
	// runs the full structural validation (offsets, pool ids, word
	// ids), so an internal merge bug fails here instead of producing a
	// corrupt file.
	c, err := corpus.FromRaw(merged)
	if err != nil {
		return nil, fmt.Errorf("corpusfile: Merge: %w", err)
	}
	if err := WriteFileSketched(dst, c, art, sketches); err != nil {
		return nil, err
	}
	return stats, nil
}

// mergeRaws concatenates the sources' columns under a union
// vocabulary and pool, returning the merged view plus each source's
// word-id remap table (needed again for artifact re-aggregation).
func mergeRaws(raws []*corpus.Raw) (*corpus.Raw, [][]int32) {
	vocab := textproc.NewVocab()
	remaps := make([][]int32, len(raws))
	for i, raw := range raws {
		remaps[i] = raw.Vocab.MergeInto(vocab)
	}
	nTok, nDocs, nSegs := 0, 0, 0
	for _, raw := range raws {
		nTok += len(raw.Words)
		nDocs += len(raw.SegCounts)
		nSegs += len(raw.SegOffs)
	}
	keep := raws[0].KeepSurface
	merged := &corpus.Raw{
		Words:       make([]int32, 0, nTok),
		KeepSurface: keep,
		SegCounts:   make([]int32, 0, nDocs),
		SegOffs:     make([]int32, 0, nSegs),
		SegLens:     make([]int32, 0, nSegs),
		Vocab:       vocab,
		BuildOpts:   raws[0].BuildOpts,
	}
	var pool strtab.Table // merged.Pool's intern index
	if keep {
		merged.Surface = make([]uint32, 0, nTok)
		merged.Gaps = make([]uint32, 0, nTok)
	}
	for i, raw := range raws {
		remap := remaps[i]
		for _, w := range raw.Words {
			merged.Words = append(merged.Words, remap[w])
		}
		if keep {
			// Re-intern this source's pool in id order — its own
			// first-occurrence order — so the merged pool is exactly
			// what a serial build over the concatenated input interns.
			poolRemap := make([]uint32, len(raw.Pool))
			for pid, s := range raw.Pool {
				gid, added := pool.Add(s)
				if added {
					merged.Pool = append(merged.Pool, s)
				}
				poolRemap[pid] = uint32(gid)
			}
			for _, v := range raw.Surface {
				merged.Surface = append(merged.Surface, poolRemap[v])
			}
			for _, v := range raw.Gaps {
				merged.Gaps = append(merged.Gaps, poolRemap[v])
			}
		}
		tokenBase := int32(len(merged.Words) - len(raw.Words))
		merged.SegCounts = append(merged.SegCounts, raw.SegCounts...)
		for _, off := range raw.SegOffs {
			merged.SegOffs = append(merged.SegOffs, tokenBase+off)
		}
		merged.SegLens = append(merged.SegLens, raw.SegLens...)
		merged.TotalTokens += raw.TotalTokens
	}
	return merged, remaps
}

// mergeArtifacts re-aggregates the sources' mined phrase statistics
// when that is exact, or records why it is not.
func mergeArtifacts(files []*File, srcs []string, remaps [][]int32, stats *MergeStats) *Artifacts {
	anyStale := false
	for i, f := range files {
		if f.Mined() == nil {
			if f.StaleArtifacts() != "" {
				anyStale = true
			}
			stats.ArtifactsDropped = fmt.Sprintf("source %s carries no mined phrases", srcs[i])
			if anyStale {
				stats.ArtifactsDropped += " (its artifacts went stale when the corpus was appended to)"
			}
			return nil
		}
	}
	prm := files[0].Params()
	for i, f := range files {
		if f.Params() != prm {
			stats.ArtifactsDropped = fmt.Sprintf("source %s was mined with %+v, source %s with %+v",
				srcs[i], f.Params(), srcs[0], prm)
			return nil
		}
	}
	if prm.MinSupport > 1 || prm.RelativeSupport != 0 {
		stats.ArtifactsDropped = fmt.Sprintf(
			"sources were mined with support pruning (min_support=%d, relative=%g); per-source pruning loses cross-source counts, re-mine the merged corpus",
			prm.MinSupport, prm.RelativeSupport)
		return nil
	}

	counts := counter.New()
	totalTokens := 0
	for i, f := range files {
		remap := remaps[i]
		f.Mined().Counts.Each(func(key string, n int64) {
			ids := counter.Unkey(key)
			for j, w := range ids {
				ids[j] = remap[w]
			}
			counts.Add(counter.Key(ids), n)
		})
		totalTokens += f.Mined().TotalTokens
	}
	// With min_support 1 nothing was pruned, so the level-candidate
	// diagnostics of a from-scratch mine over the union are exactly
	// the distinct phrase counts per length.
	maxLen := counts.MaxLen()
	levels := make([]int, maxLen+1)
	counts.Each(func(key string, _ int64) {
		levels[counter.KeyLen(key)]++
	})
	stats.ArtifactsMerged = true
	return &Artifacts{
		Params: prm,
		Mined: &phrasemine.Result{
			Counts:          counts,
			TotalTokens:     totalTokens,
			MinSupport:      files[0].Mined().MinSupport,
			MaxPhraseLen:    maxLen,
			LevelCandidates: levels,
		},
	}
}

// mergeSketches concatenates per-source sketches when every source
// carries them at one size.
func mergeSketches(files []*File, stats *MergeStats) []minhash.Sketch {
	k := files[0].SketchK()
	if k == 0 {
		return nil
	}
	total := 0
	for _, f := range files {
		if f.Sketches() == nil || f.SketchK() != k {
			return nil
		}
		total += len(f.Sketches())
	}
	out := make([]minhash.Sketch, 0, total)
	for _, f := range files {
		out = append(out, f.Sketches()...)
	}
	stats.SketchesCarried = true
	return out
}
