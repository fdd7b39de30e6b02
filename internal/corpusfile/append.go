package corpusfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"topmine/internal/atomicfile"
	"topmine/internal/corpus"
	"topmine/internal/minhash"
	"topmine/internal/secfile"
)

// AppendOptions controls AppendFile.
type AppendOptions struct {
	// Dedup skips incoming documents whose estimated Jaccard
	// similarity to any document already in the file (or appended
	// earlier in the same batch) reaches DedupThreshold.
	Dedup bool
	// DedupThreshold is the near-duplicate cutoff; <= 0 means 0.9.
	DedupThreshold float64
	// Sketch stores the appended documents' min-hash sketches in the
	// new segment, so future appends can deduplicate against them
	// without retokenizing the stored corpus. Sketches are only served
	// back by Open when every segment (including the base image)
	// carries them.
	Sketch bool
	// SketchK is the sketch size for corpora that do not already store
	// sketches; <= 0 means minhash.DefaultK. A file with stored
	// sketches dictates its own size — sketches must stay comparable.
	SketchK int
}

// AppendStats reports what one AppendFile call did.
type AppendStats struct {
	DocsAdded   int
	DocsSkipped int // near-duplicates dropped by Dedup
	TokensAdded int // kept tokens in the appended documents
	Segments    int // appended segments the file carries afterwards
}

// AppendFile grows the corpus file at path with the documents of src,
// in place and without rewriting stored data: the existing image is
// copied byte-for-byte (its section CRCs untouched), the header
// version becomes 2, and one new segment holding the appended token
// columns, updated vocabulary and document table is written after it,
// through the same atomic temp+rename path as WriteFile. Appending is
// equivalent to rebuilding from the concatenated input: the grown
// corpus trains identically, and re-persisting it yields the same
// sections a from-scratch build would.
//
// Appending zero documents (an empty source, or every document
// deduplicated away) leaves the file untouched.
//
// Artifacts bundled in the file describe only the pre-append corpus;
// after a successful append, Open reports them as stale and callers
// re-mine. With Dedup, incoming documents are tokenized twice — once
// for the sketch, once for interning — which keeps the skip decision
// strictly before any corpus mutation.
func AppendFile(path string, src corpus.Source, opt AppendOptions) (*AppendStats, error) {
	if opt.DedupThreshold <= 0 {
		opt.DedupThreshold = 0.9
	}
	if opt.SketchK <= 0 {
		opt.SketchK = minhash.DefaultK
	}
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := f.Corpus()
	ap, err := corpus.NewAppender(c)
	if err != nil {
		return nil, fmt.Errorf("corpusfile: Append: %w", err)
	}

	stats := &AppendStats{Segments: f.nAppended}
	needSketch := opt.Sketch || opt.Dedup
	var (
		hasher      *minhash.Hasher
		index       *minhash.Index
		all         []minhash.Sketch // sketch per doc id, for Jaccard confirmation
		newSketches []minhash.Sketch // appended docs only, for the segment section
		candBuf     []int32
		stems       []string
	)
	if needSketch {
		k := opt.SketchK
		if f.sketchK > 0 {
			k = f.sketchK
		}
		hasher = minhash.NewHasher(k, minhash.CanonicalSeed)
		if opt.Dedup {
			existing := f.sketches
			if existing == nil {
				existing = sketchCorpus(c, hasher)
			}
			index = minhash.NewIndex(k)
			all = append(all, existing...)
			for i, sk := range existing {
				index.Add(int32(i), sk)
			}
		}
	}

	for {
		text, ok, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("corpusfile: Append: reading source: %w", err)
		}
		if !ok {
			break
		}
		var sk minhash.Sketch
		if needSketch {
			stems = ap.Stems(text, stems[:0])
			sk = hasher.Sketch(stems)
		}
		if opt.Dedup {
			candBuf = index.Candidates(sk, candBuf[:0])
			dup := false
			for _, id := range candBuf {
				if minhash.Jaccard(sk, all[id]) >= opt.DedupThreshold {
					dup = true
					break
				}
			}
			if dup {
				stats.DocsSkipped++
				continue
			}
			index.Add(int32(len(all)), sk)
			all = append(all, sk)
		}
		if opt.Sketch {
			newSketches = append(newSketches, sk)
		}
		ap.Add(text)
	}

	stats.DocsAdded = ap.DocsAdded()
	stats.TokensAdded = ap.TokensAdded()
	if stats.DocsAdded == 0 {
		return stats, nil
	}

	if err := writeAppended(path, f, ap, newSketches, opt.Sketch); err != nil {
		return nil, err
	}
	stats.Segments = f.nAppended + 1
	return stats, nil
}

// writeAppended atomically replaces the file at path with its own
// image (version bumped to 2) plus one appended segment holding the
// appender's delta.
func writeAppended(path string, f *File, ap *corpus.Appender, sketches []minhash.Sketch, withSketch bool) error {
	g := ap.Group()
	c := f.Corpus()
	gp := groupPayload{
		totalTokens: g.TotalTokens,
		flags:       buildFlags(c.BuildOpts, c.BuildOpts.KeepSurface),
		words:       g.Words,
		keepSurface: c.BuildOpts.KeepSurface,
		surface:     g.Surface,
		gaps:        g.Gaps,
		pool:        g.PoolDelta,
		vocab:       c.Vocab,
		segCounts:   g.SegCounts,
		segOffs:     g.SegOffs,
		segLens:     g.SegLens,
	}
	if withSketch {
		gp.sketches = sketches
	}
	sections, err := groupSections(gp)
	if err != nil {
		return err
	}
	if err := secfile.Checksum(sections); err != nil {
		return fmt.Errorf("corpusfile: %w", err)
	}
	image := f.image
	segStart := secfile.AlignUp(uint64(len(image)))
	tableEnd := segStart + segHeaderSize + uint64(len(sections))*tableEntrySize
	offsets, _ := secfile.Layout(tableEnd, sections)

	err = atomicfile.Write(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		// The stored image is copied verbatim except for the 2-byte
		// version field. It is never patched in place: image may be a
		// read-only mmap of the very file being replaced.
		if _, err := bw.Write(image[:8]); err != nil {
			return err
		}
		var ver [2]byte
		binary.LittleEndian.PutUint16(ver[:], VersionMulti)
		if _, err := bw.Write(ver[:]); err != nil {
			return err
		}
		if _, err := bw.Write(image[10:]); err != nil {
			return err
		}
		if err := secfile.WriteZeros(bw, segStart-uint64(len(image))); err != nil {
			return err
		}
		var hdr [segHeaderSize]byte
		copy(hdr[:8], segMagic)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(sections)))
		tb := secfile.Table(sections, offsets)
		binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(tb))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := bw.Write(tb); err != nil {
			return err
		}
		if err := secfile.Emit(bw, sections, offsets, tableEnd); err != nil {
			return err
		}
		return bw.Flush()
	})
	var ae *atomicfile.Error
	if errors.As(err, &ae) {
		return fmt.Errorf("corpusfile: %w", err)
	}
	return err
}

// ComputeSketches builds the canonical-seed min-hash sketch of every
// document in c (k <= 0 selects minhash.DefaultK) — what
// WriteFileSketched persists so later appends deduplicate against the
// stored corpus without retokenizing it.
func ComputeSketches(c *corpus.Corpus, k int) []minhash.Sketch {
	if k <= 0 {
		k = minhash.DefaultK
	}
	return sketchCorpus(c, minhash.NewHasher(k, minhash.CanonicalSeed))
}

// sketchCorpus rebuilds every stored document's sketch from its
// interned token ids — the fallback dedup path for files that do not
// carry a sketch section. The stems recovered through the vocabulary
// are exactly the kept stem sequence corpus.Tokenizer.Stems produces
// from raw text, so the two paths yield identical sketches.
func sketchCorpus(c *corpus.Corpus, h *minhash.Hasher) []minhash.Sketch {
	sketches := make([]minhash.Sketch, len(c.Docs))
	var stems []string
	for i, d := range c.Docs {
		stems = stems[:0]
		for si := range d.Segments {
			for _, w := range d.Segments[si].Words() {
				stems = append(stems, c.Vocab.Word(w))
			}
		}
		sketches[i] = h.Sketch(stems)
	}
	return sketches
}
