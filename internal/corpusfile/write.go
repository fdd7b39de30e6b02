package corpusfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"

	"topmine/internal/atomicfile"
	"topmine/internal/corpus"
	"topmine/internal/minhash"
	"topmine/internal/phrasemine"
	"topmine/internal/secfile"
	"topmine/internal/segment"
	"topmine/internal/textproc"
)

// Params records the mining/segmentation parameterisation the bundled
// artifacts were produced with. A reader reuses stored artifacts only
// when its own parameters match; otherwise it recomputes them from the
// corpus, so a .tpc file never silently serves phrases mined under a
// different support threshold.
type Params struct {
	MinSupport      int
	RelativeSupport float64
	MaxPhraseLen    int
	SigThreshold    float64
}

// Artifacts bundles the downstream preprocessing products that can
// ride along with a corpus: the frequent-phrase statistics of
// Algorithm 1 and the per-document phrase partitions of Algorithm 2.
// Mined is required; Segs may be nil to persist mining results alone.
type Artifacts struct {
	Params Params
	Mined  *phrasemine.Result
	Segs   []*segment.SegmentedDoc
}

// Write persists the corpus alone; see WriteArtifacts.
func Write(w io.Writer, c *corpus.Corpus) error {
	return WriteArtifacts(w, c, nil)
}

// WriteArtifacts persists the corpus as a .tpc file, bundling the
// given mining/segmentation artifacts when art is non-nil. The token
// arena columns are written little-endian at 64-byte-aligned offsets,
// which is what lets Open hand back zero-copy views into an mmap'd
// file.
func WriteArtifacts(w io.Writer, c *corpus.Corpus, art *Artifacts) error {
	return WriteSketched(w, c, art, nil)
}

// WriteSketched is WriteArtifacts plus an optional per-document
// min-hash sketch section (one sketch per document, all the same
// size, built with minhash.CanonicalSeed). Sketches let a later
// Append deduplicate against the stored corpus without re-reading any
// document text.
func WriteSketched(w io.Writer, c *corpus.Corpus, art *Artifacts, sketches []minhash.Sketch) error {
	if c == nil {
		return fmt.Errorf("corpusfile: Write: nil corpus")
	}
	raw, err := c.Raw()
	if err != nil {
		return fmt.Errorf("corpusfile: Write: %w", err)
	}
	return writeRaw(w, raw, art, sketches)
}

// writeRaw emits a complete single-segment (version 1) image.
func writeRaw(w io.Writer, raw *corpus.Raw, art *Artifacts, sketches []minhash.Sketch) error {
	if art != nil {
		if art.Mined == nil || art.Mined.Counts == nil {
			return fmt.Errorf("corpusfile: Write: artifacts carry no mined phrases")
		}
		if art.Segs != nil && len(art.Segs) != len(raw.SegCounts) {
			return fmt.Errorf("corpusfile: Write: %d segmented docs for a %d-doc corpus",
				len(art.Segs), len(raw.SegCounts))
		}
		for i, sd := range art.Segs {
			if sd == nil || sd.DocID != i {
				return fmt.Errorf("corpusfile: Write: segmented docs must follow corpus order (doc %d)", i)
			}
		}
	}

	sections, err := groupSections(groupPayload{
		totalTokens: raw.TotalTokens,
		flags:       buildFlags(raw.BuildOpts, raw.KeepSurface),
		words:       raw.Words,
		keepSurface: raw.KeepSurface,
		surface:     raw.Surface,
		gaps:        raw.Gaps,
		pool:        raw.Pool,
		vocab:       raw.Vocab,
		segCounts:   raw.SegCounts,
		segOffs:     raw.SegOffs,
		segLens:     raw.SegLens,
		sketches:    sketches,
	})
	if err != nil {
		return err
	}
	if art != nil {
		sections = append(sections, secfile.Bytes(secArtifacts, AppendArtifacts(nil, art.Params, art.Mined)))
		if art.Segs != nil {
			sections = append(sections, secfile.Section{ID: secSpans, Size: spansSize(art.Segs),
				Write: func(w io.Writer) error {
					return writeSpans(w, art.Segs)
				}})
		}
	}

	if err := secfile.Write(w, magic, Version, sections); err != nil {
		return fmt.Errorf("corpusfile: %w", err)
	}
	return nil
}

// groupPayload is one section group's worth of corpus columns — the
// whole corpus for the base image, the appended delta for a segment.
// The writer does not care which: the section layout is identical.
type groupPayload struct {
	totalTokens int
	flags       uint32
	words       []int32
	keepSurface bool
	surface     []uint32
	gaps        []uint32
	pool        []string // full pool (base) or delta strings (segment)
	vocab       *textproc.Vocab
	segCounts   []int32
	segOffs     []int32
	segLens     []int32
	sketches    []minhash.Sketch // optional; one per document
}

// groupSections builds the section list shared by the base image and
// appended segments: meta, token columns, vocabulary, doc table and
// the optional sketch section.
func groupSections(gp groupPayload) ([]secfile.Section, error) {
	numTokens := len(gp.words)
	sections := []secfile.Section{
		{ID: secMeta, Size: metaSize, Write: func(w io.Writer) error {
			var b [metaSize]byte
			binary.LittleEndian.PutUint64(b[0:], uint64(gp.totalTokens))
			binary.LittleEndian.PutUint64(b[8:], uint64(len(gp.segCounts)))
			binary.LittleEndian.PutUint64(b[16:], uint64(len(gp.segOffs)))
			binary.LittleEndian.PutUint64(b[24:], uint64(numTokens))
			binary.LittleEndian.PutUint32(b[32:], gp.flags)
			_, err := w.Write(b[:])
			return err
		}},
		{ID: secTokens, Size: uint64(numTokens) * 4, Write: func(w io.Writer) error {
			return writeInt32s(w, gp.words)
		}},
	}
	if gp.keepSurface {
		sections = append(sections,
			secfile.Section{ID: secSurface, Size: uint64(numTokens) * 4, Write: func(w io.Writer) error {
				return writeUint32s(w, gp.surface)
			}},
			secfile.Section{ID: secGaps, Size: uint64(numTokens) * 4, Write: func(w io.Writer) error {
				return writeUint32s(w, gp.gaps)
			}},
			secfile.Section{ID: secPool, Size: poolSize(gp.pool), Write: func(w io.Writer) error {
				return writePool(w, gp.pool)
			}},
		)
	}
	sections = append(sections,
		secfile.Bytes(secVocab, gp.vocab.AppendFlat(nil)),
		secfile.Section{ID: secDocs, Size: uint64(len(gp.segCounts))*4 + uint64(len(gp.segOffs))*8,
			Write: func(w io.Writer) error {
				if err := writeInt32s(w, gp.segCounts); err != nil {
					return err
				}
				if err := writeInt32s(w, gp.segOffs); err != nil {
					return err
				}
				return writeInt32s(w, gp.segLens)
			}},
	)
	if gp.sketches != nil {
		if len(gp.sketches) != len(gp.segCounts) {
			return nil, fmt.Errorf("corpusfile: Write: %d sketches for %d documents",
				len(gp.sketches), len(gp.segCounts))
		}
		k := len(gp.sketches[0])
		for i, sk := range gp.sketches {
			if len(sk) != k {
				return nil, fmt.Errorf("corpusfile: Write: sketch %d has %d positions, sketch 0 has %d",
					i, len(sk), k)
			}
		}
		sections = append(sections, secfile.Section{ID: secSketch, Size: sketchSize(k, len(gp.sketches)),
			Write: func(w io.Writer) error {
				return writeSketchSection(w, k, gp.sketches)
			}})
	}
	return sections, nil
}

// buildFlags packs the build options into the meta section's flag word.
func buildFlags(opts corpus.BuildOptions, keepSurface bool) uint32 {
	var flags uint32
	if keepSurface {
		flags |= flagKeepSurface
	}
	if opts.Stem {
		flags |= flagStem
	}
	if opts.RemoveStopwords {
		flags |= flagRemoveStopwords
	}
	return flags
}

// AppendArtifacts appends the flat artifacts section encoding to dst:
// the mining parameters and the phrasemine.Result scalars, then the
// mined phrase counts as counter.NGrams.AppendFlat writes them.
//
//	uvarint MinSupport, f64 RelativeSupport, uvarint MaxPhraseLen,
//	f64 SigThreshold, uvarint TotalTokens, uvarint MinSupport,
//	uvarint MaxPhraseLen, uvarint levels, per level uvarint candidates,
//	then the counts.
//
// Integers are written as their two's-complement uint64, floats as
// little-endian IEEE bits.
func AppendArtifacts(dst []byte, prm Params, m *phrasemine.Result) []byte {
	putInt := func(v int) { dst = binary.AppendUvarint(dst, uint64(v)) }
	putInt(prm.MinSupport)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(prm.RelativeSupport))
	putInt(prm.MaxPhraseLen)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(prm.SigThreshold))
	putInt(m.TotalTokens)
	putInt(m.MinSupport)
	putInt(m.MaxPhraseLen)
	putInt(len(m.LevelCandidates))
	for _, n := range m.LevelCandidates {
		putInt(n)
	}
	return m.Counts.AppendFlat(dst)
}

// WriteFile writes the corpus (and optional artifacts) to path
// atomically (see internal/atomicfile: exclusive temp + rename, an
// existing file's permissions preserved, fresh files 0666 filtered by
// the umask — the same contract as the snapshot writer).
func WriteFile(path string, c *corpus.Corpus, art *Artifacts) error {
	return WriteFileSketched(path, c, art, nil)
}

// WriteFileSketched is WriteFile with an optional sketch section (see
// WriteSketched).
func WriteFileSketched(path string, c *corpus.Corpus, art *Artifacts, sketches []minhash.Sketch) error {
	err := atomicfile.Write(path, func(w io.Writer) error {
		return WriteSketched(w, c, art, sketches)
	})
	// Encoding errors already carry the corpusfile prefix; the
	// atomic-write machinery's own failures get it added here.
	var ae *atomicfile.Error
	if errors.As(err, &ae) {
		return fmt.Errorf("corpusfile: %w", err)
	}
	return err
}

// int32sAsBytes reinterprets an int32 slice as its in-memory bytes —
// valid as the little-endian wire form only on little-endian hosts.
func int32sAsBytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func uint32sAsBytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// writeInt32s writes the slice little-endian: one bulk write on LE
// hosts, a chunked conversion loop elsewhere.
func writeInt32s(w io.Writer, s []int32) error {
	if hostLittle {
		_, err := w.Write(int32sAsBytes(s))
		return err
	}
	return writeConverted(w, len(s), func(b []byte, i int) {
		binary.LittleEndian.PutUint32(b, uint32(s[i]))
	})
}

func writeUint32s(w io.Writer, s []uint32) error {
	if hostLittle {
		_, err := w.Write(uint32sAsBytes(s))
		return err
	}
	return writeConverted(w, len(s), func(b []byte, i int) {
		binary.LittleEndian.PutUint32(b, s[i])
	})
}

func uint64sAsBytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func writeUint64s(w io.Writer, s []uint64) error {
	if hostLittle {
		_, err := w.Write(uint64sAsBytes(s))
		return err
	}
	var buf [8192]byte
	for start := 0; start < len(s); {
		end := start + len(buf)/8
		if end > len(s) {
			end = len(s)
		}
		for i := start; i < end; i++ {
			binary.LittleEndian.PutUint64(buf[(i-start)*8:], s[i])
		}
		if _, err := w.Write(buf[:(end-start)*8]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Sketch section layout: k u32, numDocs u32, then numDocs × k u64
// sketch positions in document order.
func sketchSize(k, numDocs int) uint64 {
	return 8 + 8*uint64(k)*uint64(numDocs)
}

func writeSketchSection(w io.Writer, k int, sketches []minhash.Sketch) error {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(k))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(sketches)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	for _, sk := range sketches {
		if err := writeUint64s(w, sk); err != nil {
			return err
		}
	}
	return nil
}

func writeConverted(w io.Writer, n int, put func(b []byte, i int)) error {
	var buf [8192]byte
	for start := 0; start < n; {
		end := start + len(buf)/4
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			put(buf[(i-start)*4:], i)
		}
		if _, err := w.Write(buf[:(end-start)*4]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Pool section layout: count u32, then count × length u32, then the
// concatenated string bytes.
func poolSize(pool []string) uint64 {
	n := uint64(4 + 4*len(pool))
	for _, s := range pool {
		n += uint64(len(s))
	}
	return n
}

func writePool(w io.Writer, pool []string) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(pool)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	for _, s := range pool {
		binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	for _, s := range pool {
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	return nil
}

// Spans section layout: numDocs u32, then per document: nseg u32, per
// segment: nspan u32, per span: start u32, end u32.
func spansSize(segs []*segment.SegmentedDoc) uint64 {
	n := uint64(4)
	for _, sd := range segs {
		n += 4
		for _, spans := range sd.Spans {
			n += 4 + 8*uint64(len(spans))
		}
	}
	return n
}

func writeSpans(w io.Writer, segs []*segment.SegmentedDoc) error {
	bw := bufio.NewWriterSize(w, 64*1024)
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(segs)))
	if _, err := bw.Write(b[:4]); err != nil {
		return err
	}
	for _, sd := range segs {
		binary.LittleEndian.PutUint32(b[:4], uint32(len(sd.Spans)))
		if _, err := bw.Write(b[:4]); err != nil {
			return err
		}
		for _, spans := range sd.Spans {
			binary.LittleEndian.PutUint32(b[:4], uint32(len(spans)))
			if _, err := bw.Write(b[:4]); err != nil {
				return err
			}
			for _, sp := range spans {
				binary.LittleEndian.PutUint32(b[:4], uint32(sp.Start))
				binary.LittleEndian.PutUint32(b[4:], uint32(sp.End))
				if _, err := bw.Write(b[:]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
