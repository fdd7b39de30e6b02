package corpusfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"unsafe"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/minhash"
	"topmine/internal/phrasemine"
	"topmine/internal/secfile"
	"topmine/internal/segment"
	"topmine/internal/textproc"
)

// File is an opened .tpc corpus: the reconstructed corpus plus any
// bundled artifacts, and — when Open mmap'd the file — the mapping
// backing the corpus's token arena.
//
// The corpus (and everything derived from its token slices, including
// Sketches) is valid only until Close. Trained models are safe to
// keep: the topic-model documents copy their cliques out of the arena.
type File struct {
	c         *corpus.Corpus
	mined     *phrasemine.Result
	segs      []*segment.SegmentedDoc
	prm       Params
	version   uint16
	nAppended int
	stale     string
	sketchK   int
	sketches  []minhash.Sketch
	image     []byte // complete file image (aliases data when mapped)

	mu     sync.Mutex
	data   []byte // mmap'd region; nil when heap-backed
	mapped bool
}

// Corpus returns the reconstructed corpus. Its token arena may alias
// the mmap'd file; it is valid until Close.
func (f *File) Corpus() *corpus.Corpus { return f.c }

// DocRange returns a zero-copy corpus view of documents [lo, hi) of
// the stored corpus: segments, token arena, surface pool and
// vocabulary are shared with the full Corpus(), document IDs are
// rebased to the range. For a mapped file only the pages the range's
// segments touch ever fault in, so a distributed training worker can
// open a many-GB .tpc and pay only for its own partition. The view is
// valid until Close.
func (f *File) DocRange(lo, hi int) (*corpus.Corpus, error) {
	return f.c.DocRange(lo, hi)
}

// Mined returns the bundled frequent-phrase statistics, or nil when
// the file carries a corpus alone (or its artifacts went stale; see
// StaleArtifacts).
func (f *File) Mined() *phrasemine.Result { return f.mined }

// Segmented returns the bundled per-document phrase partitions, or nil.
func (f *File) Segmented() []*segment.SegmentedDoc { return f.segs }

// Params returns the mining/segmentation parameters the bundled
// artifacts were produced with (zero when no artifacts are stored).
func (f *File) Params() Params { return f.prm }

// Mapped reports whether the token arena is a zero-copy view into an
// mmap'd file (false on platforms without mmap, for Load, and on
// big-endian hosts, which take the conversion path).
func (f *File) Mapped() bool { return f.mapped }

// Version returns the file's format version: 1 for a single-segment
// file, 2 for a corpus grown in place by Append.
func (f *File) Version() uint16 { return f.version }

// AppendedSegments returns how many appended segments the file
// carries (zero for a version-1 file).
func (f *File) AppendedSegments() int { return f.nAppended }

// StaleArtifacts explains why bundled artifacts were dropped on open
// ("" when nothing was dropped). A multi-segment file's base artifacts
// describe only the pre-append corpus, so the reader refuses to serve
// them and callers re-mine instead of training on stale phrases.
func (f *File) StaleArtifacts() string { return f.stale }

// Sketches returns the per-document min-hash sketches when the file
// carries complete coverage (the base image and every appended segment
// store sketches of the same size), or nil. The slices alias the
// file's data and are valid until Close.
func (f *File) Sketches() []minhash.Sketch { return f.sketches }

// SketchK returns the stored sketches' position count (0 when
// Sketches is nil).
func (f *File) SketchK() int { return f.sketchK }

// Close releases the mapping, if any. The corpus returned by Corpus
// must not be used afterwards. Close is idempotent and safe for
// concurrent use.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.mapped || f.data == nil {
		return nil
	}
	data := f.data
	f.data = nil
	f.mapped = false
	f.image = nil
	if err := munmapFile(data); err != nil {
		return fmt.Errorf("corpusfile: unmapping corpus file: %w", err)
	}
	return nil
}

// Open maps the corpus file at path and reconstructs its corpus with
// zero-copy views into the mapping: the token arena columns and the
// segment tables are read in place, so opening costs decoding the
// string pool, vocabulary and artifacts plus one CRC pass — not a
// rebuild of the corpus. On platforms without mmap (and on big-endian
// hosts) it falls back to reading the file into memory; the result is
// identical either way.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpusfile: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("corpusfile: %w", err)
	}
	// Classify the two non-files a caller most plausibly points at by
	// mistake before any read: a directory would fail with a bare
	// EISDIR, an empty file with ErrBadMagic — both technically true
	// and both misleading.
	if fi.IsDir() {
		return nil, fmt.Errorf("%w: %s is a directory", ErrFormat, path)
	}
	if fi.Size() == 0 {
		return nil, fmt.Errorf("%w: %s is empty", ErrTruncated, path)
	}
	if hostLittle {
		if int64(int(fi.Size())) == fi.Size() {
			if data, merr := mmapFile(f, fi.Size()); merr == nil {
				cf, derr := decode(data)
				if derr != nil {
					munmapFile(data)
					return nil, derr
				}
				cf.data = data
				cf.mapped = true
				return cf, nil
			}
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("corpusfile: reading %s: %w", path, err)
	}
	return decode(data)
}

// Load reads a corpus file from a plain reader (no mmap). The whole
// file is materialised in memory; on little-endian hosts the token
// arena still aliases that buffer rather than being copied again.
func Load(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("corpusfile: reading corpus file: %w", err)
	}
	return decode(data)
}

// group is one decoded section group: the whole corpus for the base
// image, one appended delta for a version-2 segment.
type group struct {
	totalTokens uint64
	numDocs     uint64
	numSegs     uint64
	numTokens   uint64
	flags       uint32
	keepSurface bool

	words     []int32
	surface   []uint32
	gaps      []uint32
	pool      []string // full pool (base) or delta strings (segment)
	vocab     *textproc.Vocab
	segCounts []int32
	segOffs   []int32
	segLens   []int32

	sketchK  int
	sketches []minhash.Sketch // nil when the group stores none

	hasArtifacts bool
	hasSpans     bool
}

// decodeGroup decodes one section group. base is nil for the base
// image; for an appended segment it supplies the flags the segment
// must agree with.
func decodeGroup(data []byte, secs map[uint32]secfile.Entry, base *group) (*group, error) {
	body := func(id uint32) ([]byte, bool) {
		e, ok := secs[id]
		if !ok {
			return nil, false
		}
		return data[e.Off : e.Off+e.Size : e.Off+e.Size], true
	}

	metaB, ok := body(secMeta)
	if !ok || len(metaB) != metaSize {
		return nil, fmt.Errorf("%w: missing or misshapen meta section", ErrFormat)
	}
	g := &group{
		totalTokens: binary.LittleEndian.Uint64(metaB[0:]),
		numDocs:     binary.LittleEndian.Uint64(metaB[8:]),
		numSegs:     binary.LittleEndian.Uint64(metaB[16:]),
		numTokens:   binary.LittleEndian.Uint64(metaB[24:]),
		flags:       binary.LittleEndian.Uint32(metaB[32:]),
	}
	const maxCount = 1 << 31 // every count fits int32 by construction
	if g.totalTokens > maxCount || g.numDocs > maxCount || g.numSegs > maxCount || g.numTokens > maxCount {
		return nil, fmt.Errorf("%w: implausible counts (tokens=%d docs=%d segs=%d arena=%d)",
			ErrFormat, g.totalTokens, g.numDocs, g.numSegs, g.numTokens)
	}
	if base != nil && g.flags != base.flags {
		return nil, fmt.Errorf("%w: appended segment flags %#x disagree with the base image's %#x",
			ErrFormat, g.flags, base.flags)
	}
	g.keepSurface = g.flags&flagKeepSurface != 0

	tokB, ok := body(secTokens)
	if !ok || uint64(len(tokB)) != g.numTokens*4 {
		return nil, fmt.Errorf("%w: token arena section is %d bytes, meta claims %d tokens",
			ErrFormat, len(tokB), g.numTokens)
	}
	g.words = int32sFromBytes(tokB)

	if g.keepSurface {
		surB, ok1 := body(secSurface)
		gapB, ok2 := body(secGaps)
		poolB, ok3 := body(secPool)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("%w: surface flag set but surface/gap/pool sections missing", ErrFormat)
		}
		if uint64(len(surB)) != g.numTokens*4 || uint64(len(gapB)) != g.numTokens*4 {
			return nil, fmt.Errorf("%w: surface/gap sections are %d/%d bytes, meta claims %d tokens",
				ErrFormat, len(surB), len(gapB), g.numTokens)
		}
		g.surface = uint32sFromBytes(surB)
		g.gaps = uint32sFromBytes(gapB)
		pool, err := decodePool(poolB)
		if err != nil {
			return nil, err
		}
		g.pool = pool
	}

	vocab, err := decodeVocab(body)
	if err != nil {
		return nil, err
	}
	g.vocab = vocab

	docB, ok := body(secDocs)
	if !ok || uint64(len(docB)) != g.numDocs*4+g.numSegs*8 {
		return nil, fmt.Errorf("%w: docs section is %d bytes for %d docs / %d segments",
			ErrFormat, len(docB), g.numDocs, g.numSegs)
	}
	g.segCounts = int32sFromBytes(docB[:g.numDocs*4])
	g.segOffs = int32sFromBytes(docB[g.numDocs*4 : g.numDocs*4+g.numSegs*4])
	g.segLens = int32sFromBytes(docB[g.numDocs*4+g.numSegs*4:])

	if skB, ok := body(secSketch); ok {
		k, sketches, err := decodeSketchSection(skB, g.numDocs)
		if err != nil {
			return nil, err
		}
		g.sketchK, g.sketches = k, sketches
	}

	_, flatArt := secs[secArtifacts]
	_, gobArt := secs[secArtifactsGob]
	g.hasArtifacts = flatArt || gobArt
	_, g.hasSpans = secs[secSpans]
	return g, nil
}

// decodeVocab decodes a group's vocabulary from its flat section or, in
// a group written before that section existed, from its gob section.
func decodeVocab(body func(uint32) ([]byte, bool)) (*textproc.Vocab, error) {
	flat, isFlat := body(secVocab)
	old, isGob := body(secVocabGob)
	var v *textproc.Vocab
	var err error
	switch {
	case isFlat && isGob:
		return nil, fmt.Errorf("%w: both a flat and a gob vocabulary section", ErrFormat)
	case isFlat:
		v, err = textproc.DecodeFlatVocab(flat)
	case isGob:
		v = textproc.NewVocab()
		err = secfile.GobDecode(old, v)
	default:
		return nil, fmt.Errorf("%w: missing vocabulary section", ErrFormat)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: decoding vocabulary: %v", ErrFormat, err)
	}
	return v, nil
}

// decode parses and validates a complete .tpc image. On little-endian
// hosts the returned corpus's array columns alias data; the caller
// decides whether data is an mmap region or a heap buffer.
func decode(data []byte) (*File, error) {
	im, err := secfile.Decode(data, magic, errs, Version, VersionMulti)
	if err != nil {
		return nil, err
	}
	g, err := decodeGroup(data, im.Sections, nil)
	if err != nil {
		return nil, err
	}

	raw := &corpus.Raw{
		Words:       g.words,
		Surface:     g.surface,
		Gaps:        g.gaps,
		Pool:        g.pool,
		KeepSurface: g.keepSurface,
		SegCounts:   g.segCounts,
		SegOffs:     g.segOffs,
		SegLens:     g.segLens,
		Vocab:       g.vocab,
		TotalTokens: int(g.totalTokens),
		BuildOpts: corpus.BuildOptions{
			Stem:            g.flags&flagStem != 0,
			RemoveStopwords: g.flags&flagRemoveStopwords != 0,
			KeepSurface:     g.keepSurface,
		},
	}

	if im.Version == VersionMulti {
		return decodeMulti(data, raw, g, im.End)
	}

	c, err := corpus.FromRaw(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	cf := &File{c: c, version: im.Version, image: data, sketchK: g.sketchK, sketches: g.sketches}
	body := im.Body
	if g.hasArtifacts {
		prm, mined, err := decodeArtifacts(body, c.Vocab.Size())
		if err != nil {
			return nil, err
		}
		if mined.TotalTokens != c.TotalTokens {
			return nil, fmt.Errorf("%w: mined phrases counted %d tokens, corpus has %d",
				ErrFormat, mined.TotalTokens, c.TotalTokens)
		}
		cf.mined = mined
		cf.prm = prm
		if spanB, ok := body(secSpans); ok {
			segs, err := decodeSpans(spanB, c)
			if err != nil {
				return nil, err
			}
			cf.segs = segs
		}
	} else if _, ok := body(secSpans); ok {
		return nil, fmt.Errorf("%w: spans section without artifacts section", ErrFormat)
	}
	return cf, nil
}

// decodeMulti finishes decoding a version-2 file: it walks the
// appended segments after the base image, validates the vocabulary
// prefix chain, and assembles the grown corpus from the base columns
// plus per-segment deltas without copying either.
func decodeMulti(data []byte, base *corpus.Raw, bg *group, baseEnd uint64) (*File, error) {
	var groups []corpus.RawGroup
	vocabs := []*textproc.Vocab{bg.vocab}
	sketchOK := bg.sketches != nil
	allSketches := bg.sketches
	sketchK := bg.sketchK
	nseg := 0
	pos := secfile.AlignUp(baseEnd)
	for pos < uint64(len(data)) {
		sg, segEnd, err := decodeSegment(data, pos, bg)
		if err != nil {
			return nil, err
		}
		groups = append(groups, corpus.RawGroup{
			Words:       sg.words,
			Surface:     sg.surface,
			Gaps:        sg.gaps,
			PoolDelta:   sg.pool,
			SegCounts:   sg.segCounts,
			SegOffs:     sg.segOffs,
			SegLens:     sg.segLens,
			TotalTokens: int(sg.totalTokens),
		})
		vocabs = append(vocabs, sg.vocab)
		if sketchOK && sg.sketches != nil && sg.sketchK == sketchK {
			allSketches = append(allSketches, sg.sketches...)
		} else {
			sketchOK = false
		}
		nseg++
		// segEnd covers at least the segment's own table, which starts
		// past pos, so the walk always advances.
		pos = secfile.AlignUp(segEnd)
	}
	if nseg == 0 {
		return nil, fmt.Errorf("%w: multi-segment file ends before its first appended segment", ErrTruncated)
	}
	// Each vocabulary snapshot must extend the previous one: ids only
	// ever grow, and the last segment's vocabulary serves the whole
	// file. A file violating this would silently re-label tokens.
	for i := 0; i+1 < len(vocabs); i++ {
		if !vocabs[i].IsPrefixOf(vocabs[i+1]) {
			return nil, fmt.Errorf("%w: segment %d vocabulary is not an extension of its predecessor", ErrFormat, i+1)
		}
	}
	base.Vocab = vocabs[len(vocabs)-1]
	c, err := corpus.FromRawGroups(base, groups)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	cf := &File{c: c, version: VersionMulti, nAppended: nseg, image: data}
	if bg.hasArtifacts {
		cf.stale = fmt.Sprintf("bundled artifacts predate %d appended segment(s) and were dropped; re-mine the grown corpus to refresh them", nseg)
	}
	if sketchOK {
		cf.sketchK, cf.sketches = sketchK, allSketches
	}
	return cf, nil
}

// decodeSegment parses one appended segment starting at pos.
func decodeSegment(data []byte, pos uint64, base *group) (*group, uint64, error) {
	if uint64(len(data)) < pos+segHeaderSize {
		return nil, 0, fmt.Errorf("%w: file ends inside an appended segment header", ErrTruncated)
	}
	hdr := data[pos:]
	if !bytes.Equal(hdr[:8], []byte(segMagic)) {
		return nil, 0, fmt.Errorf("%w: appended segment at offset %d has bad magic", ErrFormat, pos)
	}
	nsec := int(binary.LittleEndian.Uint32(hdr[8:]))
	if nsec < 1 || nsec > 64 {
		return nil, 0, fmt.Errorf("%w: appended segment claims %d sections", ErrFormat, nsec)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[12:])
	tableStart := int(pos) + segHeaderSize
	secs, end, err := secfile.ParseTable(data, tableStart, nsec, errs)
	if err != nil {
		return nil, 0, err
	}
	if got := crc32.ChecksumIEEE(data[tableStart : tableStart+nsec*tableEntrySize]); got != wantCRC {
		return nil, 0, fmt.Errorf("%w: appended segment table CRC %08x, header says %08x",
			ErrChecksum, got, wantCRC)
	}
	if err := secfile.VerifyCRCs(data, secs, errs); err != nil {
		return nil, 0, err
	}
	g, err := decodeGroup(data, secs, base)
	if err != nil {
		return nil, 0, err
	}
	if g.hasArtifacts || g.hasSpans {
		return nil, 0, fmt.Errorf("%w: appended segment carries artifact sections", ErrFormat)
	}
	return g, end, nil
}

// int32sFromBytes reinterprets a little-endian byte section as int32s.
// On little-endian hosts this is a zero-copy cast (the write side
// guarantees 4-byte alignment via the 64-byte section alignment);
// elsewhere it converts into a fresh slice.
func int32sFromBytes(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func uint32sFromBytes(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func uint64sFromBytes(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// decodeSketchSection decodes one group's sketch section and checks
// it covers exactly the group's documents.
func decodeSketchSection(b []byte, numDocs uint64) (int, []minhash.Sketch, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: sketch section too short", ErrFormat)
	}
	k := binary.LittleEndian.Uint32(b)
	n := binary.LittleEndian.Uint32(b[4:])
	if k == 0 || k > 1<<16 {
		return 0, nil, fmt.Errorf("%w: implausible sketch size %d", ErrFormat, k)
	}
	if uint64(n) != numDocs {
		return 0, nil, fmt.Errorf("%w: sketch section covers %d docs, group has %d", ErrFormat, n, numDocs)
	}
	if uint64(len(b)) != 8+8*uint64(k)*uint64(n) {
		return 0, nil, fmt.Errorf("%w: sketch section is %d bytes for %d×%d positions", ErrFormat, len(b), n, k)
	}
	all := uint64sFromBytes(b[8:])
	sketches := make([]minhash.Sketch, n)
	for i := range sketches {
		sketches[i] = all[i*int(k) : (i+1)*int(k) : (i+1)*int(k)]
	}
	return int(k), sketches, nil
}

// decodePool decodes the interned string table. Strings are copied to
// the heap — they are small next to the arena, and heap copies keep
// them valid past Close.
func decodePool(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: string pool section too short", ErrFormat)
	}
	count := binary.LittleEndian.Uint32(b)
	// Bound and slice in 64-bit arithmetic: 4+4*count wraps in uint32
	// for counts near 2^30, which would let a hostile header pass the
	// check and panic on the first out-of-range read.
	lensEnd := 4 + 4*uint64(count)
	if uint64(len(b)) < lensEnd {
		return nil, fmt.Errorf("%w: string pool claims %d entries in %d bytes", ErrFormat, count, len(b))
	}
	lens := b[4:lensEnd]
	blob := b[lensEnd:]
	pool := make([]string, count)
	pos := uint64(0)
	for i := range pool {
		n := uint64(binary.LittleEndian.Uint32(lens[i*4:]))
		if pos+n > uint64(len(blob)) {
			return nil, fmt.Errorf("%w: string pool entry %d overruns the section", ErrFormat, i)
		}
		pool[i] = string(blob[pos : pos+n])
		pos += n
	}
	if pos != uint64(len(blob)) {
		return nil, fmt.Errorf("%w: string pool has %d trailing bytes", ErrFormat, uint64(len(blob))-pos)
	}
	return pool, nil
}

// DecodeArtifacts decodes a payload written by AppendArtifacts over a
// vocabulary of vocabSize words. Every count and length is checked
// against the bytes left, and counter.DecodeFlat checks the phrases.
func DecodeArtifacts(b []byte, vocabSize int) (Params, *phrasemine.Result, error) {
	r := secfile.NewReader(b)
	float := func() float64 {
		if f := r.Bytes(8); f != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(f))
		}
		return 0
	}
	prm := Params{MinSupport: int(r.Uvarint()), RelativeSupport: float(), MaxPhraseLen: int(r.Uvarint()), SigThreshold: float()}
	m := &phrasemine.Result{TotalTokens: int(r.Uvarint()), MinSupport: int(r.Uvarint()), MaxPhraseLen: int(r.Uvarint())}
	if n := r.Count(1); n > 0 {
		m.LevelCandidates = make([]int, n)
		for i := range m.LevelCandidates {
			m.LevelCandidates[i] = int(r.Uvarint())
		}
	}
	counts := r.Bytes(len(b) - r.Offset())
	if err := r.Err(); err != nil {
		return Params{}, nil, fmt.Errorf("corpusfile: decoding artifacts: %w", err)
	}
	var err error
	if m.Counts, err = counter.DecodeFlat(counts, vocabSize); err != nil {
		return Params{}, nil, fmt.Errorf("corpusfile: decoding artifacts: %w", err)
	}
	return prm, m, nil
}

// artifactsPayload is the gob wire form of the artifacts section that
// earlier builds wrote (secArtifactsGob); it is decoded, never written.
type artifactsPayload struct {
	Params Params
	Mined  *phrasemine.Result
}

// decodeArtifacts decodes the base image's mining parameters and mined
// phrases from its flat artifacts section or, in a file written before
// that section existed, from its gob section. Gob-decoded artifacts are
// re-encoded flat, so that one decoder checks every file's word ids and
// counts.
func decodeArtifacts(body func(uint32) ([]byte, bool), vocabSize int) (Params, *phrasemine.Result, error) {
	b, isFlat := body(secArtifacts)
	if old, isGob := body(secArtifactsGob); isGob {
		if isFlat {
			return Params{}, nil, fmt.Errorf("%w: both a flat and a gob artifacts section", ErrFormat)
		}
		var payload artifactsPayload
		if err := secfile.GobDecode(old, &payload); err != nil {
			return Params{}, nil, fmt.Errorf("%w: decoding artifacts: %v", ErrFormat, err)
		}
		if payload.Mined == nil || payload.Mined.Counts == nil {
			return Params{}, nil, fmt.Errorf("%w: artifacts section carries no mined phrases", ErrFormat)
		}
		b = AppendArtifacts(nil, payload.Params, payload.Mined)
	}
	prm, m, err := DecodeArtifacts(b, vocabSize)
	if err != nil {
		return Params{}, nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return prm, m, nil
}

// decodeSpans decodes the flat phrase-partition section and validates
// it against the corpus: every document's span lists must tile its
// segments exactly (the partition property of Definition 1), so a
// corrupt file fails here instead of feeding the trainer out-of-range
// token ranges.
func decodeSpans(b []byte, c *corpus.Corpus) ([]*segment.SegmentedDoc, error) {
	rd := spanReader{b: b}
	nd, ok := rd.u32()
	if !ok || int(nd) != len(c.Docs) {
		return nil, fmt.Errorf("%w: spans section covers %d docs, corpus has %d", ErrFormat, nd, len(c.Docs))
	}
	segs := make([]*segment.SegmentedDoc, nd)
	for d := range segs {
		nseg, ok := rd.u32()
		if !ok || int(nseg) != len(c.Docs[d].Segments) {
			return nil, fmt.Errorf("%w: spans for doc %d cover %d segments, corpus has %d",
				ErrFormat, d, nseg, len(c.Docs[d].Segments))
		}
		sd := &segment.SegmentedDoc{DocID: d, Spans: make([][]segment.Span, nseg)}
		for si := 0; si < int(nseg); si++ {
			nspan, ok := rd.u32()
			if !ok {
				return nil, fmt.Errorf("%w: spans section ends inside doc %d", ErrFormat, d)
			}
			segLen := c.Docs[d].Segments[si].Len()
			// Every valid span covers at least one token, so nspan is
			// bounded by the segment length; checking before the
			// allocation keeps a crafted count from forcing a huge
			// make and aborting the process instead of erroring.
			if int64(nspan) > int64(segLen) {
				return nil, fmt.Errorf("%w: doc %d segment %d claims %d spans over %d tokens",
					ErrFormat, d, si, nspan, segLen)
			}
			spans := make([]segment.Span, nspan)
			prev := 0
			for j := range spans {
				s, ok1 := rd.u32()
				e, ok2 := rd.u32()
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("%w: spans section ends inside doc %d", ErrFormat, d)
				}
				if int(s) != prev || e <= s || int(e) > segLen {
					return nil, fmt.Errorf("%w: doc %d segment %d span [%d,%d) does not tile a %d-token segment",
						ErrFormat, d, si, s, e, segLen)
				}
				spans[j] = segment.Span{Start: int(s), End: int(e)}
				prev = int(e)
			}
			if prev != segLen {
				return nil, fmt.Errorf("%w: doc %d segment %d spans cover %d of %d tokens",
					ErrFormat, d, si, prev, segLen)
			}
			sd.Spans[si] = spans
		}
		segs[d] = sd
	}
	if len(rd.b) != rd.pos {
		return nil, fmt.Errorf("%w: spans section has %d trailing bytes", ErrFormat, len(rd.b)-rd.pos)
	}
	return segs, nil
}

type spanReader struct {
	b   []byte
	pos int
}

func (r *spanReader) u32() (uint32, bool) {
	if r.pos+4 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v, true
}
