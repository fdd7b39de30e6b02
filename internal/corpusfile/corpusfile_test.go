package corpusfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
)

var testDocs = []string{
	"frequent pattern mining finds frequent patterns in large data sets.",
	"topic models such as latent dirichlet allocation model documents; topic models are generative.",
	"", // empty documents keep their slot
	"frequent pattern mining, again: frequent pattern mining!",
	"support vector machines and support vector regression use kernels.",
	"mining frequent patterns from data streams is harder than mining static data.",
}

func buildTestCorpus(t testing.TB, keepSurface bool) *corpus.Corpus {
	t.Helper()
	opt := corpus.DefaultBuildOptions()
	opt.KeepSurface = keepSurface
	return corpus.FromStrings(testDocs, opt)
}

func mineAndSegment(t testing.TB, c *corpus.Corpus) *Artifacts {
	t.Helper()
	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: 2, MaxLen: 8})
	segs := segment.NewSegmenter(mined, segment.Options{Alpha: 1, MaxPhraseLen: 8, Workers: 1}).SegmentCorpus(c)
	return &Artifacts{
		Params: Params{MinSupport: 2, MaxPhraseLen: 8, SigThreshold: 1},
		Mined:  mined,
		Segs:   segs,
	}
}

// sameCorpus verifies that two corpora are observationally identical:
// same stats, same tokens, same surfaces/gaps, same vocabulary.
func sameCorpus(t *testing.T, want, got *corpus.Corpus) {
	t.Helper()
	if w, g := want.ComputeStats(), got.ComputeStats(); w != g {
		t.Fatalf("stats differ:\nwant %v\ngot  %v", w, g)
	}
	if want.TotalTokens != got.TotalTokens {
		t.Fatalf("TotalTokens: want %d, got %d", want.TotalTokens, got.TotalTokens)
	}
	if want.BuildOpts.Stem != got.BuildOpts.Stem ||
		want.BuildOpts.RemoveStopwords != got.BuildOpts.RemoveStopwords ||
		want.BuildOpts.KeepSurface != got.BuildOpts.KeepSurface {
		t.Fatalf("BuildOpts: want %+v, got %+v", want.BuildOpts, got.BuildOpts)
	}
	if w, g := want.Vocab.Size(), got.Vocab.Size(); w != g {
		t.Fatalf("vocab size: want %d, got %d", w, g)
	}
	for id := int32(0); int(id) < want.Vocab.Size(); id++ {
		if w, g := want.Vocab.Word(id), got.Vocab.Word(id); w != g {
			t.Fatalf("vocab word %d: want %q, got %q", id, w, g)
		}
		if w, g := want.Vocab.Unstem(id), got.Vocab.Unstem(id); w != g {
			t.Fatalf("vocab unstem %d: want %q, got %q", id, w, g)
		}
		if w, g := want.Vocab.Count(id), got.Vocab.Count(id); w != g {
			t.Fatalf("vocab count %d: want %d, got %d", id, w, g)
		}
	}
	for d := range want.Docs {
		wd, gd := want.Docs[d], got.Docs[d]
		if len(wd.Segments) != len(gd.Segments) {
			t.Fatalf("doc %d: want %d segments, got %d", d, len(wd.Segments), len(gd.Segments))
		}
		for si := range wd.Segments {
			ws, gs := &wd.Segments[si], &gd.Segments[si]
			if !reflect.DeepEqual(ws.Words(), gs.Words()) {
				t.Fatalf("doc %d seg %d words: want %v, got %v", d, si, ws.Words(), gs.Words())
			}
			if ws.HasSurface() != gs.HasSurface() {
				t.Fatalf("doc %d seg %d HasSurface: want %v, got %v", d, si, ws.HasSurface(), gs.HasSurface())
			}
			for i := 0; i < ws.Len(); i++ {
				if ws.Surface(i) != gs.Surface(i) || ws.Gap(i) != gs.Gap(i) {
					t.Fatalf("doc %d seg %d token %d: want %q/%q, got %q/%q",
						d, si, i, ws.Surface(i), ws.Gap(i), gs.Surface(i), gs.Gap(i))
				}
			}
		}
	}
}

func TestRoundTripLoad(t *testing.T) {
	for _, keep := range []bool{true, false} {
		c := buildTestCorpus(t, keep)
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			t.Fatalf("keep=%v: Write: %v", keep, err)
		}
		f, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("keep=%v: Load: %v", keep, err)
		}
		sameCorpus(t, c, f.Corpus())
		if f.Mined() != nil || f.Segmented() != nil {
			t.Fatalf("keep=%v: corpus-only file carries artifacts", keep)
		}
		if f.Mapped() {
			t.Fatalf("keep=%v: Load must not report a mapping", keep)
		}
	}
}

func TestRoundTripArtifacts(t *testing.T) {
	c := buildTestCorpus(t, true)
	art := mineAndSegment(t, c)
	var buf bytes.Buffer
	if err := WriteArtifacts(&buf, c, art); err != nil {
		t.Fatal(err)
	}
	f, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCorpus(t, c, f.Corpus())
	if f.Params() != art.Params {
		t.Fatalf("params: want %+v, got %+v", art.Params, f.Params())
	}
	if f.Mined() == nil || f.Mined().Counts.Len() != art.Mined.Counts.Len() {
		t.Fatalf("mined phrases not restored")
	}
	if f.Mined().MinSupport != art.Mined.MinSupport || f.Mined().MaxPhraseLen != art.Mined.MaxPhraseLen {
		t.Fatalf("mined metadata differs: %+v vs %+v", f.Mined(), art.Mined)
	}
	wantEntries := art.Mined.Counts.Entries(1)
	gotEntries := f.Mined().Counts.Entries(1)
	if !reflect.DeepEqual(wantEntries, gotEntries) {
		t.Fatalf("mined entries differ")
	}
	if !reflect.DeepEqual(art.Segs, f.Segmented()) {
		t.Fatalf("segmented docs differ:\nwant %+v\ngot  %+v", art.Segs, f.Segmented())
	}
}

func TestOpenMmap(t *testing.T) {
	c := buildTestCorpus(t, true)
	art := mineAndSegment(t, c)
	path := filepath.Join(t.TempDir(), "corpus.tpc")
	if err := WriteFile(path, c, art); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Mapped() && hostLittle {
		t.Error("Open did not mmap on a little-endian unix host")
	}
	sameCorpus(t, c, f.Corpus())
	if !reflect.DeepEqual(art.Segs, f.Segmented()) {
		t.Fatalf("segmented docs differ after mmap open")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	c := buildTestCorpus(t, false)
	path := filepath.Join(t.TempDir(), "corpus.tpc")
	if err := WriteFile(path, c, nil); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second corpus; the file must stay valid.
	if err := WriteFile(path, c, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sameCorpus(t, c, f.Corpus())
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

// corrupt loads a mutated copy of a valid file image and returns the
// error (failing the test on success or panic).
func loadCorrupt(t *testing.T, img []byte, mutate func([]byte)) error {
	t.Helper()
	b := append([]byte(nil), img...)
	if mutate != nil {
		mutate(b)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked on corrupt input: %v", r)
		}
	}()
	f, err := Load(bytes.NewReader(b))
	if err == nil {
		t.Fatalf("Load accepted corrupt input (got corpus with %d docs)", len(f.Corpus().Docs))
	}
	return err
}

func validImage(t testing.TB) []byte {
	t.Helper()
	c := buildTestCorpus(t, true)
	art := mineAndSegment(t, c)
	var buf bytes.Buffer
	if err := WriteArtifacts(&buf, c, art); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCorruptBadMagic(t *testing.T) {
	img := validImage(t)
	err := loadCorrupt(t, img, func(b []byte) { b[0] = 'X' })
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	// A foreign file entirely.
	err = loadCorrupt(t, []byte("this is not a corpus file at all"), nil)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	// An empty file.
	err = loadCorrupt(t, nil, nil)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestCorruptVersion(t *testing.T) {
	err := loadCorrupt(t, validImage(t), func(b []byte) { b[8] = 0xFF })
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestCorruptChecksum(t *testing.T) {
	img := validImage(t)
	// Flip one byte in the middle of the token arena (well past the
	// header and table, before the trailing sections).
	err := loadCorrupt(t, img, func(b []byte) { b[len(b)/3] ^= 0x40 })
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

func TestCorruptTruncatedArena(t *testing.T) {
	img := validImage(t)
	// Cut the file in half: some section (the arena or a later one) now
	// extends past EOF, which the table bounds check must catch.
	err := loadCorrupt(t, img[:len(img)/2], nil)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

// TestCorruptEveryTruncation chops the file at a sweep of lengths and
// requires a named error (and no panic) at every cut. Every cut in the
// header+table region is tried individually — a cut between the magic
// and the end of the header once panicked instead of erroring — plus a
// stepped sweep over the section payloads.
func TestCorruptEveryTruncation(t *testing.T) {
	img := validImage(t)
	check := func(cut int) {
		t.Helper()
		err := loadCorrupt(t, img[:cut], nil)
		if !(errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTruncated) ||
			errors.Is(err, ErrChecksum) || errors.Is(err, ErrFormat) || errors.Is(err, ErrVersion)) {
			t.Fatalf("cut at %d/%d: unclassified error %v", cut, len(img), err)
		}
	}
	dense := 4 * sectionAlign // all of header + table + first padding
	if dense > len(img) {
		dense = len(img)
	}
	for cut := 0; cut < dense; cut++ {
		check(cut)
	}
	step := len(img)/97 + 1
	for cut := dense; cut < len(img); cut += step {
		check(cut)
	}
}

// TestCorruptEveryByteFlip flips one byte at a sweep of positions; the
// reader must either reject the file with a named error or (for bytes
// in padding) still decode it — never panic. Flips inside CRC-covered
// payloads must be detected.
func TestCorruptEveryByteFlip(t *testing.T) {
	img := validImage(t)
	step := len(img)/211 + 1
	for pos := 0; pos < len(img); pos += step {
		b := append([]byte(nil), img...)
		b[pos] ^= 0xA5
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at %d: Load panicked: %v", pos, r)
				}
			}()
			Load(bytes.NewReader(b))
		}()
	}
}

func TestCorruptSectionTable(t *testing.T) {
	img := validImage(t)
	// Point the first section's offset past EOF.
	err := loadCorrupt(t, img, func(b []byte) {
		off := uint64(len(b)) + sectionAlign
		off &^= uint64(sectionAlign - 1)
		for i := 0; i < 8; i++ {
			b[headerSize+8+i] = byte(off >> (8 * i))
		}
	})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated for out-of-file section, got %v", err)
	}
	// Unaligned offset.
	err = loadCorrupt(t, img, func(b []byte) { b[headerSize+8]++ })
	if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrFormat/ErrTruncated for unaligned section, got %v", err)
	}
}

// TestValidateMinedRejectsBadWordIDs pins that a CRC-valid file whose
// mined phrases reference out-of-vocabulary word ids is rejected at
// load (display paths index vocabulary tables by id and would panic).
func TestValidateMinedRejectsBadWordIDs(t *testing.T) {
	c := buildTestCorpus(t, true)
	art := mineAndSegment(t, c)
	art.Segs = nil // keep the hostile phrase out of span validation
	art.Mined.Counts.Inc(counter.Key([]int32{int32(c.Vocab.Size() + 7)}))
	var buf bytes.Buffer
	if err := WriteArtifacts(&buf, c, art); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("want ErrFormat for out-of-vocab mined phrase, got %v", err)
	}
}

// TestDecodeSpansRejectsHugeCount pins that a crafted span count is
// rejected before it can size an allocation (a CRC-valid file can
// still carry hostile counts).
func TestDecodeSpansRejectsHugeCount(t *testing.T) {
	c := buildTestCorpus(t, false)
	var b []byte
	u32 := func(v uint32) { b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
	u32(uint32(len(c.Docs)))
	u32(uint32(len(c.Docs[0].Segments))) // doc 0 segment count (valid)
	u32(0xFFFFFFFF)                      // hostile span count for segment 0
	_, err := decodeSpans(b, c)
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("want ErrFormat for hostile span count, got %v", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent.tpc")); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
}
