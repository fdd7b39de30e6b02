package corpusfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/minhash"
	"topmine/internal/phrasemine"
	"topmine/internal/secfile"
)

var appendDocs = []string{
	"incremental corpus growth appends new documents without rewriting old ones.",
	"",
	"streaming data arrives in shards; shards merge into one corpus.",
	"frequent pattern mining finds frequent patterns in streaming data too.",
}

func writeShard(t *testing.T, dir, name string, docs []string, keep bool) string {
	t.Helper()
	opt := corpus.DefaultBuildOptions()
	opt.KeepSurface = keep
	path := filepath.Join(dir, name)
	if err := WriteFile(path, corpus.FromStrings(docs, opt), nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func appendDocsTo(t testing.TB, path string, docs []string, opt AppendOptions) *AppendStats {
	t.Helper()
	stats, err := AppendFile(path, corpus.SliceSource(docs), opt)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestAppendFileEquivalence pins the core growth contract at the file
// layer: a corpus grown by AppendFile is observationally identical to
// one preprocessed from the concatenated input, and re-persisting it
// reproduces the from-scratch .tpc image byte for byte.
func TestAppendFileEquivalence(t *testing.T) {
	for _, keep := range []bool{true, false} {
		dir := t.TempDir()
		path := writeShard(t, dir, "grow.tpc", testDocs, keep)
		stats := appendDocsTo(t, path, appendDocs, AppendOptions{})
		if stats.DocsAdded != len(appendDocs) || stats.DocsSkipped != 0 || stats.Segments != 1 {
			t.Fatalf("stats = %+v", stats)
		}

		f, err := Open(path)
		if err != nil {
			t.Fatalf("keep=%v: open grown file: %v", keep, err)
		}
		defer f.Close()
		if f.Version() != VersionMulti || f.AppendedSegments() != 1 {
			t.Fatalf("version=%d segments=%d", f.Version(), f.AppendedSegments())
		}

		opt := corpus.DefaultBuildOptions()
		opt.KeepSurface = keep
		want := corpus.FromStrings(append(append([]string{}, testDocs...), appendDocs...), opt)
		sameCorpus(t, want, f.Corpus())

		var wantBuf, gotBuf bytes.Buffer
		if err := Write(&wantBuf, want); err != nil {
			t.Fatal(err)
		}
		if err := Write(&gotBuf, f.Corpus()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
			t.Fatalf("keep=%v: re-persisted grown corpus differs from from-scratch image", keep)
		}
	}
}

// TestAppendFileTwice grows a grown file again: two appended segments,
// still equivalent to the triple concatenation.
func TestAppendFileTwice(t *testing.T) {
	dir := t.TempDir()
	path := writeShard(t, dir, "grow.tpc", testDocs, true)
	appendDocsTo(t, path, appendDocs, AppendOptions{})
	more := []string{"a third shard arrives later still."}
	stats := appendDocsTo(t, path, more, AppendOptions{})
	if stats.Segments != 2 {
		t.Fatalf("Segments = %d, want 2", stats.Segments)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.AppendedSegments() != 2 {
		t.Fatalf("AppendedSegments = %d", f.AppendedSegments())
	}
	all := append(append(append([]string{}, testDocs...), appendDocs...), more...)
	sameCorpus(t, corpus.FromStrings(all, corpus.DefaultBuildOptions()), f.Corpus())
}

// TestDocRangeViews pins the zero-copy doc-range open a distributed
// training worker relies on: over a 2-segment v2 file, two disjoint
// ranges must reproduce the full open's token and segment data byte
// for byte, share (not copy) the token arena, surface pool and
// vocabulary, and rebase document IDs to the range.
func TestDocRangeViews(t *testing.T) {
	dir := t.TempDir()
	path := writeShard(t, dir, "grow.tpc", testDocs, true)
	appendDocsTo(t, path, appendDocs, AppendOptions{})

	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Version() != VersionMulti {
		t.Fatalf("fixture is not a v2 file (version %d)", f.Version())
	}
	full := f.Corpus()
	n := len(full.Docs)
	mid := len(testDocs) // base-segment/appended-segment boundary

	wantTokens := 0
	for _, r := range [][2]int{{0, mid}, {mid, n}} {
		sub, err := f.DocRange(r[0], r[1])
		if err != nil {
			t.Fatalf("DocRange(%d, %d): %v", r[0], r[1], err)
		}
		if len(sub.Docs) != r[1]-r[0] {
			t.Fatalf("range %v: %d docs", r, len(sub.Docs))
		}
		if sub.Vocab != full.Vocab {
			t.Fatalf("range %v: vocabulary copied instead of shared", r)
		}
		tokens := 0
		for i, sd := range sub.Docs {
			fd := full.Docs[r[0]+i]
			if sd.ID != i {
				t.Fatalf("range %v doc %d: ID %d not rebased", r, i, sd.ID)
			}
			if len(sd.Segments) != len(fd.Segments) {
				t.Fatalf("range %v doc %d: %d segments, want %d", r, i, len(sd.Segments), len(fd.Segments))
			}
			for si := range sd.Segments {
				sw, fw := sd.Segments[si].Words(), fd.Segments[si].Words()
				if len(sw) != len(fw) {
					t.Fatalf("range %v doc %d seg %d: %d words, want %d", r, i, si, len(sw), len(fw))
				}
				for wi := range sw {
					if sw[wi] != fw[wi] {
						t.Fatalf("range %v doc %d seg %d word %d: %d != %d", r, i, si, wi, sw[wi], fw[wi])
					}
				}
				// Zero-copy: the view's words alias the full open's arena.
				if len(sw) > 0 && &sw[0] != &fw[0] {
					t.Fatalf("range %v doc %d seg %d: token data copied", r, i, si)
				}
				for wi := 0; wi < sd.Segments[si].Len(); wi++ {
					if sd.Segments[si].Surface(wi) != fd.Segments[si].Surface(wi) ||
						sd.Segments[si].Gap(wi) != fd.Segments[si].Gap(wi) {
						t.Fatalf("range %v doc %d seg %d: surface/gap pool diverged", r, i, si)
					}
				}
			}
			tokens += sd.Len()
		}
		if sub.TotalTokens != tokens {
			t.Fatalf("range %v: TotalTokens %d, counted %d", r, sub.TotalTokens, tokens)
		}
		wantTokens += tokens
	}
	if wantTokens != full.TotalTokens {
		t.Fatalf("disjoint ranges cover %d tokens, full corpus has %d", wantTokens, full.TotalTokens)
	}

	for _, r := range [][2]int{{-1, 2}, {0, n + 1}, {5, 3}} {
		if _, err := f.DocRange(r[0], r[1]); err == nil {
			t.Fatalf("DocRange(%d, %d): no error", r[0], r[1])
		}
	}
}

// TestAppendFileNoOp: appending nothing must leave the file untouched.
func TestAppendFileNoOp(t *testing.T) {
	dir := t.TempDir()
	path := writeShard(t, dir, "grow.tpc", testDocs, true)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stats := appendDocsTo(t, path, nil, AppendOptions{Sketch: true})
	if stats.DocsAdded != 0 || stats.Segments != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("zero-document append rewrote the file")
	}
}

// TestAppendStaleArtifacts: artifacts bundled before an append must be
// dropped loudly, never served against the grown corpus.
func TestAppendStaleArtifacts(t *testing.T) {
	dir := t.TempDir()
	c := buildTestCorpus(t, true)
	path := filepath.Join(dir, "art.tpc")
	if err := WriteFile(path, c, mineAndSegment(t, c)); err != nil {
		t.Fatal(err)
	}
	appendDocsTo(t, path, appendDocs, AppendOptions{})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mined() != nil || f.Segmented() != nil {
		t.Fatal("stale artifacts served after append")
	}
	if f.StaleArtifacts() == "" {
		t.Fatal("StaleArtifacts is silent about the drop")
	}
}

// TestAppendDedup exercises both dedup paths: sketches recomputed from
// the stored corpus, and sketches read back from the file.
func TestAppendDedup(t *testing.T) {
	for _, stored := range []bool{false, true} {
		dir := t.TempDir()
		opt := corpus.DefaultBuildOptions()
		c := corpus.FromStrings(testDocs, opt)
		path := filepath.Join(dir, "dedup.tpc")
		var sketches []minhash.Sketch
		if stored {
			h := minhash.NewHasher(minhash.DefaultK, minhash.CanonicalSeed)
			for _, d := range testDocs {
				sketches = append(sketches, h.Sketch(stemsOf(d, opt)))
			}
		}
		if err := WriteFileSketched(path, c, nil, sketches); err != nil {
			t.Fatal(err)
		}
		incoming := []string{
			testDocs[0], // exact duplicate of a stored doc
			"a genuinely new document about completely different things.",
			testDocs[5], // another stored duplicate
			"a genuinely new document about completely different things.", // dup within the batch
			"", // empty docs are never duplicates
		}
		stats := appendDocsTo(t, path, incoming, AppendOptions{Dedup: true})
		if stats.DocsSkipped != 3 {
			t.Fatalf("stored=%v: DocsSkipped = %d, want 3 (stats %+v)", stored, stats.DocsSkipped, stats)
		}
		if stats.DocsAdded != 2 {
			t.Fatalf("stored=%v: DocsAdded = %d, want 2", stored, stats.DocsAdded)
		}
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(f.Corpus().Docs); got != len(testDocs)+2 {
			t.Fatalf("grown corpus has %d docs, want %d", got, len(testDocs)+2)
		}
		f.Close()
	}
}

// TestSketchRoundTrip pins sketch persistence and the all-or-nothing
// coverage rule.
func TestSketchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := corpus.DefaultBuildOptions()
	c := corpus.FromStrings(testDocs, opt)
	h := minhash.NewHasher(minhash.DefaultK, minhash.CanonicalSeed)
	var sketches []minhash.Sketch
	for _, d := range testDocs {
		sketches = append(sketches, h.Sketch(stemsOf(d, opt)))
	}
	path := filepath.Join(dir, "sk.tpc")
	if err := WriteFileSketched(path, c, nil, sketches); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.SketchK() != minhash.DefaultK || len(f.Sketches()) != len(testDocs) {
		t.Fatalf("k=%d n=%d", f.SketchK(), len(f.Sketches()))
	}
	for i, sk := range f.Sketches() {
		if !reflect.DeepEqual([]uint64(sk), []uint64(sketches[i])) {
			t.Fatalf("sketch %d round-trip mismatch", i)
		}
	}
	f.Close()

	// Sketched append keeps coverage; a later sketchless append breaks
	// it for the whole file.
	appendDocsTo(t, path, appendDocs, AppendOptions{Sketch: true})
	f, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sketches()) != len(testDocs)+len(appendDocs) {
		t.Fatalf("coverage after sketched append: %d sketches", len(f.Sketches()))
	}
	f.Close()
	appendDocsTo(t, path, []string{"no sketch for this one"}, AppendOptions{})
	f, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Sketches() != nil {
		t.Fatal("partial sketch coverage should read back as none")
	}
	f.Close()
}

// stemsOf is the kept stem sequence of one raw document, as AppendFile
// sketches it.
func stemsOf(text string, opt corpus.BuildOptions) []string {
	return corpus.NewTokenizer(opt).Stems(text, nil)
}

// TestStemsOfPinned pins, for every combination of stemming and
// stop-word removal, the stems stemsOf yields for the shared text-path
// fixture, the sketches ComputeSketches derives from the built corpus
// and what Open returns for the surface-keeping .tpc image of that
// corpus, to digests recorded before the token loop became a byte
// scanner; and the image bytes themselves to a second digest.
func TestStemsOfPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "textpath_pins.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var pins []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		pins = append(pins, s)
	}
	h, images := sha256.New(), sha256.New()
	for _, stem := range []bool{true, false} {
		for _, stop := range []bool{true, false} {
			opt := corpus.BuildOptions{Stem: stem, RemoveStopwords: stop, KeepSurface: true}
			for _, text := range pins {
				fmt.Fprintf(h, "%q\n", stemsOf(text, opt))
			}
			c := corpus.FromStrings(append(append([]string{}, pins...), testDocs...), opt)
			for _, sk := range ComputeSketches(c, 16) {
				fmt.Fprintf(h, "%x\n", []uint64(sk))
			}
			var img bytes.Buffer
			if err := Write(&img, c); err != nil {
				t.Fatal(err)
			}
			images.Write(img.Bytes())
			f, err := Load(&img)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(h, contentDigest(t, f))
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "7d07b4871bb2cddc7a70cde28f45449d65ae087f257718a4630b6fba398fdd05"; got != want {
		t.Errorf("stemsOf/ComputeSketches/loaded .tpc digest %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(images.Sum(nil)), "797c2767a97fe83f85cf8295820eee89ec7f3c2c75a8da1bb50f26c57b941d3c"; got != want {
		t.Errorf(".tpc image digest %s, want %s", got, want)
	}
}

// contentDigest hashes what Open returns for a corpus file: the corpus
// columns, the vocabulary's words, counts and surface votes (through
// its canonical flat encoding), the mined phrases with their scalars
// and parameters, the spans, the sketches and the stale-artifacts
// notice.
func contentDigest(t testing.TB, f *File) string {
	t.Helper()
	raw, err := f.Corpus().Raw()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v %d %v %v %v %q %v %v %v\n", raw.BuildOpts, raw.TotalTokens,
		raw.Words, raw.Surface, raw.Gaps, raw.Pool, raw.SegCounts, raw.SegOffs, raw.SegLens)
	h.Write(raw.Vocab.AppendFlat(nil))
	if m := f.Mined(); m != nil {
		fmt.Fprintf(h, "%+v %d %d %d %v %v\n", f.Params(), m.TotalTokens, m.MinSupport,
			m.MaxPhraseLen, m.LevelCandidates, m.Counts.Entries(0))
	}
	for _, sd := range f.Segmented() {
		fmt.Fprintf(h, "%d %v\n", sd.DocID, sd.Spans)
	}
	fmt.Fprintf(h, "%d %v %q\n", f.SketchK(), f.Sketches(), f.StaleArtifacts())
	return hex.EncodeToString(h.Sum(nil))
}

// TestMergeFilesEquivalence: a k-way merge of artifact-free shards is
// byte-identical to preprocessing the concatenated input.
func TestMergeFilesEquivalence(t *testing.T) {
	for _, keep := range []bool{true, false} {
		dir := t.TempDir()
		shards := [][]string{testDocs[:3], testDocs[3:], appendDocs}
		var paths []string
		var all []string
		for i, docs := range shards {
			paths = append(paths, writeShard(t, dir, filepath.Base(dir)+string(rune('a'+i))+".tpc", docs, keep))
			all = append(all, docs...)
		}
		dst := filepath.Join(dir, "merged.tpc")
		stats, err := MergeFiles(dst, paths...)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Sources != 3 || stats.Docs != len(all) {
			t.Fatalf("stats = %+v", stats)
		}
		opt := corpus.DefaultBuildOptions()
		opt.KeepSurface = keep
		var wantBuf bytes.Buffer
		if err := Write(&wantBuf, corpus.FromStrings(all, opt)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBuf.Bytes(), got) {
			t.Fatalf("keep=%v: merged file differs from from-scratch image", keep)
		}
	}
}

// TestMergeFilesArtifacts: with unpruned mining (min_support 1), the
// merged phrase statistics equal a from-scratch mine over the union —
// and the whole merged file matches the from-scratch image byte for
// byte. With pruning, artifacts are dropped with a recorded reason.
func TestMergeFilesArtifacts(t *testing.T) {
	dir := t.TempDir()
	shards := [][]string{testDocs, appendDocs}
	mineOpt := phrasemine.Options{MinSupport: 1, MaxLen: 8}
	prm := Params{MinSupport: 1, MaxPhraseLen: 8, SigThreshold: 1}
	var paths []string
	var all []string
	for i, docs := range shards {
		c := corpus.FromStrings(docs, corpus.DefaultBuildOptions())
		path := filepath.Join(dir, string(rune('a'+i))+".tpc")
		art := &Artifacts{Params: prm, Mined: phrasemine.Mine(c, mineOpt)}
		if err := WriteFile(path, c, art); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		all = append(all, docs...)
	}
	dst := filepath.Join(dir, "merged.tpc")
	stats, err := MergeFiles(dst, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ArtifactsMerged || stats.ArtifactsDropped != "" {
		t.Fatalf("stats = %+v", stats)
	}
	union := corpus.FromStrings(all, corpus.DefaultBuildOptions())
	wantMined := phrasemine.Mine(union, mineOpt)
	var wantBuf bytes.Buffer
	if err := WriteArtifacts(&wantBuf, union, &Artifacts{Params: prm, Mined: wantMined}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), got) {
		t.Fatal("merged file with artifacts differs from from-scratch image")
	}

	// Pruned sources: merge succeeds, artifacts dropped loudly.
	prunedPrm := Params{MinSupport: 2, MaxPhraseLen: 8, SigThreshold: 1}
	var prunedPaths []string
	for i, docs := range shards {
		c := corpus.FromStrings(docs, corpus.DefaultBuildOptions())
		path := filepath.Join(dir, "p"+string(rune('a'+i))+".tpc")
		art := &Artifacts{Params: prunedPrm, Mined: phrasemine.Mine(c, phrasemine.Options{MinSupport: 2, MaxLen: 8})}
		if err := WriteFile(path, c, art); err != nil {
			t.Fatal(err)
		}
		prunedPaths = append(prunedPaths, path)
	}
	dst2 := filepath.Join(dir, "merged2.tpc")
	stats, err = MergeFiles(dst2, prunedPaths...)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ArtifactsMerged || stats.ArtifactsDropped == "" {
		t.Fatalf("pruned merge stats = %+v", stats)
	}
	f, err := Open(dst2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mined() != nil {
		t.Fatal("pruned artifacts leaked into the merged file")
	}
	f.Close()
}

// TestMergeFilesRejects pins the validation errors.
func TestMergeFilesRejects(t *testing.T) {
	dir := t.TempDir()
	a := writeShard(t, dir, "a.tpc", testDocs, true)
	b := writeShard(t, dir, "b.tpc", appendDocs, false) // different build options
	if _, err := MergeFiles(filepath.Join(dir, "out.tpc"), a); err == nil {
		t.Fatal("merge of one source accepted")
	}
	if _, err := MergeFiles(filepath.Join(dir, "out.tpc"), a, b); err == nil {
		t.Fatal("merge of incompatible build options accepted")
	}
}

// grownImage builds a version-2 image (base with artifacts and
// sketches, one sketched appended segment) for the corrupt-tail
// sweeps, returning the image and the base image's length.
func grownImage(t testing.TB) ([]byte, int) {
	t.Helper()
	dir := t.TempDir()
	opt := corpus.DefaultBuildOptions()
	c := corpus.FromStrings(testDocs, opt)
	h := minhash.NewHasher(minhash.DefaultK, minhash.CanonicalSeed)
	var sketches []minhash.Sketch
	for _, d := range testDocs {
		sketches = append(sketches, h.Sketch(stemsOf(d, opt)))
	}
	path := filepath.Join(dir, "grown.tpc")
	if err := WriteFileSketched(path, c, mineAndSegment(t, c), sketches); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendDocsTo(t, path, appendDocs, AppendOptions{Sketch: true})
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img, len(base)
}

// TestCorruptAppendedTailTruncation cuts a version-2 file at every
// position from the base boundary to EOF: each cut must fail with a
// named error — in particular, a file cut exactly at the base image
// must NOT silently open as the pre-append corpus.
func TestCorruptAppendedTailTruncation(t *testing.T) {
	img, baseLen := grownImage(t)
	for cut := baseLen; cut < len(img); cut++ {
		err := loadCorrupt(t, img[:cut], nil)
		if !(errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrFormat)) {
			t.Fatalf("cut at %d/%d (base %d): unclassified error %v", cut, len(img), baseLen, err)
		}
	}
}

// TestCorruptAppendedTailByteFlip flips every byte of the appended
// region: the reader must reject the flip with a named error or (for
// padding bytes) still decode — never panic, never misread.
func TestCorruptAppendedTailByteFlip(t *testing.T) {
	img, baseLen := grownImage(t)
	for pos := baseLen; pos < len(img); pos++ {
		b := append([]byte(nil), img...)
		b[pos] ^= 0xA5
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at %d: Load panicked: %v", pos, r)
				}
			}()
			f, err := Load(bytes.NewReader(b))
			if err == nil {
				// Only padding flips may decode; the corpus must still
				// be the full grown one.
				if len(f.Corpus().Docs) != len(testDocs)+len(appendDocs) {
					t.Fatalf("flip at %d: decoded %d docs", pos, len(f.Corpus().Docs))
				}
				return
			}
			if !(errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) ||
				errors.Is(err, ErrFormat) || errors.Is(err, ErrVersion) || errors.Is(err, ErrBadMagic)) {
				t.Fatalf("flip at %d: unclassified error %v", pos, err)
			}
		}()
	}
}

// TestOpenNamedErrors pins the misleading-input classifications.
func TestOpenNamedErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open(directory): want ErrFormat, got %v", err)
	}
	empty := filepath.Join(dir, "empty.tpc")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Open(empty): want ErrTruncated, got %v", err)
	}
}

// TestCloseIdempotent: Close must be callable any number of times.
func TestCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := writeShard(t, dir, "c.tpc", testDocs, true)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

// TestV1GoldenFixture opens the committed version-1 fixture, written
// when the vocabulary section was gob, and checks the reader still
// reconstructs the expected corpus. If this test fails after a format
// change, the change broke compatibility with every .tpc file already
// on disk.
func TestV1GoldenFixture(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "v1_golden.tpc"))
	if err != nil {
		t.Fatalf("missing golden fixture testdata/v1_golden.tpc (committed, not regenerable): %v", err)
	}
	f, err := Load(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("golden v1 fixture no longer opens: %v", err)
	}
	if f.Version() != Version {
		t.Fatalf("fixture version = %d", f.Version())
	}
	sameCorpus(t, corpus.FromStrings(goldenDocs, corpus.DefaultBuildOptions()), f.Corpus())
}

// TestGobEraFixture opens testdata/gob_era.tpc, a version-2 file
// written before the vocabulary and artifact sections became flat, by
// grownImage's recipe: testDocs with mined phrases, spans and sketches,
// then appendDocs appended. Both of its groups hold a gob vocabulary
// and its base a gob artifacts section. The file and its base image
// must open to the contents recorded when the fixture was written, and
// appending to it must still match a rebuild of the concatenated input.
func TestGobEraFixture(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "gob_era.tpc"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Load(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("gob-era fixture no longer opens: %v", err)
	}
	if f.Version() != VersionMulti || f.AppendedSegments() != 1 || f.StaleArtifacts() == "" {
		t.Fatalf("version %d, %d appended segments, stale %q", f.Version(), f.AppendedSegments(), f.StaleArtifacts())
	}
	if got, want := contentDigest(t, f), "632d1fb0e82615f7e042f5a4a3406c4026fcfbc031735e5ae230cab42b85aae6"; got != want {
		t.Errorf("grown file content digest %s, want %s", got, want)
	}

	// The base image is the file up to its first appended segment, with
	// the version the append replaced.
	im, err := secfile.Decode(img, magic, errs, VersionMulti)
	if err != nil {
		t.Fatal(err)
	}
	base := append([]byte(nil), img[:im.End]...)
	binary.LittleEndian.PutUint16(base[8:], Version)
	bf, err := Load(bytes.NewReader(base))
	if err != nil {
		t.Fatalf("gob-era base image no longer opens: %v", err)
	}
	if bf.Mined() == nil || bf.Segmented() == nil {
		t.Fatal("gob-era base image lost its artifacts")
	}
	if got, want := contentDigest(t, bf), "16424ff0c13d95e4c2bf53a1b9422568ad4e0b827b90ed32fc32dd7b76ebf1c4"; got != want {
		t.Errorf("base image content digest %s, want %s", got, want)
	}

	path := filepath.Join(t.TempDir(), "grown.tpc")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	appendDocsTo(t, path, goldenDocs, AppendOptions{Sketch: true})
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	all := append(append(append([]string{}, testDocs...), appendDocs...), goldenDocs...)
	sameCorpus(t, corpus.FromStrings(all, corpus.DefaultBuildOptions()), g.Corpus())
	if g.AppendedSegments() != 2 || g.Sketches() == nil {
		t.Fatalf("%d appended segments, sketches %v", g.AppendedSegments(), g.Sketches() != nil)
	}
}

// goldenDocs is the fixed input behind testdata/v1_golden.tpc. Do not
// change it: the fixture pins the on-disk format, not this corpus.
var goldenDocs = []string{
	"topical phrase mining extracts topical phrases from text corpora.",
	"latent dirichlet allocation is a generative topic model.",
	"phrase mining and topic modeling combine in topmine.",
}
