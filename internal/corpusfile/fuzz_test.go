package corpusfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"topmine/internal/secfile"
	"topmine/internal/segment"
	"topmine/internal/topicmodel"
)

// loadAllocBound is what loading n bytes of corpus file may allocate:
// a small multiple of n, since every column and table the reader builds
// is bounded by the section bytes that describe it, and a fixed
// allowance for the gob decoders.
func loadAllocBound(n int) uint64 { return 64*uint64(n) + 1<<20 }

// checkLoad is FuzzLoadCorpusFile's property: Load returns one of the
// package's named errors, or a File whose corpus flattens with Raw and
// whose stored artifacts serve (the mined phrases segment the corpus,
// the stored partitions build topic-model documents); and the load
// allocates no more than loadAllocBound.
func checkLoad(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > loadAllocBound(len(data)) {
		t.Fatalf("loading %d bytes allocated %d", len(data), got)
	}
	if err != nil {
		for _, named := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrFormat} {
			if errors.Is(err, named) {
				return
			}
		}
		t.Fatalf("unnamed error %v", err)
	}
	c := f.Corpus()
	if _, err := c.Raw(); err != nil {
		t.Fatalf("loaded corpus does not flatten: %v", err)
	}
	if f.Mined() != nil {
		segment.NewSegmenter(f.Mined(), segment.Options{Alpha: 1, MaxPhraseLen: 8, Workers: 1}).SegmentCorpus(c)
	}
	if f.Segmented() != nil {
		topicmodel.DocsFromSegmentation(c, f.Segmented())
	}
}

// FuzzLoadCorpusFile feeds Load arbitrary bytes, as written and with
// their base section CRCs patched to match, seeded with the gob-era
// version-1 golden fixture, a version-1 file with flat artifacts and
// surfaces, a version-2 file (base artifacts and sketches, one appended
// segment), and the gob-era version-2 fixture with gob artifacts.
func FuzzLoadCorpusFile(f *testing.F) {
	fixture := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	grown, _ := grownImage(f)
	for _, seed := range [][]byte{fixture("v1_golden.tpc"), validImage(f), grown, fixture("gob_era.tpc")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
		if fixed := fixCRCs(data); fixed != nil {
			checkLoad(t, fixed)
		}
	})
}

// fixCRCs returns a copy of data with the CRC of every section its
// base section table describes recomputed, so fuzzed bytes reach the
// decoders behind the checksums; nil when data is no corpus file.
func fixCRCs(data []byte) []byte {
	if len(data) < secfile.HeaderSize || string(data[:len(magic)]) != magic {
		return nil
	}
	out := append([]byte(nil), data...)
	nsec := int(binary.LittleEndian.Uint32(out[16:]))
	for i := 0; i < nsec && secfile.HeaderSize+(i+1)*secfile.EntrySize <= len(out); i++ {
		ent := out[secfile.HeaderSize+i*secfile.EntrySize:]
		off, size := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
		if off <= uint64(len(out)) && size <= uint64(len(out))-off {
			binary.LittleEndian.PutUint32(ent[4:], crc32.ChecksumIEEE(out[off:off+size]))
		}
	}
	return out
}
