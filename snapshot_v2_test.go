package topmine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"topmine/internal/counter"
	"topmine/internal/secfile"
	"topmine/internal/textproc"
)

// encodeSnapshotV1 writes r the way version-1 builds did: magic, a
// big-endian version, payload length and CRC-32, then one gob payload
// with the model frozen unless r is resumable.
func encodeSnapshotV1(t testing.TB, r *Result) []byte {
	t.Helper()
	m := r.Model
	if !r.Resumable() {
		dense := *m // r stays frozen, so it still equals a fresh load
		dense.Materialize()
		m = &dense
		m = &Model{K: m.K, V: m.V, Alpha: m.Alpha, AlphaSum: m.AlphaSum,
			Beta: m.Beta, BetaSum: m.BetaSum, Nwk: m.Nwk, Nk: m.Nk}
	}
	// The payload's field names and shapes are snapshotPayload's, with the
	// vocabulary and phrase counts in the gob wire forms they had then.
	type minedV1 struct {
		Counts                                gobEncoded
		TotalTokens, MinSupport, MaxPhraseLen int
		LevelCandidates                       []int
	}
	mined := r.Mined
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(struct {
		Options    Options
		CorpusOpts CorpusOptions
		Vocab      gobEncoded
		Mined      minedV1
		Model      *Model
		Topics     []TopicSummary
	}{r.Options, r.Corpus.BuildOpts, legacyVocabGob(t, r.Corpus.Vocab),
		minedV1{legacyCountsGob(t, mined.Counts), mined.TotalTokens, mined.MinSupport, mined.MaxPhraseLen, mined.LevelCandidates},
		m, r.Topics}); err != nil {
		t.Fatal(err)
	}
	out := []byte(snapshotMagic)
	out = binary.BigEndian.AppendUint16(out, snapshotVersion1)
	out = binary.BigEndian.AppendUint64(out, uint64(body.Len()))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body.Bytes()))
	return append(out, body.Bytes()...)
}

// gobEncoded is a value gob writes as the opaque bytes of a GobEncoder,
// as it wrote a Vocab or a phrase counter in earlier builds.
type gobEncoded []byte

func (b gobEncoded) GobEncode() ([]byte, error) { return b, nil }

// legacyVocabGob encodes v in the gob wire form earlier builds wrote:
// the stems, their counts, and each stem's surface votes sorted by
// form, read back from v's flat encoding.
func legacyVocabGob(t testing.TB, v *textproc.Vocab) gobEncoded {
	t.Helper()
	var w struct {
		Words         []string
		Counts        []int64
		SurfaceForms  [][]string
		SurfaceCounts [][]int
	}
	r := secfile.NewReader(v.AppendFlat(nil))
	n := r.Uvarint()
	r.Uvarint() // total votes
	for range n {
		stem := string(r.Bytes(int(r.Uvarint())))
		w.Words = append(w.Words, stem)
		w.Counts = append(w.Counts, int64(r.Uvarint()))
		var forms []string
		var tallies []int
		for range r.Uvarint() {
			form := stem
			if tag := r.Uvarint(); tag > 0 {
				form = string(r.Bytes(int(tag - 1)))
			}
			forms = append(forms, form)
			tallies = append(tallies, int(r.Uvarint()))
		}
		w.SurfaceForms = append(w.SurfaceForms, forms)
		w.SurfaceCounts = append(w.SurfaceCounts, tallies)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return gobEncode(t, w)
}

// legacyCountsGob encodes c in the gob wire form earlier builds wrote:
// keys in ascending byte order with their counts.
func legacyCountsGob(t testing.TB, c *counter.NGrams) gobEncoded {
	t.Helper()
	var w struct {
		Keys   []string
		Counts []int64
	}
	c.Each(func(key string, _ int64) { w.Keys = append(w.Keys, key) })
	slices.Sort(w.Keys)
	for _, k := range w.Keys {
		w.Counts = append(w.Counts, c.Get(k))
	}
	return gobEncode(t, w)
}

func gobEncode(t testing.TB, v any) gobEncoded {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withSection re-emits a version-2 snapshot with section id's payload
// replaced (and its CRC recomputed).
func withSection(t testing.TB, data []byte, id uint32, payload []byte) []byte {
	t.Helper()
	im, err := secfile.Decode(data, snapshotMagic, snapErrs, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]secfile.Entry, 0, len(im.Sections))
	for _, e := range im.Sections {
		ents = append(ents, e)
	}
	slices.SortFunc(ents, func(a, b secfile.Entry) int { return int(a.Off) - int(b.Off) })
	var secs []secfile.Section
	for _, e := range ents {
		b, _ := im.Body(e.ID)
		if e.ID == id {
			b = payload
		}
		secs = append(secs, secfile.Bytes(e.ID, b))
	}
	var buf bytes.Buffer
	if err := secfile.Write(&buf, snapshotMagic, SnapshotVersion, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// metaWithMaxPhraseLen returns the meta section of a version-2
// snapshot with its MaxPhraseLen set to n.
func metaWithMaxPhraseLen(t testing.TB, data []byte, n int) []byte {
	t.Helper()
	im, err := secfile.Decode(data, snapshotMagic, snapErrs, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := im.Body(snapMeta)
	var meta snapshotMeta
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	meta.MaxPhraseLen = n
	b, err = gobBytes(meta)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeVocabPrefix encodes the first n words of r's vocabulary as a
// vocabulary section.
func encodeVocabPrefix(t testing.TB, r *Result, n int) []byte {
	t.Helper()
	v := textproc.NewVocab()
	for id := int32(0); int(id) < n; id++ {
		v.Intern(r.Corpus.Vocab.Word(id), r.Corpus.Vocab.Unstem(id))
	}
	return v.AppendFlat(nil)
}

// smallV2Snapshot is the frozen fixture re-saved as version 2.
func smallV2Snapshot(t testing.TB) []byte {
	t.Helper()
	res, err := LoadSnapshotFile(fixtureV1Frozen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wideV2Snapshot is smallV2Snapshot with a model far wider than its
// file: 5000 words with one count each over K=2000 topics. Its V×K
// arena would take 40 MB, well over the frozen snapshotAllocBound of
// about 28 MB for its 104 KB, so a load or Inferencer build that
// materialises it fails the seed run of FuzzLoadSnapshot.
func wideV2Snapshot(t testing.TB) []byte {
	t.Helper()
	const v, k = 5000, 2000
	vocab := textproc.NewVocab()
	for w := 0; w < v; w++ {
		vocab.Intern(fmt.Sprintf("w%d", w), fmt.Sprintf("w%d", w))
	}
	var nwk []byte
	nk := make([]uint64, k)
	for w := 0; w < v; w++ {
		nwk = append(nwk, 1)
		nwk = binary.AppendUvarint(nwk, uint64(w%k))
		nwk = append(nwk, 1)
		nk[w%k]++
	}
	le := binary.LittleEndian
	priors := le.AppendUint64(nil, k)
	for range k {
		priors = le.AppendUint64(priors, math.Float64bits(0.1))
	}
	for _, x := range []float64{0.1 * k, 0.01, 0.01 * v} {
		priors = le.AppendUint64(priors, math.Float64bits(x))
	}
	for _, n := range nk {
		priors = le.AppendUint64(priors, n)
	}
	data := smallV2Snapshot(t)
	data = withSection(t, data, snapVocab, vocab.AppendFlat(nil))
	data = withSection(t, data, snapPriors, priors)
	return withSection(t, data, snapNwk, nwk)
}

func isNamedSnapshotError(err error) bool {
	for _, named := range []error{errSnapBadMagic, errSnapVersion, errSnapTruncated, errSnapChecksum, errSnapFormat} {
		if errors.Is(err, named) {
			return true
		}
	}
	return false
}

// sameResult reports whether two loaded Results are field for field
// equal, unexported sampler and index state included.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Corpus, b.Corpus) && reflect.DeepEqual(a.Mined, b.Mined) &&
		reflect.DeepEqual(a.Model, b.Model) && reflect.DeepEqual(a.Topics, b.Topics) &&
		a.Options == b.Options
}

// TestSnapshotV2MatchesV1 loads each version-1 fixture and its
// version-2 re-save: the Results, and the inference indexes built from
// them, must be equal field for field. The test's version-1 encoder,
// which stands in for the old writer in the malformed-shape test, must
// round-trip the fixtures.
func TestSnapshotV2MatchesV1(t *testing.T) {
	for _, path := range []string{fixtureV1Frozen, fixtureV1Training} {
		t.Run(path, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			v1, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			again, err := LoadSnapshot(bytes.NewReader(encodeSnapshotV1(t, v1)))
			if err != nil || !sameResult(v1, again) {
				t.Fatalf("the test's version-1 encoder does not round-trip the fixture (%v)", err)
			}
			save := SaveSnapshot
			if v1.Resumable() {
				save = SaveTrainingSnapshot
			}
			var buf bytes.Buffer
			if err := save(&buf, v1); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			if got := binary.BigEndian.Uint16(data[len(snapshotMagic):]); got == snapshotVersion1 {
				t.Fatal("a version-1 reader would take the version-2 header for its own")
			}
			if len(data) >= len(raw) {
				t.Errorf("version 2 is %d bytes, version 1 %d", len(data), len(raw))
			}
			v2, err := LoadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(v1, v2) {
				t.Fatal("version-2 load differs from the version-1 load")
			}
			i1, err := NewInferencer(v1)
			if err != nil {
				t.Fatal(err)
			}
			i2, err := NewInferencer(v2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(i1.index, i2.index) {
				t.Fatal("inference index built from the version-2 load differs")
			}
		})
	}
}

// TestLoadSnapshotAllocs pins the flat decoders' allocation count: a
// handful per section, not one per word, phrase or count row. The gob
// meta section (the decoder's type compilation and the topic strings)
// is measured alone and subtracted.
func TestLoadSnapshotAllocs(t *testing.T) {
	data := smallV2Snapshot(t)
	im, err := secfile.Decode(data, snapshotMagic, snapErrs, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := im.Body(snapMeta)
	gobAllocs := testing.AllocsPerRun(5, func() {
		var m snapshotMeta
		if err := gob.NewDecoder(bytes.NewReader(meta)).Decode(&m); err != nil {
			t.Fatal(err)
		}
	})
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := decodeSnapshot(data); err != nil {
			t.Fatal(err)
		}
	})
	if flat := allocs - gobAllocs; flat > 60 {
		t.Fatalf("loading a version-2 snapshot took %.0f allocations besides the %.0f of its gob section, want <= 60",
			flat, gobAllocs)
	}
}

// fixSnapshotCRCs returns a copy of data with every checksum the header
// describes recomputed — the section CRCs of a version-2 file, the
// payload CRC of a version-1 file — so fuzzed bytes reach the decoders
// behind the checksums. It returns nil when there is nothing to fix.
func fixSnapshotCRCs(data []byte) []byte {
	if len(data) < secfile.HeaderSize || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil
	}
	out := append([]byte(nil), data...)
	if binary.BigEndian.Uint16(out[8:]) == snapshotVersion1 {
		n := binary.BigEndian.Uint64(out[10:])
		if len(out) < 22 || n > uint64(len(out)-22) {
			return nil
		}
		binary.BigEndian.PutUint32(out[18:], crc32.ChecksumIEEE(out[22:22+n]))
		return out
	}
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

// snapshotAllocBound is what loading n bytes of version-2 snapshot and
// building its Inferencer may allocate: a small multiple of n for
// everything the section sizes bound and a fixed allowance for the gob
// decoders. Only a training snapshot builds the V×K arena, at its cap
// of maxCellsPerByte int32 cells per byte; a frozen load serves from
// the sparse N_wk section.
func snapshotAllocBound(n int, training bool) uint64 {
	perByte := uint64(256)
	if training {
		perByte += 4 * maxCellsPerByte
	}
	return perByte*uint64(n) + 1<<20
}

// checkSnapshotLoad is FuzzLoadSnapshot's property: LoadSnapshot
// returns a named error (any error for version-1 input, whose gob
// errors are gob's) or a Result that builds an Inferencer and serves
// text without panicking, and a version-2 load and Inferencer build
// allocate no more than snapshotAllocBound.
func checkSnapshotLoad(t *testing.T, data []byte) {
	v2 := len(data) >= 10 && binary.LittleEndian.Uint16(data[8:]) == SnapshotVersion
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := LoadSnapshot(bytes.NewReader(data))
	var inf *Inferencer
	var infErr error
	if err == nil {
		inf, infErr = NewInferencer(res)
	}
	runtime.ReadMemStats(&after)
	training := false
	if im, err := secfile.Decode(data, snapshotMagic, snapErrs, SnapshotVersion); err == nil {
		_, training = im.Sections[snapTraining]
	}
	if got := after.TotalAlloc - before.TotalAlloc; v2 && got > snapshotAllocBound(len(data), training) {
		t.Fatalf("loading %d bytes allocated %d", len(data), got)
	}
	if err != nil {
		if v2 && !isNamedSnapshotError(err) {
			t.Fatalf("unnamed error %v", err)
		}
		return
	}
	if infErr != nil {
		t.Fatalf("loaded Result does not build an Inferencer: %v", infErr)
	}
	words := []string{"zzzz"}
	for id := int32(0); int(id) < min(res.Corpus.Vocab.Size(), 12); id++ {
		words = append(words, res.Corpus.Vocab.Word(id), res.Corpus.Vocab.Unstem(id))
	}
	text := strings.Join(words, " ")
	if theta := inf.InferTopics(text, 5); len(theta) != res.Model.K {
		t.Fatalf("θ has %d topics, model %d", len(theta), res.Model.K)
	}
	inf.Segment(text)
	inf.TraceText(text)
}

// FuzzLoadSnapshot feeds LoadSnapshot arbitrary bytes, as written and
// with their checksums patched to match, seeded with the version-1
// fixtures, a small version-2 file and that file claiming a 2^40-word
// MaxPhraseLen, besides the inputs under testdata/fuzz/FuzzLoadSnapshot.
func FuzzLoadSnapshot(f *testing.F) {
	for _, path := range []string{"testdata/snapshot_pr3.tpm", fixtureV1Frozen, fixtureV1Training} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	small := smallV2Snapshot(f)
	f.Add(small)
	f.Add(wideV2Snapshot(f))
	f.Add(withSection(f, small, snapMeta, metaWithMaxPhraseLen(f, small, 1<<40)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotLoad(t, data)
		if fixed := fixSnapshotCRCs(data); fixed != nil {
			checkSnapshotLoad(t, fixed)
		}
	})
}

// TestFrozenLoadNeverBuildsArena: a frozen load comes back with Nwk
// nil, and loading and serving the wide model stays within the frozen
// allocation bound, far below its V×K arena.
func TestFrozenLoadNeverBuildsArena(t *testing.T) {
	data := wideV2Snapshot(t)
	res, err := LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Nwk != nil {
		t.Fatal("a frozen load built the dense N_wk rows")
	}
	checkSnapshotLoad(t, data)
}

// TestFrozenResaveByteIdentical: a version-2 file loaded frozen and
// saved again is byte for byte its input, and the save leaves the
// model frozen.
func TestFrozenResaveByteIdentical(t *testing.T) {
	for _, data := range [][]byte{smallV2Snapshot(t), mustSnapshot(t, trainedResult(t))} {
		res, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if again := mustSnapshot(t, res); !bytes.Equal(again, data) {
			t.Fatalf("re-saved snapshot is %d bytes and differs from its %d-byte input", len(again), len(data))
		}
		if res.Model.Nwk != nil {
			t.Fatal("re-saving built the dense N_wk rows")
		}
	}
}

// TestLoadSnapshotRejectsMaxPhraseLen: either format version claiming
// a MaxPhraseLen below one or beyond the longest mined phrase fails
// the load with the format error, before NewInferencer could size its
// tables by it.
func TestLoadSnapshotRejectsMaxPhraseLen(t *testing.T) {
	res, err := LoadSnapshotFile(fixtureV1Frozen)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 0, res.Mined.MaxPhraseLen + 1, 1 << 40} {
		mined := *res.Mined
		mined.MaxPhraseLen = n
		bad := &Result{Corpus: res.Corpus, Mined: &mined, Model: res.Model, Topics: res.Topics, Options: res.Options}
		var v2 bytes.Buffer
		if err := SaveSnapshot(&v2, bad); err != nil {
			t.Fatal(err)
		}
		for version, data := range map[int][]byte{1: encodeSnapshotV1(t, bad), 2: v2.Bytes()} {
			if _, err := LoadSnapshot(bytes.NewReader(data)); !errors.Is(err, errSnapFormat) {
				t.Errorf("version %d, MaxPhraseLen %d: want the format error, got %v", version, n, err)
			}
		}
	}
}
