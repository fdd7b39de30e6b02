package topmine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topmine/internal/secfile"
)

// inferTexts exercises in-vocabulary, mixed, and out-of-vocabulary
// inputs for round-trip comparisons.
var inferTexts = []string{
	"support vector machines for text classification",
	"query processing in database systems with query optimization",
	"machine learning models, neural network training",
	"zzzzz qqqqq entirely out of vocabulary",
	"",
}

func mustSnapshot(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTripInferenceExact(t *testing.T) {
	res := trainedResult(t)
	data := mustSnapshot(t, res)

	loaded, err := LoadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if got, want := loaded.Corpus.Vocab.Size(), res.Corpus.Vocab.Size(); got != want {
		t.Fatalf("vocab size = %d, want %d", got, want)
	}
	if got, want := loaded.Mined.Counts.Len(), res.Mined.Counts.Len(); got != want {
		t.Fatalf("mined phrases = %d, want %d", got, want)
	}
	if got, want := loaded.Model.K, res.Model.K; got != want {
		t.Fatalf("model K = %d, want %d", got, want)
	}
	if loaded.Options != res.Options {
		t.Fatalf("options differ: %+v vs %+v", loaded.Options, res.Options)
	}

	for _, text := range inferTexts {
		want := res.InferTopics(text, 30)
		got := loaded.InferTopics(text, 30)
		if len(got) != len(want) {
			t.Fatalf("%q: theta len %d, want %d", text, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%q: theta[%d] = %v, want %v (exact)", text, k, got[k], want[k])
			}
		}
	}

	// Segmentation and tracing survive the round trip too.
	for _, text := range inferTexts {
		wantTr := res.TraceText(text)
		gotTr := loaded.TraceText(text)
		if len(gotTr) != len(wantTr) {
			t.Fatalf("%q: %d traces, want %d", text, len(gotTr), len(wantTr))
		}
		for i := range wantTr {
			if strings.Join(gotTr[i].Phrases, "|") != strings.Join(wantTr[i].Phrases, "|") {
				t.Fatalf("%q: trace %d phrases %v, want %v", text, i, gotTr[i].Phrases, wantTr[i].Phrases)
			}
		}
	}

	// Rendered topic summaries are carried verbatim.
	if FormatTopics(loaded.Topics) != FormatTopics(res.Topics) {
		t.Fatal("topic summaries changed across the round trip")
	}
}

func TestSnapshotStripsTrainingState(t *testing.T) {
	res := trainedResult(t)
	loaded, err := LoadSnapshot(bytes.NewReader(mustSnapshot(t, res)))
	if err != nil {
		t.Fatal(err)
	}
	m := loaded.Model
	m.Materialize()
	if m.Docs != nil || m.Z != nil || m.Ndk != nil || m.Nd != nil {
		t.Fatal("snapshot carried per-document training state")
	}
	if m.Nwk == nil || m.Nk == nil || m.Alpha == nil {
		t.Fatal("snapshot dropped frozen serving parameters")
	}
}

func TestSnapshotPreservesCorpusOptions(t *testing.T) {
	docs, err := GenerateExampleCorpus("20conf", 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Non-default preprocessing: no stemming. Inference after a round
	// trip must normalise query text the same way training did.
	copt := CorpusOptions{Stem: false, RemoveStopwords: true, KeepSurface: true}
	c := BuildCorpus(docs, copt)
	opt := smallOpts()
	opt.Iterations = 40
	res, err := RunCorpus(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(mustSnapshot(t, res)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Corpus.BuildOpts != copt {
		t.Fatalf("BuildOpts = %+v, want %+v", loaded.Corpus.BuildOpts, copt)
	}
	text := "support vector machines for text classification"
	want := res.InferTopics(text, 20)
	got := loaded.InferTopics(text, 20)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("theta[%d] = %v, want %v", k, got[k], want[k])
		}
	}
}

func TestLoadSnapshotRejectsMalformedModelShapes(t *testing.T) {
	res := trainedResult(t)
	loaded, err := LoadSnapshot(bytes.NewReader(mustSnapshot(t, res)))
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the frozen parameter shapes while keeping K and V
	// self-consistent. The version-1 writer does not shape-check
	// Alpha/Nk/Nwk, so its file is CRC-valid and only load-time
	// validation stands between it and an inference-time panic. The
	// flat sections have no room for a short row, so SaveSnapshot
	// refuses such a model instead.
	loaded.Model.Alpha = loaded.Model.Alpha[:1]
	if _, err := LoadSnapshot(bytes.NewReader(encodeSnapshotV1(t, loaded))); err == nil {
		t.Fatal("LoadSnapshot accepted a model with truncated Alpha")
	}
	if err := SaveSnapshot(io.Discard, loaded); err == nil {
		t.Fatal("SaveSnapshot wrote a model with truncated Alpha")
	}

	loaded2, err := LoadSnapshot(bytes.NewReader(mustSnapshot(t, res)))
	if err != nil {
		t.Fatal(err)
	}
	loaded2.Model.Materialize()
	loaded2.Model.Nwk[0] = loaded2.Model.Nwk[0][:1]
	if _, err := LoadSnapshot(bytes.NewReader(encodeSnapshotV1(t, loaded2))); err == nil {
		t.Fatal("LoadSnapshot accepted a model with a short Nwk row")
	}
	if err := SaveSnapshot(io.Discard, loaded2); err == nil {
		t.Fatal("SaveSnapshot wrote a model with a short Nwk row")
	}

	// CRC-valid version-2 files whose flat sections disagree with one
	// another fail at load with the format error.
	valid := mustSnapshot(t, res)
	priors, nwk, err := res.Model.EncodeFlat()
	if err != nil {
		t.Fatal(err)
	}
	k, v := res.Model.K, res.Model.V
	rows := func(pair ...byte) []byte {
		var b []byte
		for w := 0; w < v; w++ {
			b = append(append(b, 1), pair...)
		}
		return b
	}
	negNk := append([]byte(nil), priors...)
	binary.LittleEndian.PutUint64(negNk[len(negNk)-8:], 1<<63)
	otherK := append([]byte(nil), priors...)
	binary.LittleEndian.PutUint64(otherK, uint64(k+1))
	for _, tc := range []struct {
		name    string
		id      uint32
		payload []byte
	}{
		{"K disagrees with the priors", snapPriors, otherK},
		{"negative N_k", snapPriors, negNk},
		{"topic beyond K", snapNwk, rows(byte(k), 1)},
		{"zero count", snapNwk, rows(0, 0)},
		{"count beyond int32", snapNwk, rows(0, 0x80, 0x80, 0x80, 0x80, 0x08)},
		{"trailing N_wk bytes", snapNwk, append(append([]byte(nil), nwk...), 0)},
		{"vocabulary one word short", snapVocab, encodeVocabPrefix(t, res, v-1)},
		{"mined phrase beyond the vocabulary", snapMined, []byte{1, 1, 1, 0x80, 0x80, 0x04, 5}},
		{"MaxPhraseLen beyond the longest mined phrase", snapMeta, metaWithMaxPhraseLen(t, valid, 1<<40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadSnapshot(bytes.NewReader(withSection(t, valid, tc.id, tc.payload)))
			if !errors.Is(err, errSnapFormat) {
				t.Fatalf("want the format error, got %v", err)
			}
		})
	}
}

func TestSaveSnapshotRejectsVocabModelMismatch(t *testing.T) {
	res := trainedResult(t)
	other, err := GenerateExampleCorpus("ap-news", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	mismatched := &Result{
		Corpus:  BuildCorpus(other, DefaultCorpusOptions()),
		Mined:   res.Mined,
		Model:   res.Model,
		Options: res.Options,
	}
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, mismatched); err == nil {
		t.Fatal("SaveSnapshot accepted a model trained on a different vocabulary")
	}
}

func TestSaveSnapshotFileAtomic(t *testing.T) {
	res := trainedResult(t)
	path := filepath.Join(t.TempDir(), "model.tpm")
	if err := SaveSnapshotFile(path, res); err != nil {
		t.Fatal(err)
	}
	// A failed re-save (incomplete Result) must leave the original
	// file untouched and loadable.
	if err := SaveSnapshotFile(path, &Result{}); err == nil {
		t.Fatal("SaveSnapshotFile accepted an empty Result")
	}
	if _, err := LoadSnapshotFile(path); err != nil {
		t.Fatalf("existing snapshot destroyed by failed save: %v", err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the snapshot in the directory, found %d entries", len(entries))
	}
}

func TestSaveSnapshotFileBareFilename(t *testing.T) {
	res := trainedResult(t)
	dir := t.TempDir()
	t.Chdir(dir)
	// A path with no directory component must stage its temp file in
	// the working directory (not os.TempDir), or the atomic rename can
	// cross filesystems and fail.
	if err := SaveSnapshotFile("model.tpm", res); err != nil {
		t.Fatalf("SaveSnapshotFile with bare filename: %v", err)
	}
	if _, err := LoadSnapshotFile("model.tpm"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.tpm" {
		t.Fatalf("working directory not clean after save: %v", entries)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	res := trainedResult(t)
	path := filepath.Join(t.TempDir(), "model.tpm")
	if err := SaveSnapshotFile(path, res); err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	text := inferTexts[0]
	want := res.InferTopics(text, 20)
	got := loaded.InferTopics(text, 20)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("theta[%d] = %v, want %v", k, got[k], want[k])
		}
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	res := trainedResult(t)
	a := mustSnapshot(t, res)
	b := mustSnapshot(t, res)
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of the same Result produced different bytes")
	}
}

func TestLoadSnapshotRejectsBadInput(t *testing.T) {
	res := trainedResult(t)
	valid := mustSnapshot(t, res)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", valid[:4]},
		{"bad magic", []byte("NOTASNAPSHOTFILE")},
		{"header only", valid[:len(snapshotMagic)+2]},
		{"truncated payload", valid[:len(valid)/3]},
		{"flipped payload byte", flip(valid, len(valid)-len(valid)/4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadSnapshot(bytes.NewReader(tc.data)); err == nil {
				t.Fatalf("LoadSnapshot accepted %s input", tc.name)
			}
		})
	}

	// Every single-byte flip and every truncation of a small version-2
	// file: a flip inside a section payload fails its CRC, a flip in
	// the header or table fails with a named error, and only a flip in
	// the reserved header field or the padding between sections may
	// load — to the same Result. Every cut fails.
	small := smallV2Snapshot(t)
	want, err := LoadSnapshot(bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	im, err := secfile.Decode(small, snapshotMagic, snapErrs, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	inPayload := func(i int) bool {
		for _, e := range im.Sections {
			if uint64(i) >= e.Off && uint64(i) < e.Off+e.Size {
				return true
			}
		}
		return false
	}
	for i := range small {
		got, err := LoadSnapshot(bytes.NewReader(flip(small, i)))
		switch {
		case inPayload(i):
			if !errors.Is(err, errSnapChecksum) {
				t.Fatalf("flip at %d/%d inside a payload: want the checksum error, got %v", i, len(small), err)
			}
		case err != nil:
			if !isNamedSnapshotError(err) {
				t.Fatalf("flip at %d/%d: unnamed error %v", i, len(small), err)
			}
		case !sameResult(got, want):
			t.Fatalf("flip at %d/%d loaded a different Result", i, len(small))
		}
	}
	for cut := 0; cut < len(small); cut++ {
		if _, err := LoadSnapshot(bytes.NewReader(small[:cut])); !isNamedSnapshotError(err) {
			t.Fatalf("cut at %d/%d: want a named error, got %v", cut, len(small), err)
		}
	}
}

func TestLoadSnapshotRejectsWrongVersion(t *testing.T) {
	res := trainedResult(t)
	data := mustSnapshot(t, res)
	binary.BigEndian.PutUint16(data[len(snapshotMagic):], SnapshotVersion+41)
	_, err := LoadSnapshot(bytes.NewReader(data))
	if err == nil {
		t.Fatal("LoadSnapshot accepted a future format version")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %q does not mention the version", err)
	}
}

func TestSaveSnapshotRejectsIncompleteResult(t *testing.T) {
	res := trainedResult(t)
	var buf bytes.Buffer
	cases := []struct {
		name string
		r    *Result
	}{
		{"nil result", nil},
		{"no corpus", &Result{Mined: res.Mined, Model: res.Model}},
		{"no mined", &Result{Corpus: res.Corpus, Model: res.Model}},
		{"no model", &Result{Corpus: res.Corpus, Mined: res.Mined}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := SaveSnapshot(&buf, tc.r); err == nil {
				t.Fatalf("SaveSnapshot accepted a Result with %s", tc.name)
			}
		})
	}
}

// flip returns a copy of data with one bit inverted at index i.
func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x40
	return out
}
