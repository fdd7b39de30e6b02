package topmine

import (
	"bufio"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"topmine/internal/corpusfile"
)

// readTextPins loads testdata/textpath_pins.txt: one Go-quoted string
// per line, so the fixture can hold invalid UTF-8, control characters
// and newlines. The texts cover non-ASCII letters and digits, hyphen
// and apostrophe joins and breaks, letter-free tokens, stop-word runs,
// OOV words before kept ones, uppercase, and inflected forms whose stem
// differs from the surface.
func readTextPins(t testing.TB) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "textpath_pins.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var texts []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		s, err := strconv.Unquote(sc.Text())
		if err != nil {
			t.Fatalf("textpath_pins.txt: %q: %v", sc.Text(), err)
		}
		texts = append(texts, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return texts
}

// textPathDigest hashes everything the serving text path exposes for
// each text: the θ bytes, Segment's phrases and TraceText's tokens,
// phrases and merges.
func textPathDigest(inf *Inferencer, texts []string) string {
	h := sha256.New()
	for _, text := range texts {
		io.WriteString(h, fingerprintTheta(inf.InferTopics(text, 15)))
		io.WriteString(h, fingerprintSegs(inf.Segment(text)))
		io.WriteString(h, fingerprintTraces(inf.TraceText(text)))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTextPathPinned pins the bytes raw text turns into, on the request
// path and at ingest, to digests recorded before the token loop was
// rewritten as a byte scanner: served θ, Segment and TraceText output
// for a default-options model and an all-false BuildOptions model, and
// the .tpc image of a surface-keeping corpus at Workers 1, 2 and 8.
func TestTextPathPinned(t *testing.T) {
	pins := readTextPins(t)
	docs, err := GenerateExampleCorpus("20conf", 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		docs = append(docs, pins...)
	}
	opt := smallOpts()
	opt.Iterations = 30
	for _, tc := range []struct {
		name string
		copt CorpusOptions
		want string
	}{
		{"default", DefaultCorpusOptions(), "938be2d02e45e8c245185d9e009f9e104a1857e982580af4b9492a27ce4f0511"},
		{"all-false", CorpusOptions{}, "6917e1266762686c2a7741e1841f9f8926363c500e78884505be723935eaa8e0"},
	} {
		res, err := RunCorpus(BuildCorpus(docs, tc.copt), opt)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := res.Inferencer()
		if err != nil {
			t.Fatal(err)
		}
		if got := textPathDigest(inf, pins); got != tc.want {
			t.Errorf("%s model: text-path digest %s, want %s", tc.name, got, tc.want)
		}
	}

	checkTPCPinned(t, 1, 2, 8)
}

// checkTPCPinned writes the .tpc image of a surface-keeping corpus,
// with its mined phrases and spans, at each Workers setting and
// compares the image's digest and the digest of what corpusfile.Open
// returns for it with the pinned ones.
func checkTPCPinned(t *testing.T, workerCounts ...int) {
	t.Helper()
	pins := readTextPins(t)
	raw := corpusFileTestDocs(t)
	raw = append(append(pins, raw...), pins...)
	const (
		wantTPC     = "0f23f760bf6a4600d25840a331cb52b11259c62dc7c3045813e9610cc556dc25"
		wantContent = "55c0b112f135ab9814cc952cf85f8bbb744f3e73b73782d8b815166816934f5d"
	)
	for _, workers := range workerCounts {
		o := corpusFileTestOptions()
		o.Workers = workers
		pre, err := Preprocess(SliceSource(raw), o)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("w%d.tpc", workers))
		if err := SaveCorpusFile(path, pre); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != wantTPC {
			t.Errorf("workers=%d: .tpc digest %s, want %s", workers, got, wantTPC)
		}
		if got := tpcContentDigest(t, path); got != wantContent {
			t.Errorf("workers=%d: loaded .tpc content digest %s, want %s", workers, got, wantContent)
		}
	}
}

// tpcContentDigest hashes what corpusfile.Open returns for the file at
// path: the corpus columns, the vocabulary's words, counts and surface
// votes (through its canonical flat encoding), the mined phrases with
// their scalars and parameters, and the spans.
func tpcContentDigest(t *testing.T, path string) string {
	t.Helper()
	f, err := corpusfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
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
	return hex.EncodeToString(h.Sum(nil))
}

// TestTPCPinnedAfterUnrelatedGob: a process that gob-encodes a type of
// its own before it writes a .tpc still writes the pinned bytes. Gob
// numbers types in the order a process meets them, so the check runs
// in a fresh process, re-executed from this test binary.
func TestTPCPinnedAfterUnrelatedGob(t *testing.T) {
	if os.Getenv("TOPMINE_TEST_GOB_FIRST") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTPCPinnedAfterUnrelatedGob$", "-test.count=1")
		cmd.Env = append(os.Environ(), "TOPMINE_TEST_GOB_FIRST=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	type unrelated struct {
		A []float32
		B map[string]uint8
	}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{B: map[string]uint8{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	checkTPCPinned(t, 1)
}
