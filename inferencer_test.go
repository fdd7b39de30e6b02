package topmine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNewInferencerValidates(t *testing.T) {
	if _, err := NewInferencer(nil); err == nil {
		t.Fatal("nil Result accepted")
	}
	if _, err := NewInferencer(&Result{}); err == nil {
		t.Fatal("empty Result accepted")
	}
}

// TestMiningOnlyResultTracesAndSegments pins that a pipeline without
// a trained topic model (mine + segment only) still supports
// TraceText and Segment — they need only the vocabulary and mined
// statistics — while InferTopics fails loudly.
func TestMiningOnlyResultTracesAndSegments(t *testing.T) {
	docs, err := GenerateExampleCorpus("20conf", 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpts()
	c := BuildCorpus(docs, DefaultCorpusOptions())
	res := &Result{Corpus: c, Mined: MinePhrases(c, opt), Options: opt}

	traces := res.TraceText("support vector machines classify documents")
	if len(traces) != 1 || len(traces[0].Phrases) == 0 {
		t.Fatalf("mining-only TraceText broken: %+v", traces)
	}
	inf, err := res.Inferencer()
	if err != nil {
		t.Fatalf("mining-only Inferencer refused: %v", err)
	}
	if inf.NumTopics() != 0 {
		t.Fatalf("NumTopics = %d for model-less inferencer", inf.NumTopics())
	}
	if segs := inf.Segment("support vector machines"); len(segs) == 0 {
		t.Fatal("mining-only Segment returned nothing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("InferTopics without a model did not panic")
		}
	}()
	res.InferTopics("support vector machines", 5)
}

func TestResultInferencerCached(t *testing.T) {
	res := trainedResult(t)
	a, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := res.Inferencer()
	if a != b {
		t.Fatal("Result.Inferencer rebuilt instead of caching")
	}
}

// TestResultInferencerErrorNotCached pins that a failed construction
// (incomplete Result) does not poison later calls once the Result is
// completed.
func TestResultInferencerErrorNotCached(t *testing.T) {
	res := trainedResult(t)
	partial := &Result{Corpus: res.Corpus, Options: res.Options} // Mined missing
	if _, err := partial.Inferencer(); err == nil {
		t.Fatal("incomplete Result accepted")
	}
	partial.Mined = res.Mined
	partial.Model = res.Model
	if _, err := partial.Inferencer(); err != nil {
		t.Fatalf("completed Result still rejected: %v", err)
	}
}

func TestInferencerMatchesResultPaths(t *testing.T) {
	res := trainedResult(t)
	inf, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range inferTexts {
		want := res.InferTopics(text, 25)
		got := inf.InferTopics(text, 25)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%q: Inferencer theta[%d] = %v, Result path %v", text, k, got[k], want[k])
			}
		}
	}
}

func TestInferencerSegmentPartitionsTokens(t *testing.T) {
	res := trainedResult(t)
	inf, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	segs := inf.Segment("support vector machines classify documents, query processing in database systems")
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (comma splits)", len(segs))
	}
	// Each segment's phrases concatenate back to its tokens, and the
	// planted trigram should have merged somewhere.
	multi := false
	for _, phrases := range segs {
		if len(phrases) == 0 {
			t.Fatal("empty phrase list for a non-empty segment")
		}
		for _, p := range phrases {
			if strings.Contains(p, " ") {
				multi = true
			}
		}
	}
	if !multi {
		t.Fatalf("no multi-word phrase constructed: %v", segs)
	}
	if got := inf.Segment("zzzzz qqqqq"); len(got) != 0 {
		t.Fatalf("all-OOV text produced segments: %v", got)
	}
}

// TestInferencerHonorsAllFalseBuildOptions pins the zero-value
// semantics: a corpus explicitly built with no stemming and no
// stop-word removal must map query text the same way — substituting
// the defaults would stem queries against an unstemmed vocabulary and
// drop every token as OOV.
func TestInferencerHonorsAllFalseBuildOptions(t *testing.T) {
	docs, err := GenerateExampleCorpus("20conf", 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpts()
	opt.Iterations = 30
	res, err := RunCorpus(BuildCorpus(docs, CorpusOptions{}), opt)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	// "machines" is plural in the raw text; with stemming off the
	// vocabulary holds the surface form, so the query token must map.
	segs := inf.Segment("support vector machines")
	if len(segs) == 0 {
		t.Fatal("query text against an unstemmed corpus mapped to nothing (defaults substituted for all-false BuildOptions?)")
	}
}

// TestInferencerOwnsItsCounts pins "captures the artifacts at
// construction" for the topic model: an Inferencer held across
// continued training on the source Model — here, every count and prior
// overwritten in place — answers exactly as it did before.
func TestInferencerOwnsItsCounts(t *testing.T) {
	res := trainedResult(t)
	inf, err := NewInferencer(res)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(inferTexts))
	for i, text := range inferTexts {
		want[i] = fingerprintTheta(inf.InferTopics(text, 20))
	}
	m := res.Model
	for w := range m.Nwk {
		for k := range m.Nwk[w] {
			m.Nwk[w][k] = int32(w+k) % 5
		}
	}
	for k := range m.Nk {
		m.Nk[k] += 1000 * int64(k+1)
		m.Alpha[k] *= float64(k + 2)
	}
	m.AlphaSum, m.Beta, m.BetaSum = 99, 0.5, 0.5*float64(m.V)
	for i, text := range inferTexts {
		if got := fingerprintTheta(inf.InferTopics(text, 20)); got != want[i] {
			t.Errorf("%q: θ changed after the source Model was mutated", text)
		}
	}
	fresh, err := NewInferencer(res)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintTheta(fresh.InferTopics(inferTexts[0], 20)) == want[0] {
		t.Error("an Inferencer built after the mutation did not see it")
	}
}

// fingerprintTheta renders a mixture exactly for equality comparison.
func fingerprintTheta(theta []float64) string {
	var b strings.Builder
	for _, v := range theta {
		fmt.Fprintf(&b, "%x;", v)
	}
	return b.String()
}

func fingerprintSegs(segs [][]string) string {
	var b strings.Builder
	for _, s := range segs {
		b.WriteString(strings.Join(s, "|"))
		b.WriteString("//")
	}
	return b.String()
}

func fingerprintTraces(trs []SegmentTrace) string {
	var b strings.Builder
	for _, tr := range trs {
		b.WriteString(strings.Join(tr.Tokens, ","))
		b.WriteString("!")
		b.WriteString(strings.Join(tr.Phrases, "|"))
		for _, s := range tr.Steps {
			fmt.Fprintf(&b, "[%d,%d,%d,%x]", s.Merged.Start, s.Merged.End, s.Left.End, s.Sig)
		}
		b.WriteString("//")
	}
	return b.String()
}

// TestInferencerConcurrentDeterministic hammers one Inferencer from
// many goroutines with mixed InferTopics/Segment/TraceText calls and
// asserts every call reproduces the serially-computed answer exactly.
// Run under -race this also proves the shared segmenter, model, and
// vocabulary are touched read-only.
func TestInferencerConcurrentDeterministic(t *testing.T) {
	res := trainedResult(t)

	// Serve from a snapshot round trip, as topmined does, so the test
	// covers the production path end to end.
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, res); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	inf, err := loaded.Inferencer()
	if err != nil {
		t.Fatal(err)
	}

	texts := []string{
		"support vector machines for text classification",
		"query processing in database systems",
		"machine learning models, neural network training and feature selection",
		"information retrieval and web search",
		"zzzzz out of vocabulary text qqqqq",
	}
	const iters = 15
	wantTheta := make([]string, len(texts))
	wantSegs := make([]string, len(texts))
	wantTrace := make([]string, len(texts))
	for i, text := range texts {
		wantTheta[i] = fingerprintTheta(inf.InferTopics(text, iters))
		wantSegs[i] = fingerprintSegs(inf.Segment(text))
		wantTrace[i] = fingerprintTraces(inf.TraceText(text))
	}

	const goroutines = 8
	const opsPerGoroutine = 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < opsPerGoroutine; op++ {
				i := (g + op) % len(texts)
				switch (g + op) % 3 {
				case 0:
					if got := fingerprintTheta(inf.InferTopics(texts[i], iters)); got != wantTheta[i] {
						t.Errorf("goroutine %d: InferTopics(%q) diverged", g, texts[i])
						return
					}
				case 1:
					if got := fingerprintSegs(inf.Segment(texts[i])); got != wantSegs[i] {
						t.Errorf("goroutine %d: Segment(%q) diverged", g, texts[i])
						return
					}
				default:
					if got := fingerprintTraces(inf.TraceText(texts[i])); got != wantTrace[i] {
						t.Errorf("goroutine %d: TraceText(%q) diverged", g, texts[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResultConcurrentFirstUse exercises the lazily-built cached
// Inferencer from concurrent first calls: the sync.Once construction
// must be race-free and every caller must see the same instance.
func TestResultConcurrentFirstUse(t *testing.T) {
	res := trainedResult(t)
	text := "support vector machines for machine learning"
	want := fingerprintTheta(res.InferTopics(text, 10))

	// A fresh Result (same artifacts, no cached inferencer) hit
	// concurrently on first use.
	fresh := &Result{
		Corpus: res.Corpus, Mined: res.Mined, Model: res.Model,
		Topics: res.Topics, Options: res.Options,
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := fingerprintTheta(fresh.InferTopics(text, 10)); got != want {
				t.Error("concurrent first-use inference diverged")
			}
		}()
	}
	wg.Wait()
}
