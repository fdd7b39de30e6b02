package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"topmine"
	"topmine/internal/obs"
)

var (
	testFixOnce sync.Once
	testInf     *topmine.Inferencer // 20conf pipeline, K=4 ("default" model)
	testSnap    []byte              // its snapshot bytes (for file-backed reload tests)
	testK       int
	testInf2    *topmine.Inferencer // dblp-titles pipeline, K=3 (second model)
	testK2      int
)

// testFixtures trains two small pipelines from different domains,
// round-trips the first through the snapshot format (the production
// serving path), and shares the Inferencers across tests and
// benchmarks.
func testFixtures(t testing.TB) {
	t.Helper()
	testFixOnce.Do(func() {
		docs, err := topmine.GenerateExampleCorpus("20conf", 400, 11)
		if err != nil {
			t.Fatal(err)
		}
		opt := topmine.DefaultOptions()
		opt.Topics = 4
		opt.Iterations = 50
		opt.SigThreshold = 4
		opt.Seed = 42
		opt.Workers = 1
		res, err := topmine.Run(docs, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := topmine.SaveSnapshot(&buf, res); err != nil {
			t.Fatal(err)
		}
		testSnap = buf.Bytes()
		loaded, err := topmine.LoadSnapshot(bytes.NewReader(testSnap))
		if err != nil {
			t.Fatal(err)
		}
		inf, err := loaded.Inferencer()
		if err != nil {
			t.Fatal(err)
		}
		testInf, testK = inf, opt.Topics

		docs2, err := topmine.GenerateExampleCorpus("dblp-titles", 250, 7)
		if err != nil {
			t.Fatal(err)
		}
		opt2 := topmine.DefaultOptions()
		opt2.Topics = 3
		opt2.Iterations = 30
		opt2.SigThreshold = 4
		opt2.Seed = 9
		opt2.Workers = 1
		res2, err := topmine.Run(docs2, opt2)
		if err != nil {
			t.Fatal(err)
		}
		inf2, err := res2.Inferencer()
		if err != nil {
			t.Fatal(err)
		}
		testInf2, testK2 = inf2, opt2.Topics
	})
	if testInf == nil || testInf2 == nil {
		t.Fatal("test fixtures failed to build")
	}
}

func testInferencer(t testing.TB) *topmine.Inferencer {
	testFixtures(t)
	return testInf
}

func newTestServer(t testing.TB, opt Options) *Server {
	return newSingleModelServer(t, testInferencer(t), opt)
}

// newSingleModelServer serves inf as the registry's only model,
// "default".
func newSingleModelServer(t testing.TB, inf *topmine.Inferencer, opt Options) *Server {
	t.Helper()
	reg := NewRegistry()
	if err := reg.AddInferencer("default", inf); err != nil {
		t.Fatal(err)
	}
	return NewWithRegistry(reg, opt)
}

// newTwoModelServer serves the 20conf pipeline as the default model
// and the dblp-titles pipeline as "dblp".
func newTwoModelServer(t *testing.T, opt Options) *Server {
	testFixtures(t)
	reg := NewRegistry()
	if err := reg.AddInferencer("default", testInf); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddInferencer("dblp", testInf2); err != nil {
		t.Fatal(err)
	}
	return NewWithRegistry(reg, opt)
}

// testInferResult mirrors the wire shape of one inference result.
type testInferResult struct {
	Topics []float64 `json:"topics"`
	Best   int       `json:"best"`
	Tokens int       `json:"tokens"`
}

type testInferResponse struct {
	Result  *testInferResult  `json:"result"`
	Results []testInferResult `json:"results"`
}

// do issues one in-process request and decodes the JSON response.
func do(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: invalid JSON response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp map[string]string
	w := do(t, s, http.MethodGet, "/healthz", "", &resp)
	if w.Code != http.StatusOK || resp["status"] != "ok" {
		t.Fatalf("healthz = %d %q", w.Code, w.Body.String())
	}
	// HEAD must work (load balancers probe with it); other methods 405
	// like every other endpoint.
	if w := do(t, s, http.MethodHead, "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("HEAD /healthz = %d, want 200", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/healthz", "{}", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", w.Code)
	}
}

func TestRegistryDuplicateNameRejected(t *testing.T) {
	testFixtures(t)
	reg := NewRegistry()
	if err := reg.AddInferencer("m", testInf); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddInferencer("m", testInf2); err == nil {
		t.Fatal("duplicate AddInferencer succeeded")
	}
	loaderCalls := 0
	err := reg.Add("m", "", func() (*topmine.Inferencer, error) {
		loaderCalls++
		return testInf, nil
	})
	if err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if loaderCalls != 0 {
		t.Fatalf("duplicate Add still paid the snapshot load (%d loader calls)", loaderCalls)
	}
}

func TestReadyz(t *testing.T) {
	s := newTwoModelServer(t, Options{})
	var resp struct {
		Ready  bool            `json:"ready"`
		Models map[string]bool `json:"models"`
	}
	w := do(t, s, http.MethodGet, "/readyz", "", &resp)
	if w.Code != http.StatusOK || !resp.Ready {
		t.Fatalf("readyz = %d %q", w.Code, w.Body.String())
	}
	if len(resp.Models) != 2 || !resp.Models["default"] || !resp.Models["dblp"] {
		t.Fatalf("readyz models = %v", resp.Models)
	}
	if w := do(t, s, http.MethodPost, "/readyz", "{}", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /readyz = %d, want 405", w.Code)
	}
}

func TestTopicsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp topicsResponse
	w := do(t, s, http.MethodGet, "/v1/topics", "", &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("topics status = %d: %s", w.Code, w.Body.String())
	}
	if resp.NumTopics != testK {
		t.Fatalf("num_topics = %d, want %d", resp.NumTopics, testK)
	}
	if resp.Model != "default" {
		t.Fatalf("model = %q, want default", resp.Model)
	}
	if len(resp.Topics) != testK {
		t.Fatalf("topics list length = %d, want %d", len(resp.Topics), testK)
	}
	nonEmpty := 0
	for _, tp := range resp.Topics {
		if len(tp.Unigrams) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every topic summary is empty")
	}
	if w := do(t, s, http.MethodPost, "/v1/topics", "{}", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/topics = %d, want 405", w.Code)
	}
}

func TestInferSingle(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp testInferResponse
	w := do(t, s, http.MethodPost, "/v1/infer",
		`{"text": "support vector machines for text classification", "iters": 20}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("infer status = %d: %s", w.Code, w.Body.String())
	}
	if resp.Result == nil || resp.Results != nil {
		t.Fatalf("want single result, got %+v", resp)
	}
	if len(resp.Result.Topics) != testK {
		t.Fatalf("theta length = %d, want %d", len(resp.Result.Topics), testK)
	}
	var sum float64
	for _, v := range resp.Result.Topics {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta sums to %v", sum)
	}
	if resp.Result.Best < 0 || resp.Result.Best >= testK {
		t.Fatalf("best topic %d out of range", resp.Result.Best)
	}
	if resp.Result.Tokens == 0 {
		t.Fatal("in-vocabulary text reported 0 tokens")
	}
}

// TestInferTokensDetectsNoSignal is the all-OOV path: the response
// still carries a mixture (the bare prior) and a best topic, but
// tokens=0 lets clients tell "no signal" from a confident answer.
func TestInferTokensDetectsNoSignal(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, text := range []string{"zzzzz qqqqq xxxxx", ""} {
		body, _ := json.Marshal(map[string]any{"text": text, "iters": 5})
		var resp testInferResponse
		w := do(t, s, http.MethodPost, "/v1/infer", string(body), &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("infer(%q) = %d: %s", text, w.Code, w.Body.String())
		}
		if resp.Result.Tokens != 0 {
			t.Fatalf("infer(%q) tokens = %d, want 0", text, resp.Result.Tokens)
		}
		if len(resp.Result.Topics) != testK {
			t.Fatalf("infer(%q) still returns the prior mixture, got %d topics", text, len(resp.Result.Topics))
		}
	}
}

func TestInferBatchMatchesSingle(t *testing.T) {
	// Cache disabled so batch and single genuinely recompute.
	s := newTestServer(t, Options{CacheBytes: -1})
	texts := []string{
		"support vector machines for text classification",
		"query processing in database systems",
		"zzzzz out of vocabulary",
	}
	body, _ := json.Marshal(map[string]any{"texts": texts, "iters": 15})
	var batch testInferResponse
	w := do(t, s, http.MethodPost, "/v1/infer", string(body), &batch)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", w.Code, w.Body.String())
	}
	if batch.Result != nil || len(batch.Results) != len(texts) {
		t.Fatalf("want %d batch results, got %+v", len(texts), batch)
	}
	for i, text := range texts {
		single, _ := json.Marshal(map[string]any{"text": text, "iters": 15})
		var one testInferResponse
		do(t, s, http.MethodPost, "/v1/infer", string(single), &one)
		for k := range one.Result.Topics {
			if one.Result.Topics[k] != batch.Results[i].Topics[k] {
				t.Fatalf("text %d: batch and single inference disagree at topic %d", i, k)
			}
		}
		if one.Result.Tokens != batch.Results[i].Tokens {
			t.Fatalf("text %d: token counts disagree", i)
		}
	}
}

func TestInferErrors(t *testing.T) {
	s := newTestServer(t, Options{MaxBatch: 2})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"text": `, http.StatusBadRequest},
		{"unknown field", `{"document": "x"}`, http.StatusBadRequest},
		{"neither text nor texts", `{}`, http.StatusBadRequest},
		{"both text and texts", `{"text": "a", "texts": ["b"]}`, http.StatusBadRequest},
		{"empty batch", `{"texts": []}`, http.StatusBadRequest},
		{"oversized batch", `{"texts": ["a", "b", "c"]}`, http.StatusBadRequest},
		{"unknown model", `{"text": "a", "model": "nope"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp errorResponse
			w := do(t, s, http.MethodPost, "/v1/infer", tc.body, &resp)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d (%s)", w.Code, tc.want, w.Body.String())
			}
			if resp.Error == "" {
				t.Fatal("error response has no message")
			}
		})
	}
	if w := do(t, s, http.MethodGet, "/v1/infer", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/infer = %d, want 405", w.Code)
	}
}

func TestInferOversizedBody(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 64})
	body := `{"text": "` + strings.Repeat("padding ", 64) + `"}`
	var resp errorResponse
	w := do(t, s, http.MethodPost, "/v1/infer", body, &resp)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", w.Code, w.Body.String())
	}
	if resp.Error == "" {
		t.Fatal("413 response has no message")
	}
}

func TestSegmentEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	var resp segmentResponse
	w := do(t, s, http.MethodPost, "/v1/segment",
		`{"text": "support vector machines classify documents, query processing in database systems"}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("segment status = %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Segments) == 0 {
		t.Fatal("no segments returned for in-vocabulary text")
	}
	multi := false
	for _, seg := range resp.Segments {
		for _, p := range seg {
			if strings.Contains(p, " ") {
				multi = true
			}
		}
	}
	if !multi {
		t.Fatalf("no multi-word phrase in %v", resp.Segments)
	}

	// All-OOV text yields an empty (but present, non-null) list.
	var empty segmentResponse
	do(t, s, http.MethodPost, "/v1/segment", `{"text": "zzzzz qqqqq"}`, &empty)
	if empty.Segments == nil || len(empty.Segments) != 0 {
		t.Fatalf("OOV text segments = %#v, want []", empty.Segments)
	}

	if w := do(t, s, http.MethodPost, "/v1/segment", `not json`, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed segment body = %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/v1/segment", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/segment = %d, want 405", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/segment", `{"text": "a", "model": "nope"}`, nil); w.Code != http.StatusNotFound {
		t.Fatalf("segment with unknown model = %d, want 404", w.Code)
	}
}

// TestModelLessServerRejectsInfer serves a mining-only pipeline (no
// trained topic model): /v1/segment must work, /v1/infer must return
// 503 instead of panicking the connection.
func TestModelLessServerRejectsInfer(t *testing.T) {
	docs, err := topmine.GenerateExampleCorpus("20conf", 300, 13)
	if err != nil {
		t.Fatal(err)
	}
	opt := topmine.DefaultOptions()
	opt.Topics = 3
	c := topmine.BuildCorpus(docs, topmine.DefaultCorpusOptions())
	res := &topmine.Result{Corpus: c, Mined: topmine.MinePhrases(c, opt), Options: opt}
	inf, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	s := newSingleModelServer(t, inf, Options{})

	var resp errorResponse
	w := do(t, s, http.MethodPost, "/v1/infer", `{"text": "support vector machines"}`, &resp)
	if w.Code != http.StatusServiceUnavailable || resp.Error == "" {
		t.Fatalf("model-less infer = %d %q, want 503 with message", w.Code, w.Body.String())
	}
	var seg segmentResponse
	if w := do(t, s, http.MethodPost, "/v1/segment", `{"text": "support vector machines"}`, &seg); w.Code != http.StatusOK || len(seg.Segments) == 0 {
		t.Fatalf("model-less segment = %d %v", w.Code, seg.Segments)
	}
}

// TestInferBatchParallelPathDeterministic forces the batched fan-out
// onto its multi-worker branch (dead code on single-CPU machines
// otherwise) and checks the results still match serial single-doc
// inference exactly; under -race this also exercises the workers'
// shared access to the results slice and Inferencer. The cache is
// disabled so every result is genuinely recomputed.
func TestInferBatchParallelPathDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s := newTestServer(t, Options{CacheBytes: -1})
	entry, ok := s.reg.Lookup("")
	if !ok {
		t.Fatal("default model missing")
	}
	st := entry.snapshot()
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = fmt.Sprintf("support vector machines batch item %d", i)
	}
	got := s.inferBatch(entry, st, texts, 10)
	if len(got) != len(texts) {
		t.Fatalf("batch returned %d results for %d texts", len(got), len(texts))
	}
	for i, text := range texts {
		want := s.inferDoc(entry, st, text, 10)
		if !bytes.Equal(got[i], want) {
			t.Fatalf("text %d: parallel batch %s, serial %s", i, got[i], want)
		}
	}
}

func TestRaisedDefaultItersNotClamped(t *testing.T) {
	s := newTestServer(t, Options{DefaultIters: 1000})
	if s.opt.MaxIters < 2000 {
		t.Fatalf("MaxIters = %d silently clamps the operator's DefaultIters 1000 (2000 total sweeps)", s.opt.MaxIters)
	}
}

// TestMaxItersBoundsTotalSweeps pins the corrected iters accounting:
// MaxIters caps burn-in + sampling, so a request may be served at most
// MaxIters/2 sampling sweeps.
func TestMaxItersBoundsTotalSweeps(t *testing.T) {
	var o Options
	o.fill()
	if o.MaxIters != 1000 {
		t.Fatalf("default MaxIters = %d, want 1000 total sweeps", o.MaxIters)
	}
	if got := o.clampIters(600); got != 500 {
		t.Fatalf("clampIters(600) = %d, want 500 (2×500 = MaxIters)", got)
	}
	if got := o.clampIters(0); got != o.DefaultIters {
		t.Fatalf("clampIters(0) = %d, want default %d", got, o.DefaultIters)
	}
	tight := Options{DefaultIters: 10, MaxIters: 100}
	tight.fill()
	if got := tight.clampIters(80); got != 50 {
		t.Fatalf("clampIters(80) under MaxIters=100 = %d, want 50", got)
	}
	if got := tight.clampIters(1); got != 1 {
		t.Fatalf("clampIters(1) = %d, want 1", got)
	}
	// A huge request must clamp, not overflow past the cap: doubling
	// attacker-controlled iters would wrap negative and skip the clamp.
	if got := o.clampIters(math.MaxInt); got != o.MaxIters/2 {
		t.Fatalf("clampIters(MaxInt) = %d, want %d", got, o.MaxIters/2)
	}
}

func TestUnknownPath(t *testing.T) {
	s := newTestServer(t, Options{})
	if w := do(t, s, http.MethodGet, "/v1/nope", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", w.Code)
	}
}

func TestModelsEndpoint(t *testing.T) {
	s := newTwoModelServer(t, Options{})
	var resp modelsResponse
	w := do(t, s, http.MethodGet, "/v1/models", "", &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("models status = %d: %s", w.Code, w.Body.String())
	}
	if resp.Default != "default" || len(resp.Models) != 2 {
		t.Fatalf("models = %+v", resp)
	}
	byName := map[string]modelInfo{}
	for _, m := range resp.Models {
		byName[m.Name] = m
	}
	def, dblp := byName["default"], byName["dblp"]
	if !def.Default || dblp.Default {
		t.Fatalf("default flags wrong: %+v", resp.Models)
	}
	if def.Topics != testK || dblp.Topics != testK2 {
		t.Fatalf("topics = %d/%d, want %d/%d", def.Topics, dblp.Topics, testK, testK2)
	}
	for _, m := range resp.Models {
		if !m.Ready || m.Generation != 1 || m.Reloads != 0 {
			t.Fatalf("model %s state: %+v", m.Name, m)
		}
		if m.VocabSize == 0 || m.Phrases == 0 {
			t.Fatalf("model %s stats empty: %+v", m.Name, m)
		}
		if m.Reloadable {
			t.Fatalf("in-memory model %s claims to be reloadable", m.Name)
		}
	}
	if w := do(t, s, http.MethodPost, "/v1/models", "{}", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/models = %d, want 405", w.Code)
	}
}

// TestMultiModelRouting routes the same text to two models and checks
// each answers with its own topic count; unknown names 404 everywhere.
func TestMultiModelRouting(t *testing.T) {
	s := newTwoModelServer(t, Options{})
	var def, dblp testInferResponse
	do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 10}`, &def)
	do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 10, "model": "dblp"}`, &dblp)
	if len(def.Result.Topics) != testK {
		t.Fatalf("default model returned %d topics, want %d", len(def.Result.Topics), testK)
	}
	if len(dblp.Result.Topics) != testK2 {
		t.Fatalf("dblp model returned %d topics, want %d", len(dblp.Result.Topics), testK2)
	}

	var topics topicsResponse
	if w := do(t, s, http.MethodGet, "/v1/topics?model=dblp", "", &topics); w.Code != http.StatusOK || topics.NumTopics != testK2 {
		t.Fatalf("topics?model=dblp = %d, num_topics %d", w.Code, topics.NumTopics)
	}
	if w := do(t, s, http.MethodGet, "/v1/topics?model=nope", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("topics?model=nope = %d, want 404", w.Code)
	}
}

// TestCacheDeterminism verifies the exactness claim end to end: a
// cache hit must be byte-for-byte the response an uncached server
// computes fresh, and the hit must actually come from the cache
// (visible in /metrics counters).
func TestCacheDeterminism(t *testing.T) {
	cached := newTestServer(t, Options{})
	uncached := newTestServer(t, Options{CacheBytes: -1})
	body := `{"text": "support vector machines for text classification", "iters": 25}`

	w1 := do(t, cached, http.MethodPost, "/v1/infer", body, nil) // miss, populates
	w2 := do(t, cached, http.MethodPost, "/v1/infer", body, nil) // hit
	w3 := do(t, uncached, http.MethodPost, "/v1/infer", body, nil)
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK || w3.Code != http.StatusOK {
		t.Fatalf("statuses = %d/%d/%d", w1.Code, w2.Code, w3.Code)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("cache hit differs from the miss that populated it:\n%s\n%s", w1.Body, w2.Body)
	}
	if !bytes.Equal(w2.Body.Bytes(), w3.Body.Bytes()) {
		t.Fatalf("cache hit differs from a fresh uncached computation:\n%s\n%s", w2.Body, w3.Body)
	}

	segBody := `{"text": "the craft beer selection, query processing in database systems"}`
	s1 := do(t, cached, http.MethodPost, "/v1/segment", segBody, nil)
	s2 := do(t, cached, http.MethodPost, "/v1/segment", segBody, nil)
	s3 := do(t, uncached, http.MethodPost, "/v1/segment", segBody, nil)
	if !bytes.Equal(s1.Body.Bytes(), s2.Body.Bytes()) || !bytes.Equal(s2.Body.Bytes(), s3.Body.Bytes()) {
		t.Fatalf("segment responses diverge across cache paths:\n%s\n%s\n%s", s1.Body, s2.Body, s3.Body)
	}

	metrics := do(t, cached, http.MethodGet, "/metrics", "", nil).Body.String()
	for _, want := range []string{
		"topmined_cache_hits_total 2",
		"topmined_cache_misses_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCacheKeyedByIters: the same text at different iteration counts
// must not share a cache entry.
func TestCacheKeyedByIters(t *testing.T) {
	s := newTestServer(t, Options{})
	a := do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 5}`, nil)
	b := do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 40}`, nil)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("statuses = %d/%d", a.Code, b.Code)
	}
	st := s.cache.stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cache stats = %+v, want 2 misses 0 hits", st)
	}
}

// TestCacheSkipsOversizedEntries: a response larger than the
// per-shard budget is served but never cached, so N shards can never
// each pin one huge entry and blow the operator's byte budget.
func TestCacheSkipsOversizedEntries(t *testing.T) {
	s := newTestServer(t, Options{CacheBytes: 256})
	body, _ := json.Marshal(map[string]any{
		"text": "support vector machines " + strings.Repeat("padding ", 40), "iters": 5})
	for i := 0; i < 2; i++ {
		if w := do(t, s, http.MethodPost, "/v1/infer", string(body), nil); w.Code != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, w.Code, w.Body.String())
		}
	}
	st := s.cache.stats()
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("oversized response was cached anyway: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget violated: %+v", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTwoModelServer(t, Options{})
	do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 5}`, nil)
	do(t, s, http.MethodGet, "/healthz", "", nil)
	do(t, s, http.MethodPost, "/v1/infer", `bad json`, nil)

	w := do(t, s, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	bodyText := w.Body.String()
	for _, want := range []string{
		`topmined_requests_total{endpoint="/v1/infer",code="200"} 1`,
		`topmined_requests_total{endpoint="/v1/infer",code="400"} 1`,
		`topmined_requests_total{endpoint="/healthz",code="200"} 1`,
		`topmined_request_duration_seconds_bucket{endpoint="/v1/infer",le="+Inf"} 2`,
		`topmined_request_duration_seconds_count{endpoint="/v1/infer"} 2`,
		`topmined_model_ready{model="dblp"} 1`,
		`topmined_model_generation{model="default"} 1`,
		`topmined_model_topics{model="default"} 4`,
		"topmined_batch_slots_capacity",
		"topmined_cache_max_bytes",
		"topmined_uptime_seconds",
	} {
		if !strings.Contains(bodyText, want) {
			t.Fatalf("metrics missing %q:\n%s", want, bodyText)
		}
	}
	if w := do(t, s, http.MethodPost, "/metrics", "{}", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", w.Code)
	}
}

// TestMetricsExpositionParsesBack pins the whole /metrics payload
// against the obs parse-back linter: every line well-formed per the
// 0.0.4 text format, histograms cumulative with +Inf buckets, no
// duplicate series — after enough traffic to populate every family.
func TestMetricsExpositionParsesBack(t *testing.T) {
	s := newTwoModelServer(t, Options{CacheBytes: 1 << 20})
	do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 5}`, nil)
	do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 5}`, nil) // cache hit
	do(t, s, http.MethodPost, "/v1/infer", `bad json`, nil)
	do(t, s, http.MethodPost, "/v1/segment", `{"text": "database systems"}`, nil)
	do(t, s, http.MethodGet, "/v1/models", "", nil)
	do(t, s, http.MethodGet, "/healthz", "", nil)
	do(t, s, http.MethodGet, "/readyz", "", nil)

	w := do(t, s, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	if err := obs.Lint(w.Body.Bytes()); err != nil {
		t.Fatalf("exposition fails parse-back lint: %v\n%s", err, w.Body.String())
	}
}

// TestReloadEndpoint exercises the admin reload path: 404 for unknown
// models, 409 for in-memory models, and a real snapshot-file reload
// that bumps the generation and invalidates cached responses.
func TestReloadEndpoint(t *testing.T) {
	testFixtures(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.tpm")
	if err := os.WriteFile(path, testSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.AddSnapshotFile("filemodel", path); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddInferencer("mem", testInf2); err != nil {
		t.Fatal(err)
	}
	s := NewWithRegistry(reg, Options{})

	if w := do(t, s, http.MethodPost, "/v1/models/nope/reload", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("reload unknown = %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/models/mem/reload", "", nil); w.Code != http.StatusConflict {
		t.Fatalf("reload in-memory = %d, want 409", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/v1/models/filemodel/reload", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload = %d, want 405", w.Code)
	}

	// Prime the cache, reload, and confirm the entry is keyed away.
	body := `{"text": "support vector machines", "iters": 10}`
	first := do(t, s, http.MethodPost, "/v1/infer", body, nil)
	var info modelInfo
	if w := do(t, s, http.MethodPost, "/v1/models/filemodel/reload", "", &info); w.Code != http.StatusOK {
		t.Fatalf("reload = %d: %s", w.Code, w.Body.String())
	}
	if info.Generation != 2 || info.Reloads != 1 || !info.Ready {
		t.Fatalf("after reload: %+v", info)
	}
	misses := s.cache.stats().Misses
	second := do(t, s, http.MethodPost, "/v1/infer", body, nil)
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		// Same snapshot content, so the recomputed answer is identical
		// — but it must have been recomputed under the new generation.
		t.Fatalf("reloaded model answers differently for identical content:\n%s\n%s", first.Body, second.Body)
	}
	if got := s.cache.stats().Misses; got != misses+1 {
		t.Fatalf("post-reload request hit the stale generation (misses %d -> %d)", misses, got)
	}
}

// TestReloadAdminToken: with AdminToken set, reload requires the
// bearer token; data-plane endpoints stay open.
func TestReloadAdminToken(t *testing.T) {
	testFixtures(t)
	reg := NewRegistry()
	if err := reg.Add("m", "", func() (*topmine.Inferencer, error) { return testInf, nil }); err != nil {
		t.Fatal(err)
	}
	s := NewWithRegistry(reg, Options{AdminToken: "s3cret"})

	if w := do(t, s, http.MethodPost, "/v1/models/m/reload", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("tokenless reload = %d, want 401", w.Code)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/models/m/reload", nil)
	r.Header.Set("Authorization", "Bearer wrong")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("wrong-token reload = %d, want 401", w.Code)
	}
	r = httptest.NewRequest(http.MethodPost, "/v1/models/m/reload", nil)
	r.Header.Set("Authorization", "Bearer s3cret")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("authorised reload = %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, s, http.MethodPost, "/v1/infer", `{"text": "database systems", "iters": 5}`, nil); w.Code != http.StatusOK {
		t.Fatalf("data-plane infer needs no token but got %d", w.Code)
	}
}

// TestHotReloadUnderLoad is the zero-dropped-requests guarantee:
// requests race repeated atomic swaps between two different models,
// and every response must be a valid 200 from one model or the other.
// Each client cycles single /v1/infer, batched /v1/infer and
// /v1/segment requests, so under -race this is the registry's
// swap-safety proof for every request path, cache and batch fan-out
// included.
func TestHotReloadUnderLoad(t *testing.T) {
	testFixtures(t)
	var flips atomic.Uint64
	reg := NewRegistry()
	err := reg.Add("live", "", func() (*topmine.Inferencer, error) {
		if flips.Add(1)%2 == 0 {
			return testInf2, nil
		}
		return testInf, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithRegistry(reg, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	const (
		workers  = 8
		requests = 20
		reloads  = 15
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < requests; i++ {
				// Texts repeat across clients so some requests hit the
				// cache or coalesce with an in-flight twin.
				text := fmt.Sprintf("database systems request %d", (g+i)%5)
				path, body := "/v1/infer", fmt.Sprintf(`{"text": %q, "iters": 5}`, text)
				switch i % 3 {
				case 1:
					body = fmt.Sprintf(`{"texts": [%q, "query processing", "support vector machines"], "iters": 5}`, text)
				case 2:
					path, body = "/v1/segment", fmt.Sprintf(`{"text": %q}`, text)
				}
				resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: dropped %s request during reload: %d %s", g, path, resp.StatusCode, buf.String())
					return
				}
				var decoded struct {
					testInferResponse
					segmentResponse
				}
				if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
					t.Errorf("goroutine %d: bad body %q: %v", g, buf.String(), err)
					return
				}
				results := decoded.Results
				if decoded.Result != nil {
					results = append(results, *decoded.Result)
				}
				if want := [3]int{1, 3, 0}[i%3]; len(results) != want || (path == "/v1/segment") != (len(decoded.Segments) > 0) {
					t.Errorf("goroutine %d: %s answered %q, want %d results", g, path, buf.String(), want)
					return
				}
				for _, r := range results {
					if k := len(r.Topics); k != testK && k != testK2 {
						t.Errorf("goroutine %d: %d topics matches neither model (%d/%d)", g, k, testK, testK2)
						return
					}
				}
			}
		}(g)
	}
	reloadDone := make(chan error, 1)
	go func() {
		<-start
		for i := 0; i < reloads; i++ {
			if err := reg.Reload("live"); err != nil {
				reloadDone <- err
				return
			}
		}
		reloadDone <- nil
	}()
	close(start)
	wg.Wait()
	if err := <-reloadDone; err != nil {
		t.Fatalf("reload failed under load: %v", err)
	}
	e, _ := reg.Lookup("live")
	if got := e.Generation(); got != uint64(1+reloads) {
		t.Fatalf("generation = %d after %d reloads, want %d", got, reloads, 1+reloads)
	}
	if got := e.Reloads(); got != uint64(reloads) {
		t.Fatalf("reload counter = %d, want %d", got, reloads)
	}
}

// TestConcurrentInferRequests drives the full HTTP stack from many
// goroutines against one snapshot-backed server; under -race this is
// the serving-path counterpart of the Inferencer race test.
func TestConcurrentInferRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	texts := []string{
		`{"text": "support vector machines for text classification", "iters": 10}`,
		`{"text": "query processing in database systems", "iters": 10}`,
		`{"texts": ["machine learning models", "information retrieval"], "iters": 10}`,
	}
	want := make([]string, len(texts))
	for i, body := range texts {
		resp, err := http.Post(srv.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("priming request %d: %d %s", i, resp.StatusCode, buf.String())
		}
		want[i] = buf.String()
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < 10; op++ {
				i := (g + op) % len(texts)
				resp, err := http.Post(srv.URL+"/v1/infer", "application/json", strings.NewReader(texts[i]))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || buf.String() != want[i] {
					t.Errorf("goroutine %d: response diverged for request %d: %d %s", g, i, resp.StatusCode, buf.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
