// Package serve exposes trained ToPMine pipelines over HTTP: topic
// inference, phrase segmentation, and topic listing against one or
// more loaded snapshots. A Server routes requests through a model
// Registry (any number of named models, each hot-reloadable with zero
// dropped requests), answers repeated requests from an exact response
// cache (inference is deterministic per input text, so cached answers
// are not approximations), and exports Prometheus metrics. The
// handlers hold no per-request mutable state beyond what they load
// atomically, so one Server takes arbitrarily many concurrent
// requests.
//
// Endpoints (JSON unless noted):
//
//	POST /v1/infer                    {"text": "...", "iters": 50, "model": "name"?}
//	POST /v1/infer                    {"texts": ["...", ...]}        batched documents
//	POST /v1/segment                  {"text": "...", "model": "name"?}
//	GET  /v1/topics[?model=name]      trained topic summaries
//	GET  /v1/models                   registered models and their stats
//	POST /v1/models/{name}/reload     atomic hot reload from the model's source
//	GET  /healthz                     liveness probe
//	GET  /readyz                      per-model readiness
//	GET  /metrics                     Prometheus text exposition
//
// The "model" field/parameter is optional everywhere; omitting it
// routes to the registry's default model, which preserves the
// single-model API of earlier versions.
package serve

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"topmine"
	"topmine/internal/obs"
)

// Options configures request handling limits.
type Options struct {
	// MaxBodyBytes caps request body size; larger bodies get 413.
	// 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxBatch caps the number of texts in one batched /v1/infer call;
	// 0 means 256.
	MaxBatch int
	// DefaultIters is the sampling sweep count used when a request
	// omits or zeroes "iters"; 0 means 50. Note one inference runs an
	// equal burn-in first, so a request costs 2×iters total sweeps
	// (see topicmodel.InferIndex.InferTheta's burn-in contract).
	DefaultIters int
	// MaxIters caps the TOTAL Gibbs sweeps (burn-in + sampling) one
	// request may cost, so a single request cannot monopolise a core;
	// 0 means 1000 (i.e. up to 500 requested sampling sweeps). A
	// request asking for more is clamped to MaxIters/2 sampling
	// sweeps. Earlier versions compared the cap against the requested
	// sampling sweeps alone and therefore allowed double the work.
	MaxIters int
	// CacheBytes bounds the exact response cache; 0 means 32 MiB,
	// negative disables caching.
	CacheBytes int64
	// AdminToken, when non-empty, is required (as
	// "Authorization: Bearer <token>") on admin endpoints — currently
	// POST /v1/models/{name}/reload. Reloads are expensive (full
	// snapshot re-read) and each generation bump strands the model's
	// cached responses (unreachable until LRU churn evicts them), so
	// on a port exposed to untrusted clients the endpoint must not be
	// free to call. Empty leaves the endpoint open (suitable only
	// behind a trusted network boundary).
	AdminToken string
	// RequestLog, when non-nil, receives one JSON line per finished
	// request: timestamp, method, endpoint, model, status, response
	// bytes, total latency, and the per-phase breakdown (resolve vs.
	// infer vs. marshal) that tells an operator whether a slow request
	// spent its time looking up the model, running Gibbs sweeps, or
	// serialising the answer. Writes are serialised by the Server, so
	// any io.Writer works; /metrics requests are not logged.
	RequestLog io.Writer
}

func (o *Options) fill() {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.DefaultIters <= 0 {
		o.DefaultIters = 50
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 1000
	}
	// An operator-raised default must never be silently clamped back:
	// a DefaultIters of n costs 2n total sweeps, so the cap must admit
	// that much.
	if o.MaxIters < 2*o.DefaultIters {
		o.MaxIters = 2 * o.DefaultIters
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 32 << 20
	}
}

// clampIters converts a request's sampling-sweep ask into the served
// count under the total-sweep budget. The comparison divides the cap
// rather than doubling the request: iters is attacker-controlled and
// 2*iters overflows for huge values, which would skip the clamp
// entirely.
func (o *Options) clampIters(iters int) int {
	if iters <= 0 {
		iters = o.DefaultIters
	}
	if iters > o.MaxIters/2 {
		iters = o.MaxIters / 2
	}
	if iters < 1 {
		iters = 1
	}
	return iters
}

// Server routes serving-API requests across a model registry. It
// implements http.Handler.
type Server struct {
	reg   *Registry
	opt   Options
	mux   *http.ServeMux
	cache *respCache
	met   *metrics
	// metricsReg is the assembled exposition registry behind /metrics;
	// see buildMetricsRegistry for the series and their ordering.
	metricsReg *obs.Registry
	// batchSlots is a server-wide token pool bounding the extra
	// goroutines all concurrent batch requests may spawn combined, so
	// overlapping batches cannot oversubscribe the CPUs and starve
	// single-document or health requests.
	batchSlots chan struct{}
	// flights coalesces concurrent identical cache misses: N requests
	// for the same (model, gen, kind, iters, text) key run one
	// computation and share its bytes (see coalesce.go).
	flights *flightGroup
	// coalesced counts requests that received a shared in-flight
	// result instead of computing their own (topmined_coalesced_total).
	coalesced atomic.Uint64
	// inflight tracks requests currently inside an instrumented
	// handler (topmined_inflight_requests).
	inflight atomic.Int64
	// logMu serialises RequestLog writes so concurrent requests never
	// interleave bytes within one JSON line.
	logMu sync.Mutex
	// infer performs one document inference against a model
	// publication. It defaults to the snapshot's Inferencer and exists
	// as a seam so tests can count, gate, or fail computations without
	// training instrumented pipelines.
	infer func(st *modelState, text string, iters int) ([]float64, int)
}

// NewWithRegistry builds a Server over an already-populated registry.
// Models may still be reloaded afterwards; adding models after
// construction is supported too (the registry is referenced, not
// copied).
func NewWithRegistry(reg *Registry, opt Options) *Server {
	opt.fill()
	s := &Server{
		reg:     reg,
		opt:     opt,
		mux:     http.NewServeMux(),
		cache:   newRespCache(opt.CacheBytes),
		met:     newMetrics(),
		flights: newFlightGroup(),
	}
	s.infer = func(st *modelState, text string, iters int) ([]float64, int) {
		return st.inf.InferTopicsTokens(text, iters)
	}
	s.batchSlots = make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < cap(s.batchSlots); i++ {
		s.batchSlots <- struct{}{}
	}
	s.metricsReg = s.buildMetricsRegistry()
	s.mux.HandleFunc("/v1/infer", s.instrument("/v1/infer", s.handleInfer))
	s.mux.HandleFunc("/v1/segment", s.instrument("/v1/segment", s.handleSegment))
	s.mux.HandleFunc("/v1/topics", s.instrument("/v1/topics", s.handleTopics))
	s.mux.HandleFunc("/v1/models", s.instrument("/v1/models", s.handleModels))
	s.mux.HandleFunc("/v1/models/{name}/reload", s.instrument("/v1/models/reload", s.handleReload))
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("/readyz", s.instrument("/readyz", s.handleReady))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Registry returns the server's model registry (for signal-driven
// reloads and startup registration by the daemon).
func (s *Server) Registry() *Registry { return s.reg }

// ServeHTTP dispatches to the registered endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// inferRequest accepts either a single text or a batch; exactly one of
// Text/Texts must be set. Model is optional ("" = default model).
type inferRequest struct {
	Text  *string  `json:"text,omitempty"`
	Texts []string `json:"texts,omitempty"`
	Iters int      `json:"iters,omitempty"`
	Model string   `json:"model,omitempty"`
}

// inferResult is the inference output for one document. Tokens is the
// number of in-vocabulary tokens the text mapped to: when it is 0
// (empty or fully out-of-vocabulary input) the mixture is the bare
// prior and Best carries no signal — clients must treat it as "no
// answer", not as a confident topic.
type inferResult struct {
	Topics []float64 `json:"topics"`
	Best   int       `json:"best"`
	Tokens int       `json:"tokens"`
}

type segmentRequest struct {
	Text  string `json:"text"`
	Model string `json:"model,omitempty"`
}

type segmentResponse struct {
	Segments [][]string `json:"segments"`
}

type topicPhrase struct {
	Display string `json:"display"`
	TF      int    `json:"tf"`
}

type topicSummary struct {
	Topic    int           `json:"topic"`
	Unigrams []string      `json:"unigrams"`
	Phrases  []topicPhrase `json:"phrases"`
}

type topicsResponse struct {
	Model     string         `json:"model"`
	NumTopics int            `json:"num_topics"`
	Topics    []topicSummary `json:"topics"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON marshals v with status code. Encoding a fully materialised
// response value cannot fail, so errors here are ignored beyond the
// best-effort write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeRawJSON writes a 200 response assembled from pre-marshalled
// JSON documents (cached or freshly computed — the same bytes either
// way): the envelope's opening text, the documents comma separated,
// and its closing text, which ends in the newline json.Encoder emits
// so these responses match writeJSON's framing. The documents are this
// server's own json.Marshal output, compact and escaped by
// construction, so they go to the wire as they are; handing them to
// json.Encoder as RawMessage would re-scan and re-compact every byte
// to produce the identical response.
func writeRawJSON(w http.ResponseWriter, open, close string, docs ...json.RawMessage) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, open)
	for i, d := range docs {
		if i > 0 {
			io.WriteString(w, ",")
		}
		w.Write(d)
	}
	io.WriteString(w, close)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody parses the size-limited JSON body into dst, translating
// oversized bodies to 413 and malformed JSON to 400. It returns false
// after writing the error response.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON body: %v", err)
		return false
	}
	return true
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	return true
}

// requireGet also admits HEAD: a resource supporting GET should
// support HEAD (RFC 9110), load balancers commonly probe /healthz
// with it, and net/http discards the body of HEAD responses itself.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return false
	}
	return true
}

// resolveModel routes a request's model name through the registry,
// writing the 404/503 itself on failure. The returned state is one
// (Inferencer, generation) publication loaded exactly once — callers
// must use it for the whole request so a concurrent hot reload cannot
// switch models (or cache keying) mid-request.
func (s *Server) resolveModel(w http.ResponseWriter, name string) (*ModelEntry, *modelState, bool) {
	entry, ok := s.reg.Lookup(name)
	if !ok {
		if name == "" {
			writeError(w, http.StatusServiceUnavailable, "no models loaded")
		} else {
			writeError(w, http.StatusNotFound, "unknown model %q", name)
		}
		return nil, nil, false
	}
	st := entry.snapshot()
	if st == nil || st.inf == nil {
		writeError(w, http.StatusServiceUnavailable, "model %q is not loaded", entry.Name())
		return nil, nil, false
	}
	return entry, st, true
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req inferRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tm := timingsFrom(r.Context())
	t := time.Now()
	entry, st, ok := s.resolveModel(w, req.Model)
	tm.resolve = time.Since(t)
	if !ok {
		return
	}
	tm.model = entry.Name()
	if st.inf.NumTopics() == 0 {
		// A mining-only model (no trained topic model) supports
		// /v1/segment but not inference.
		writeError(w, http.StatusServiceUnavailable,
			"model %q has no trained topic model", entry.Name())
		return
	}
	iters := s.opt.clampIters(req.Iters)
	switch {
	case req.Text != nil && req.Texts != nil:
		writeError(w, http.StatusBadRequest, `provide "text" or "texts", not both`)
	case req.Text != nil:
		tm.text, tm.iters = *req.Text, iters
		t = time.Now()
		raw := s.inferDoc(entry, st, *req.Text, iters)
		tm.infer = time.Since(t)
		t = time.Now()
		writeRawJSON(w, `{"result":`, "}\n", raw)
		tm.marshal = time.Since(t)
	case req.Texts != nil:
		if len(req.Texts) == 0 {
			writeError(w, http.StatusBadRequest, `"texts" must not be empty`)
			return
		}
		if len(req.Texts) > s.opt.MaxBatch {
			writeError(w, http.StatusBadRequest,
				"batch of %d exceeds limit %d", len(req.Texts), s.opt.MaxBatch)
			return
		}
		t = time.Now()
		raws := s.inferBatch(entry, st, req.Texts, iters)
		tm.infer = time.Since(t)
		t = time.Now()
		writeRawJSON(w, `{"results":[`, "]}\n", raws...)
		tm.marshal = time.Since(t)
	default:
		writeError(w, http.StatusBadRequest, `provide "text" or "texts"`)
	}
}

// inferDoc answers one document, through the exact response cache:
// the cache key pins the model content by (name, generation) from the
// request's single state snapshot — computing with st.inf and keying
// with st.gen can never mix two loads — and the cached value is the
// marshalled result JSON, so a hit is byte-for-byte the response a
// fresh computation would produce.
//
// Misses run through the flight group: concurrent identical misses —
// across requests or between items of one batch — share a single
// computation, so a stampede of N requests for one cold key costs one
// Gibbs inference, not N. Determinism makes the shared bytes exact.
func (s *Server) inferDoc(entry *ModelEntry, st *modelState, text string, iters int) json.RawMessage {
	key := cacheKey{model: entry.Name(), gen: st.gen, kind: kindInfer, iters: iters, text: text}
	if b, ok := s.cache.get(key); ok {
		return b
	}
	b, shared := s.flights.do(key, func() []byte {
		theta, tokens := s.infer(st, text, iters)
		b, err := json.Marshal(inferResult{Topics: theta, Best: topmine.BestTopic(theta), Tokens: tokens})
		if err != nil {
			// Marshalling a plain struct of floats/ints cannot fail.
			panic(err)
		}
		s.cache.put(key, b)
		return b
	})
	if shared {
		s.coalesced.Add(1)
	}
	return b
}

// inferBatch fans a batch out across the CPUs — the Inferencer is
// safe for concurrent use and each text's result is deterministic
// regardless of scheduling, so batch output matches the equivalent
// sequence of single-document requests (and shares cache entries with
// them). Extra workers are drawn from the server-wide slot pool: an
// idle server gives one batch near-linear speedup, while overlapping
// batches share the same bounded pool instead of multiplying
// goroutines. The request's own goroutine always participates, so
// progress never depends on slot availability.
func (s *Server) inferBatch(entry *ModelEntry, st *modelState, texts []string, iters int) []json.RawMessage {
	results := make([]json.RawMessage, len(texts))
	var next atomic.Int64
	// A panic on a spawned worker would crash the whole process (only
	// the request goroutine enjoys net/http's per-connection recovery),
	// so workers capture it and the request goroutine re-panics —
	// giving a batched request the same blast radius as a single one.
	// The value is boxed in a one-field struct pointer: atomic.Value
	// itself panics on stores of inconsistently typed values, which two
	// workers panicking with different types would otherwise trigger.
	type panicBox struct{ v any }
	var panicked atomic.Value
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(texts) {
				return
			}
			results[i] = s.inferDoc(entry, st, texts[i], iters)
		}
	}
	var wg sync.WaitGroup
	for extra := 0; extra < len(texts)-1; extra++ {
		select {
		case <-s.batchSlots:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { s.batchSlots <- struct{}{} }()
				defer func() {
					if p := recover(); p != nil {
						panicked.Store(&panicBox{p})
					}
				}()
				work()
			}()
			continue
		default:
		}
		break // pool exhausted: remaining items run on this goroutine
	}
	func() {
		// Deferred, so a panic on this goroutine too leaves no worker
		// behind still computing for a request that has already failed.
		defer wg.Wait()
		work()
	}()
	if p, ok := panicked.Load().(*panicBox); ok {
		panic(p.v)
	}
	return results
}

func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	var req segmentRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tm := timingsFrom(r.Context())
	t := time.Now()
	entry, st, ok := s.resolveModel(w, req.Model)
	tm.resolve = time.Since(t)
	if !ok {
		return
	}
	tm.model = entry.Name()
	tm.text = req.Text
	t = time.Now()
	b := s.segmentDoc(entry, st, req.Text)
	tm.infer = time.Since(t)
	t = time.Now()
	writeRawJSON(w, "", "\n", b)
	tm.marshal = time.Since(t)
}

// segmentDoc answers one segmentation through the cache and flight
// group, mirroring inferDoc (shared with WarmFromLog).
func (s *Server) segmentDoc(entry *ModelEntry, st *modelState, text string) json.RawMessage {
	key := cacheKey{model: entry.Name(), gen: st.gen, kind: kindSegment, text: text}
	if b, ok := s.cache.get(key); ok {
		return b
	}
	b, shared := s.flights.do(key, func() []byte {
		segs := st.inf.Segment(text)
		if segs == nil {
			segs = [][]string{}
		}
		b, err := json.Marshal(segmentResponse{Segments: segs})
		if err != nil {
			panic(err)
		}
		s.cache.put(key, b)
		return b
	})
	if shared {
		s.coalesced.Add(1)
	}
	return b
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	entry, st, ok := s.resolveModel(w, r.URL.Query().Get("model"))
	if !ok {
		return
	}
	resp := topicsResponse{
		Model:     entry.Name(),
		NumTopics: st.inf.NumTopics(),
		Topics:    []topicSummary{},
	}
	for _, t := range st.inf.Topics() {
		sum := topicSummary{Topic: t.Topic, Unigrams: t.Unigrams, Phrases: []topicPhrase{}}
		if sum.Unigrams == nil {
			sum.Unigrams = []string{}
		}
		for _, p := range t.Phrases {
			sum.Phrases = append(sum.Phrases, topicPhrase{Display: p.Display, TF: p.TF})
		}
		resp.Topics = append(resp.Topics, sum)
	}
	writeJSON(w, http.StatusOK, resp)
}

// modelInfo is one registry entry's public description.
type modelInfo struct {
	Name       string `json:"name"`
	Default    bool   `json:"default"`
	Path       string `json:"path,omitempty"`
	Ready      bool   `json:"ready"`
	Reloadable bool   `json:"reloadable"`
	Generation uint64 `json:"generation"`
	Reloads    uint64 `json:"reloads"`
	LoadedAt   string `json:"loaded_at"`
	// Topics is 0 for mining-only models: /v1/segment works, /v1/infer
	// answers 503.
	Topics    int    `json:"topics"`
	VocabSize int    `json:"vocab_size"`
	Phrases   int    `json:"phrases"`
	Seed      uint64 `json:"seed"`
}

type modelsResponse struct {
	Default string      `json:"default"`
	Models  []modelInfo `json:"models"`
}

func (s *Server) describeModel(e *ModelEntry) modelInfo {
	st := e.snapshot()
	info := modelInfo{
		Name:       e.Name(),
		Default:    e.Name() == s.reg.DefaultName(),
		Path:       e.Path(),
		Ready:      st != nil && st.inf != nil,
		Reloadable: e.loader != nil,
		Reloads:    e.Reloads(),
		LoadedAt:   e.LoadedAt().UTC().Format(time.RFC3339Nano),
	}
	if st != nil {
		info.Generation = st.gen
		if st.inf != nil {
			stats := st.inf.Stats()
			info.Topics = stats.Topics
			info.VocabSize = stats.VocabSize
			info.Phrases = stats.Phrases
			info.Seed = stats.Seed
		}
	}
	return info
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	resp := modelsResponse{Default: s.reg.DefaultName(), Models: []modelInfo{}}
	for _, name := range s.reg.Names() {
		e, ok := s.reg.Lookup(name)
		if !ok {
			continue
		}
		resp.Models = append(resp.Models, s.describeModel(e))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if s.opt.AdminToken != "" {
		// Compare SHA-256 digests in constant time: a plain string
		// compare leaks a byte-by-byte timing oracle, and hashing first
		// also masks the token length.
		got := sha256.Sum256([]byte(r.Header.Get("Authorization")))
		want := sha256.Sum256([]byte("Bearer " + s.opt.AdminToken))
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="topmined admin"`)
			writeError(w, http.StatusUnauthorized, "admin token required")
			return
		}
	}
	name := r.PathValue("name")
	e, ok := s.reg.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	if e.loader == nil {
		writeError(w, http.StatusConflict,
			"model %q was registered in-memory and has no reloadable source", e.Name())
		return
	}
	if err := s.reg.Reload(e.Name()); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.describeModel(e))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyResponse reports per-model readiness; Ready is the conjunction,
// and the HTTP status mirrors it (200 / 503) so load balancers can use
// /readyz without parsing the body.
type readyResponse struct {
	Ready  bool            `json:"ready"`
	Models map[string]bool `json:"models"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	resp := readyResponse{Ready: true, Models: map[string]bool{}}
	for _, name := range s.reg.Names() {
		e, ok := s.reg.Lookup(name)
		if !ok {
			continue
		}
		ready := e.Ready()
		resp.Models[name] = ready
		resp.Ready = resp.Ready && ready
	}
	if s.reg.Len() == 0 {
		resp.Ready = false
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
