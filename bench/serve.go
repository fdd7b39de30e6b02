package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"topmine/internal/serve"
)

const (
	reqHeader  = "X-Bench-Req"  // request number, shared by the client span and the handler span
	spanHeader = "X-Bench-Span" // client span id, the handler span's parent
	reloadPath = "/v1/models/default/reload"
)

type request struct {
	path string
	body []byte
}

func inferBody(text string) []byte {
	b, _ := json.Marshal(struct {
		Text  string `json:"text"`
		Iters int    `json:"iters"`
	}{text, inferIters})
	return b
}

func segmentBody(text string) []byte {
	b, _ := json.Marshal(struct {
		Text string `json:"text"`
	}{text})
	return b
}

// buildRequests makes the measured request sequence, a pure function of
// the seed: unique texts, or Zipf draws from a pool with a share of
// /v1/segment calls. No text repeats one in seen or, outside the pool's
// own draws, another.
func buildRequests(w workload, lang *language, n int, seen map[string]bool) []request {
	reqs := make([]request, n)
	if w.pool == 0 {
		for i, t := range lang.uniqueTexts(streamRequests, n, seen) {
			reqs[i] = request{"/v1/infer", inferBody(t)}
		}
		return reqs
	}
	pool := lang.uniqueTexts(streamRequests, w.pool, seen)
	infer := make([][]byte, w.pool)
	kind := rand.New(rand.NewPCG(lang.seed, streamKinds))
	for i, at := range zipfOrder(lang.seed, poolZipfS, w.pool, n) {
		if kind.Float64() < w.segmentShare {
			reqs[i] = request{"/v1/segment", segmentBody(pool[at])}
			continue
		}
		if infer[at] == nil {
			infer[at] = inferBody(pool[at])
		}
		reqs[i] = request{"/v1/infer", infer[at]}
	}
	return reqs
}

// tracedHandler is the benchmark's own span around the whole Server.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.Atoi(r.Header.Get(reqHeader))
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := h.tr.begin("serve.handler", parent, req)
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// client is the one closed-loop caller: one keep-alive connection, the
// next request sent when the previous reply has been read. Two clients
// plus the server oversubscribe a 2-vCPU box and made identical runs
// differ by 13% at the median.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  bytes.Buffer // the last reply's body
	k    int
	res  *phaseResult
	tr   *tracer
	root int
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// roundTrip is HTTP/1.1 keep-alive on the calling goroutine: write the
// request, read the reply into c.buf. net/http's client adds two
// goroutines per connection and their hand-offs to every request: 7%
// of titles-train's median over eight alternating runs, none of it the
// program's.
func (c *client) roundTrip(method, path string, body []byte, num, span int) (status int, err error) {
	fmt.Fprintf(c.bw, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", method, path, len(body))
	if span != 0 {
		fmt.Fprintf(c.bw, "%s: %d\r\n%s: %d\r\n", reqHeader, num, spanHeader, span)
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// do sends one request and returns its latency up to the last body
// byte. The reply is validated after the clock stops; a failed request
// is counted and returns ok=false so that it misses every latency
// figure.
func (c *client) do(rq request, num int) (lat time.Duration, ok bool) {
	c.res.Attempted++
	id := c.tr.begin("client"+rq.path, c.root, num)
	t0 := time.Now()
	status, err := c.roundTrip(http.MethodPost, rq.path, rq.body, num, id)
	lat = time.Since(t0)
	c.tr.end(id)
	switch {
	case err != nil:
		c.res.fail("request %d: %s: %v", num, rq.path, err)
	case status != http.StatusOK:
		c.res.fail("request %d: %s: status %d: %s", num, rq.path, status, bytes.TrimSpace(c.buf.Bytes()))
	default:
		if err = validReply(rq.path, c.buf.Bytes(), c.k); err != nil {
			c.res.fail("request %d: %s: %v", num, rq.path, err)
		}
	}
	return lat, err == nil && status == http.StatusOK
}

// validReply checks a 200 body: an inference is K values summing to 1,
// a segmentation is a list of segments.
func validReply(path string, body []byte, k int) error {
	switch path {
	case "/v1/infer":
		var r struct {
			Result *struct {
				Topics []float64 `json:"topics"`
			} `json:"result"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Result == nil || !validTheta(r.Result.Topics, k) {
			return fmt.Errorf("not a %d-topic mixture", k)
		}
	case "/v1/segment":
		var r struct {
			Segments [][]string `json:"segments"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Segments == nil {
			return errors.New("no segments")
		}
	}
	return nil
}

type cacheCounters struct{ hits, misses, evictions float64 }

// scrape reads the response cache's counters from /metrics.
func (c *client) scrape() (cacheCounters, error) {
	if status, err := c.roundTrip(http.MethodGet, "/metrics", nil, 0, 0); err != nil || status != http.StatusOK {
		return cacheCounters{}, fmt.Errorf("status %d: %v", status, err)
	}
	var cc cacheCounters
	sc := bufio.NewScanner(&c.buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		x, _ := strconv.ParseFloat(val, 64)
		switch name {
		case "topmined_cache_hits_total":
			cc.hits = x
		case "topmined_cache_misses_total":
			cc.misses = x
		case "topmined_cache_evictions_total":
			cc.evictions = x
		}
	}
	return cc, sc.Err()
}

// runServe is the serve child: `topmined`'s handler stack over the
// saved snapshot on a loopback port, and the one client beside it.
func runServe(w workload, seed uint64, seconds int, dir string, traced bool) (*phaseResult, *tracer) {
	// The one client and the server take turns, so a second P never does
	// work at the same time as the first: it only turns every hand-off
	// into a wake-up of the other vCPU, whose cost follows the host's
	// load. Six alternating runs of titles-par2's window read req_p50_ms
	// 0.46–0.73 ms on two Ps and 0.40–0.45 ms on one.
	runtime.GOMAXPROCS(1)
	res := newPhaseResult()
	tr := newTracer("serve", traced)
	v := res.Values
	lang := newLanguage(w.profile, seed)

	reg := serve.NewRegistry()
	if err := reg.AddSnapshotFile("default", snapshotPath(dir)); err != nil {
		res.fail("registering snapshot: %v", err)
		return res, tr
	}
	srv := serve.NewWithRegistry(reg, serve.Options{})
	var handler http.Handler = srv
	if traced {
		handler = tracedHandler{srv, tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.fail("listen: %v", err)
		return res, tr
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			res.fail("shutdown: %v", err)
		}
		<-served
	}()

	c, err := dial(ln.Addr().String())
	if err != nil {
		res.fail("dial: %v", err)
		return res, tr
	}
	defer c.conn.Close()
	c.k, c.res, c.tr = w.k, res, tr

	n, warm := w.requests(seconds), w.warmupReqs
	seen := make(map[string]bool)
	warmTexts := lang.uniqueTexts(streamWarmup, warm+w.batchCalls*batchSize, seen)
	reqs := buildRequests(w, lang, n, seen)
	for i, t := range warmTexts[:warm] {
		c.do(request{"/v1/infer", inferBody(t)}, -(i + 1))
	}
	if res.Failed > 0 {
		return res, tr
	}

	before, err := c.scrape()
	if err != nil {
		res.fail("scraping /metrics: %v", err)
		return res, tr
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	// The measured window: rateChunks equal runs of requests, each opened
	// by a hot reload on the workload that has them (the write beside the
	// reads: same client, in sequence).
	var inferLat []float64
	var firstReply []byte
	done, chunkLen := 0, max(n/rateChunks, 1)
	marks := make([]chunkMark, 0, rateChunks+1)
	c.root = tr.begin("serve-window", 0, 0)
	for i, rq := range reqs {
		if i%chunkLen == 0 && i+chunkLen <= n {
			marks = append(marks, chunkMark{time.Now(), done})
			if w.reloads {
				if _, ok := c.do(request{reloadPath, nil}, n+i); ok {
					done++
				}
			}
		}
		lat, ok := c.do(rq, i+1)
		if !ok {
			continue
		}
		done++
		if rq.path == "/v1/infer" {
			// /v1/segment and reload latencies stay in the trace only, so
			// that no percentile straddles two populations.
			inferLat = append(inferLat, ms(lat))
		}
		if i == 0 {
			firstReply = bytes.Clone(c.buf.Bytes())
		}
	}
	marks = append(marks, chunkMark{time.Now(), done})
	window := marks[len(marks)-1].at.Sub(marks[0].at)
	tr.end(c.root)
	runtime.ReadMemStats(&gc1)
	after, err := c.scrape()
	if err != nil {
		res.fail("scraping /metrics: %v", err)
		return res, tr
	}

	v["serve_window_s"] = window.Seconds()
	v["serve_rps"] = fastestChunk(marks)
	v["serve.window_rps"] = float64(done) / window.Seconds()
	v["req_p50_ms"] = quietest(inferLat, latencyBlock, 0.5)
	v["req_p95_ms"] = quietest(inferLat, latencyBlock, 0.95)
	v["serve.pooled_p50_ms"] = median(inferLat)
	v["serve.pooled_p99_ms"] = percentile(inferLat, 0.99)
	v["serve.requests"] = float64(done)
	v["serve.failed"] = float64(res.Failed)
	lookups := after.hits - before.hits + after.misses - before.misses
	v["serve.cache_hit_ratio"] = (after.hits - before.hits) / max(lookups, 1)
	v["serve.cache_evictions"] = after.evictions - before.evictions
	v["gc.serve_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	v["gc.serve_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	if w.pool == 0 && v["serve.cache_hit_ratio"] != 0 {
		res.fail("unique request texts hit the response cache (ratio %v)", v["serve.cache_hit_ratio"])
	}
	if w.pool > 0 && v["serve.cache_hit_ratio"] == 0 {
		res.fail("repeated request texts never hit the response cache")
	}

	// A repeated identical request returns identical bytes, whether it
	// is computed again (after a reload) or answered from the cache.
	for i := 0; i < 2; i++ {
		if _, ok := c.do(reqs[0], n+n+i); ok && !bytes.Equal(firstReply, c.buf.Bytes()) {
			res.fail("repeat %d of request 1 returned different bytes", i+1)
		}
	}

	if traced {
		transport(v, tr, n)
		fresh := func() *serve.Server { return serve.NewWithRegistry(reg, serve.Options{}) }
		handlerProbes(w.counts, fresh, reqs, warmTexts[warm:], v, res)
	}
	return res, tr
}

// chunkMark is the start of one chunk of the serving window: the time
// and how many operations had completed by then.
type chunkMark struct {
	at   time.Time
	done int
}

// fastestChunk returns the highest rate, in operations per second, that
// any chunk of the window reads: like quietest, the part of the window
// the machine's other tenants left alone. The last mark closes the last
// chunk.
func fastestChunk(marks []chunkMark) float64 {
	best := 0.0
	for i := 1; i < len(marks); i++ {
		best = max(best, float64(marks[i].done-marks[i-1].done)/marks[i].at.Sub(marks[i-1].at).Seconds())
	}
	return best
}

// transport reads client span − handler span per request: the HTTP and
// loopback cost that no layer of the program owns.
func transport(v map[string]float64, tr *tracer, n int) {
	handler := make(map[int]int64, n)
	for _, s := range tr.spans {
		if s.Name == "serve.handler" && s.Req > 0 && s.Req <= n {
			handler[s.Req] = s.End - s.Start
		}
	}
	var diff []float64
	for _, s := range tr.spans {
		if h, ok := handler[s.Req]; ok && strings.HasPrefix(s.Name, "client/") {
			diff = append(diff, float64(s.End-s.Start-h)/1e3)
		}
	}
	v["serve.transport_us_p50"] = median(diff)
}

// handlerProbes replays requests through Server.ServeHTTP with a
// recorder, no socket: the handler's own cost on the miss path, the hit
// path, /v1/segment, batched inference and a hot reload. Each probe
// gets a fresh Server, and with it an empty response cache.
func handlerProbes(c counts, fresh func() *serve.Server, reqs []request, batchTexts []string, v map[string]float64, res *phaseResult) {
	var distinct []request
	seen := make(map[string]bool)
	for _, rq := range reqs {
		if rq.path == "/v1/infer" && !seen[string(rq.body)] {
			seen[string(rq.body)] = true
			if distinct = append(distinct, rq); len(distinct) == c.probeCalls {
				break
			}
		}
	}
	call := func(s *serve.Server, rq request) float64 {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
		t0 := time.Now()
		s.ServeHTTP(rec, hr)
		d := time.Since(t0)
		res.Attempted++
		if rec.Code != http.StatusOK {
			res.fail("handler probe %s: status %d", rq.path, rec.Code)
		}
		return us(d)
	}
	pass := func(s *serve.Server, rqs []request) []float64 {
		out := make([]float64, len(rqs))
		for i, rq := range rqs {
			out[i] = call(s, rq)
		}
		return out
	}

	s := fresh()
	miss := pass(s, distinct)
	v["serve.handle_us_p50"] = median(miss)
	v["serve.handle_us_p99"] = percentile(miss, 0.99)
	v["serve.hit_us_p50"] = median(pass(s, distinct))

	segs := make([]request, len(distinct))
	for i, rq := range distinct {
		var body struct {
			Text string `json:"text"`
		}
		json.Unmarshal(rq.body, &body) // our own marshalling, cannot fail
		segs[i] = request{"/v1/segment", segmentBody(body.Text)}
	}
	v["serve.segment_us_p50"] = median(pass(fresh(), segs))

	s = fresh()
	var batchTime float64
	for i := 0; i < c.batchCalls; i++ {
		b, _ := json.Marshal(struct {
			Texts []string `json:"texts"`
			Iters int      `json:"iters"`
		}{batchTexts[i*batchSize : (i+1)*batchSize], inferIters})
		batchTime += call(s, request{"/v1/infer", b})
	}
	v["serve.batch_docs_per_s"] = float64(c.batchCalls*batchSize) / (batchTime / 1e6)

	var reloads []float64
	for i := 0; i < 3; i++ {
		reloads = append(reloads, call(s, request{reloadPath, nil})/1e3)
	}
	v["serve.reload_ms"] = median(reloads)
}
