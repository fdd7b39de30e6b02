package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Native fuzz targets for the two request bodies the server decodes.
// Plain `go test` runs the seeds; CI runs each target for ten seconds:
//
//	go test -run '^$' -fuzz=FuzzInferBody -fuzztime=10s ./internal/serve

// fuzzServer is a small-limits server so one fuzz execution stays in
// the tens of microseconds.
func fuzzServer(f *testing.F) *Server {
	return newTestServer(f, Options{MaxBodyBytes: 512, MaxBatch: 4, DefaultIters: 3, MaxIters: 12})
}

// fuzzPost sends body and fails on any 5xx: a panic surfaces as 500
// through the recovery middleware, and the fixture's model is always
// loaded, so no input may produce one.
func fuzzPost(t *testing.T, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code >= 500 {
		t.Fatalf("POST %s %q: status %d: %s", path, body, w.Code, w.Body)
	}
	return w
}

// bodySeeds are the request bodies the example-based tests send, good
// and bad.
func bodySeeds(f *testing.F) {
	for _, seed := range []string{
		`{"text": "support vector machines for text classification", "iters": 5}`,
		`{"texts": ["query processing", "zzzzz qqqqq", ""]}`,
		`{"text": "a", "model": "default"}`,
		`{"text": "a", "model": "nope"}`,
		`{"document": "x"}`,
		`{"text": "a", "texts": ["b"]}`,
		`{"texts": []}`,
		`{"texts": ["a", "b", "c", "d", "e"]}`,
		`{"text": `,
		`{}`,
		``,
		`{"text": "` + strings.Repeat("padding ", 80) + `"}`,
		"{\"text\": \"caf\xe9 \xff\xfe vector\"}",
		`{"text": "machine learning", "iters": 9223372036854775807}`,
		`{"text": "machine learning", "iters": 1e40}`,
		`{"text": "machine learning", "iters": -3}`,
		`{"text": "support vector machines, support vector machines; neural networks"}`,
	} {
		f.Add([]byte(seed))
	}
}

func FuzzInferBody(f *testing.F) {
	s := fuzzServer(f)
	bodySeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := fuzzPost(t, s, "/v1/infer", body)
		if w.Code != http.StatusOK {
			return
		}
		var resp testInferResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with invalid JSON %q: %v", w.Body, err)
		}
		results := resp.Results
		if resp.Result != nil {
			results = append(results, *resp.Result)
		}
		if len(results) == 0 {
			t.Fatalf("200 without a result: %s", w.Body)
		}
		for _, r := range results {
			var sum float64
			for _, x := range r.Topics {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("non-finite θ in %s", w.Body)
				}
				sum += x
			}
			if len(r.Topics) != testK || math.Abs(sum-1) > 1e-6 {
				t.Fatalf("θ has %d values summing to %v: %s", len(r.Topics), sum, w.Body)
			}
		}
	})
}

func FuzzSegmentBody(f *testing.F) {
	s := fuzzServer(f)
	bodySeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := fuzzPost(t, s, "/v1/segment", body)
		if w.Code != http.StatusOK {
			return
		}
		var resp struct {
			Segments *[][]string `json:"segments"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Segments == nil {
			t.Fatalf("200 without a segments array %q: %v", w.Body, err)
		}
	})
}
