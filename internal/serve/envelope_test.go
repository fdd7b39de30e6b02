package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// inferResponse is the envelope as encoding/json defines it — the
// value handleInfer used to hand to json.Encoder, kept as the oracle
// for the hand-written one.
type inferResponse struct {
	Result  json.RawMessage   `json:"result,omitempty"`
	Results []json.RawMessage `json:"results,omitempty"`
}

// TestInferEnvelopeMatchesEncoder: the hand-written /v1/infer envelope
// is byte-for-byte what json.Encoder produces for the same
// pre-marshalled documents — for a single result, a batch of 1 and a
// batch of 16, on the miss that fills the cache and on the hit after.
func TestInferEnvelopeMatchesEncoder(t *testing.T) {
	s := newTestServer(t, Options{})
	entry, _ := s.reg.Lookup("")
	st := entry.snapshot()
	const iters = 10
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = fmt.Sprintf("support vector machines %d, query processing in database systems", i)
	}
	post := func(req inferRequest) []byte {
		t.Helper()
		req.Iters = iters
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, s, http.MethodPost, "/v1/infer", string(body), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	for _, tc := range []struct {
		name string
		req  inferRequest
	}{
		{"single", inferRequest{Text: &texts[0]}},
		{"batch of 1", inferRequest{Texts: texts[1:2]}},
		{"batch of 16", inferRequest{Texts: texts}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := s.cache.stats()
			miss := post(tc.req)
			mid := s.cache.stats()
			hit := post(tc.req)
			after := s.cache.stats()
			if mid.Misses == before.Misses || after.Misses != mid.Misses || after.Hits == mid.Hits {
				t.Fatalf("cache stats %+v → %+v → %+v: not a miss followed by pure hits", before, mid, after)
			}
			var want inferResponse
			if tc.req.Text != nil {
				want.Result = s.inferDoc(entry, st, *tc.req.Text, iters)
			}
			for _, text := range tc.req.Texts {
				want.Results = append(want.Results, s.inferDoc(entry, st, text, iters))
			}
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(miss, enc.Bytes()) {
				t.Errorf("miss response differs from json.Encoder's:\n%s\n%s", miss, enc.Bytes())
			}
			if !bytes.Equal(hit, enc.Bytes()) {
				t.Errorf("hit response differs from json.Encoder's:\n%s\n%s", hit, enc.Bytes())
			}
		})
	}
}
