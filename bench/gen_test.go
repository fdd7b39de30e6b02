package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"topmine"
)

// inputsHash fingerprints everything a run feeds the program: the
// corpus and the request sequence.
func inputsHash(t *testing.T, w workload, seed uint64) string {
	t.Helper()
	h := sha256.New()
	lang := newLanguage(w.profile, seed)
	if _, err := lang.writeCorpus(h, w.docs); err != nil {
		t.Fatal(err)
	}
	for _, rq := range buildRequests(w, lang, w.requests(1), map[string]bool{}) {
		fmt.Fprintf(h, "%s %s\n", rq.path, rq.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.smoke()
		a, b, c := inputsHash(t, w, 1), inputsHash(t, w, 1), inputsHash(t, w, 2)
		if a != b {
			t.Errorf("%s: seed 1 generated two different inputs", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

func TestVocabularySurvivesStemming(t *testing.T) {
	for _, p := range []profile{titles, abstracts, reviews} {
		lang := newLanguage(p, 1)
		c := topmine.BuildCorpus([]string{strings.Join(lang.words, " ")}, topmine.DefaultCorpusOptions())
		got := c.Vocab.Size()
		if diff := float64(got-p.vocab) / float64(p.vocab); diff < -0.01 || diff > 0.01 {
			t.Errorf("%s: %d stems from a requested vocabulary of %d", p.name, got, p.vocab)
		}
	}
}

func TestPlantedPhrasesReachMinSupport(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		key := fmt.Sprint(w.profile.name, w.docs)
		if seen[key] {
			continue
		}
		seen[key] = true
		occ, err := newLanguage(w.profile, 1).writeCorpus(io.Discard, w.docs)
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range occ {
			if n < w.options().MinSupport {
				t.Fatalf("%s: planted phrase %d occurs %d times, below MinSupport %d", w.name, id, n, w.options().MinSupport)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
