package topicmodel

import (
	"strings"
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
)

// trainedOnSynth runs the full pipeline (mine -> segment -> PhraseLDA)
// on a small synthetic corpus.
func trainedOnSynth(t *testing.T, docs int, iters int) (*Model, *corpus.Corpus) {
	t.Helper()
	spec := synth.TwentyConf()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: docs, Seed: 31}, corpus.DefaultBuildOptions())
	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: 5, MaxLen: 6})
	segs := segment.NewSegmenter(mined, segment.Options{Alpha: 4, MaxPhraseLen: 6, Workers: 1}).SegmentCorpus(c)
	mdocs := DocsFromSegmentation(c, segs)
	m := Train(mdocs, c.Vocab.Size(), Options{K: 5, Iterations: iters, Seed: 37})
	return m, c
}

func TestVisualizeShapes(t *testing.T) {
	m, c := trainedOnSynth(t, 400, 60)
	sums := m.Visualize(c, VisualizeOptions{TopUnigrams: 8, TopPhrases: 6})
	if len(sums) != m.K {
		t.Fatalf("summaries = %d, want %d", len(sums), m.K)
	}
	for _, s := range sums {
		if len(s.Unigrams) == 0 {
			t.Fatalf("topic %d has no unigrams", s.Topic)
		}
		if len(s.Unigrams) > 8 || len(s.Phrases) > 6 {
			t.Fatalf("topic %d exceeds limits", s.Topic)
		}
		for _, p := range s.Phrases {
			if len(p.Words) < 2 {
				t.Fatalf("unigram leaked into phrase list: %+v", p)
			}
			if p.TF <= 0 || p.Display == "" {
				t.Fatalf("bad phrase info: %+v", p)
			}
		}
	}
}

func TestVisualizeFindsPlantedPhrases(t *testing.T) {
	m, c := trainedOnSynth(t, 800, 80)
	sums := m.Visualize(c, VisualizeOptions{TopPhrases: 10})
	var all []string
	for _, s := range sums {
		for _, p := range s.Phrases {
			all = append(all, p.Display)
		}
	}
	joined := strings.Join(all, "|")
	// At least some of the planted signature phrases should surface in
	// the top-10 lists.
	hits := 0
	for _, want := range []string{"data mining", "information retrieval",
		"machine learning", "support vector", "language model", "query processing"} {
		if strings.Contains(joined, want) {
			hits++
		}
	}
	if hits < 3 {
		t.Fatalf("only %d planted phrases visible in topics; got %v", hits, all)
	}
}

func TestVisualizeTopicPhrasesShareTopic(t *testing.T) {
	// Phrases within one topic's list should co-occur with that topic's
	// unigrams more than with a random other topic's. Weak sanity: the
	// same display phrase should not dominate two different topics.
	m, c := trainedOnSynth(t, 400, 60)
	sums := m.Visualize(c, VisualizeOptions{TopPhrases: 5})
	seen := map[string]int{}
	for _, s := range sums {
		for i, p := range s.Phrases {
			if i == 0 {
				seen[p.Display]++
			}
		}
	}
	for d, n := range seen {
		if n > 1 {
			t.Fatalf("phrase %q is the #1 phrase of %d topics", d, n)
		}
	}
}

func TestTopUnigramsOrdering(t *testing.T) {
	docs := twoTopicDocs(10, 20)
	m := Train(docs, 10, Options{K: 2, Iterations: 30, Seed: 41})
	top := m.TopUnigrams(0, 5, nil)
	if len(top) == 0 {
		t.Fatal("no unigrams")
	}
	// Without a corpus the rendering is opaque ids.
	if !strings.HasPrefix(top[0], "w") {
		t.Fatalf("expected opaque id rendering, got %q", top[0])
	}
}

func TestBackgroundFilter(t *testing.T) {
	// Build docs where phrase {0,1} concentrates in one topic and
	// phrase {2,3} spreads across all: with per-doc single topics, give
	// every doc the spread phrase.
	var docs []Doc
	for d := 0; d < 40; d++ {
		cliques := [][]int32{{2, 3}} // background
		if d%2 == 0 {
			cliques = append(cliques, []int32{0, 1}, []int32{4}, []int32{5})
		} else {
			cliques = append(cliques, []int32{6, 7}, []int32{8}, []int32{9})
		}
		docs = append(docs, NewDoc(d, cliques...))
	}
	// A sparse alpha keeps each document on its planted topic so the
	// ubiquitous phrase's instances split across topics.
	m := Train(docs, 10, Options{K: 2, Alpha: 0.1, Iterations: 60, Seed: 43})
	bg := m.BackgroundPhrases(nil, 0.75, 10)
	found := false
	for _, p := range bg {
		if len(p.Words) == 2 && p.Words[0] == 2 && p.Words[1] == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("background phrase {2,3} not detected: %+v", bg)
	}
	// With filtering on, {2,3} should vanish from topic lists while the
	// concentrated phrases remain.
	sums := m.Visualize(nil, VisualizeOptions{TopPhrases: 10, FilterBackground: true, BackgroundMaxShare: 0.75})
	for _, s := range sums {
		for _, p := range s.Phrases {
			if len(p.Words) == 2 && p.Words[0] == 2 && p.Words[1] == 3 {
				t.Fatal("background phrase survived filtering")
			}
		}
	}
}

func TestFormatTopics(t *testing.T) {
	m, c := trainedOnSynth(t, 200, 30)
	out := FormatTopics(m.Visualize(c, VisualizeOptions{}))
	if !strings.Contains(out, "Topic 0") || !strings.Contains(out, "unigrams:") {
		t.Fatalf("unexpected format:\n%s", out)
	}
}
