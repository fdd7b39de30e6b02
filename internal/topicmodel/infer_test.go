package topicmodel

import (
	"math"
	"testing"
)

// inferTheta folds one document into m through a fresh index, the way
// a serving layer would after loading m.
func inferTheta(m *Model, cliques [][]int32, iters int, seed uint64) []float64 {
	return NewInferIndex(m, 3).InferTheta(cliques, iters, seed, nil)
}

func TestInferThetaOnPlantedTopics(t *testing.T) {
	docs := twoTopicDocs(30, 30)
	m := Train(docs, 10, Options{K: 2, Alpha: 0.5, Iterations: 100, Seed: 71})
	// Identify which topic holds word 0 (topic-A vocabulary).
	topicA := 0
	if m.Nwk[0][1] > m.Nwk[0][0] {
		topicA = 1
	}
	thetaA := inferTheta(m, [][]int32{{0}, {1}, {2}, {3, 4}}, 40, 5)
	thetaB := inferTheta(m, [][]int32{{5}, {6}, {7}, {8, 9}}, 40, 5)
	if BestTopic(thetaA) != topicA {
		t.Fatalf("topic-A doc inferred %d (theta %v)", BestTopic(thetaA), thetaA)
	}
	if BestTopic(thetaB) == topicA {
		t.Fatalf("topic-B doc inferred topic A (theta %v)", thetaB)
	}
}

func TestInferThetaNormalised(t *testing.T) {
	docs := twoTopicDocs(5, 10)
	m := Train(docs, 10, Options{K: 3, Iterations: 20, Seed: 73})
	theta := inferTheta(m, [][]int32{{0, 1}}, 10, 1)
	var sum float64
	for _, v := range theta {
		if v < 0 {
			t.Fatalf("negative theta %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta sums to %v", sum)
	}
}

func TestInferThetaDoesNotMutateModel(t *testing.T) {
	docs := twoTopicDocs(5, 10)
	m := Train(docs, 10, Options{K: 2, Iterations: 20, Seed: 79})
	nkBefore := append([]int64(nil), m.Nk...)
	inferTheta(m, [][]int32{{0}, {5}}, 25, 2)
	for k := range nkBefore {
		if m.Nk[k] != nkBefore[k] {
			t.Fatal("inference mutated model counts")
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInferThetaEmptyDoc(t *testing.T) {
	docs := twoTopicDocs(5, 10)
	m := Train(docs, 10, Options{K: 2, Iterations: 10, Seed: 83})
	theta := inferTheta(m, nil, 10, 3)
	var sum float64
	for _, v := range theta {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("empty-doc theta sums to %v", sum)
	}
}

func TestBestTopic(t *testing.T) {
	if BestTopic([]float64{0.1, 0.7, 0.2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if BestTopic([]float64{0.5}) != 0 {
		t.Fatal("singleton wrong")
	}
}

func TestMergeReorderingsVisualize(t *testing.T) {
	// Plant two orderings of the same word pair in separate cliques;
	// with MergeReorderings the visualisation pools them.
	var docs []Doc
	for d := 0; d < 30; d++ {
		var cliques [][]int32
		if d%3 == 0 {
			cliques = append(cliques, []int32{1, 0}) // minority order
		} else {
			cliques = append(cliques, []int32{0, 1}) // majority order
		}
		cliques = append(cliques, []int32{2}, []int32{3})
		docs = append(docs, NewDoc(d, cliques...))
	}
	m := Train(docs, 4, Options{K: 1, Iterations: 10, Seed: 89})
	plain := m.Visualize(nil, VisualizeOptions{TopPhrases: 5})
	merged := m.Visualize(nil, VisualizeOptions{TopPhrases: 5, MergeReorderings: true})
	if len(plain[0].Phrases) != 2 {
		t.Fatalf("expected 2 distinct orderings unmerged, got %d", len(plain[0].Phrases))
	}
	if len(merged[0].Phrases) != 1 {
		t.Fatalf("expected 1 merged phrase, got %d", len(merged[0].Phrases))
	}
	p := merged[0].Phrases[0]
	if p.TF != 30 {
		t.Fatalf("merged TF = %d, want 30", p.TF)
	}
	if p.Words[0] != 0 || p.Words[1] != 1 {
		t.Fatalf("merged representative should be the majority order, got %v", p.Words)
	}
}
