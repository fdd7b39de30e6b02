package topicmodel

import "testing"

// TestBackgroundDFCriterion covers the asymmetric-prior failure mode:
// a ubiquitous phrase whose instances all collect in ONE topic evades
// the spread test but is caught by document frequency.
func TestBackgroundDFCriterion(t *testing.T) {
	var docs []Doc
	for d := 0; d < 40; d++ {
		// Ubiquitous phrase in every document.
		cliques := [][]int32{{8, 9}}
		if d%2 == 0 {
			cliques = append(cliques, []int32{0, 1}, []int32{2})
		} else {
			cliques = append(cliques, []int32{4, 5}, []int32{6})
		}
		docs = append(docs, NewDoc(d, cliques...))
	}
	m := Train(docs, 10, Options{K: 2, Alpha: 25, Iterations: 60, Seed: 111})
	// Force the scenario: reassign every {8,9} clique to topic 0 so the
	// spread criterion cannot fire.
	for d := range m.Docs {
		for g, clique := range cliquesOf(&m.Docs[d]) {
			if len(clique) == 2 && clique[0] == 8 {
				old := m.Z[d][g]
				m.addClique(d, clique, old, -1)
				m.Z[d][g] = 0
				m.addClique(d, clique, 0, 1)
			}
		}
	}
	// Spread-only: not background (concentrated in topic 0).
	spreadOnly := m.BackgroundPhrasesDF(nil, 0.5, 0, 10)
	for _, p := range spreadOnly {
		if p.Words[0] == 8 {
			t.Fatal("concentrated phrase flagged by spread criterion alone")
		}
	}
	// With DF criterion at 0.5 (phrase occurs in 100% of docs): caught.
	withDF := m.BackgroundPhrasesDF(nil, 0.5, 0.5, 10)
	found := false
	for _, p := range withDF {
		if len(p.Words) == 2 && p.Words[0] == 8 && p.Words[1] == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("DF criterion missed the ubiquitous phrase")
	}
	// The topical phrases {0,1}, {4,5} appear in 50% of docs each: must
	// NOT be flagged at maxDocFrac 0.5 (not strictly greater).
	for _, p := range withDF {
		if p.Words[0] == 0 || p.Words[0] == 4 {
			t.Fatalf("topical phrase wrongly flagged: %+v", p)
		}
	}
	// Visualize with the DF filter drops the ubiquitous phrase.
	sums := m.Visualize(nil, VisualizeOptions{
		TopPhrases: 10, FilterBackground: true,
		BackgroundMaxShare: 0.5, BackgroundMaxDocFrac: 0.5,
	})
	for _, s := range sums {
		for _, p := range s.Phrases {
			if len(p.Words) == 2 && p.Words[0] == 8 {
				t.Fatal("ubiquitous phrase survived the DF filter")
			}
		}
	}
}

// TestBackgroundDFDisabledByDefault ensures maxDocFrac = 0 keeps the
// pre-existing spread-only behaviour.
func TestBackgroundDFDisabledByDefault(t *testing.T) {
	docs := []Doc{NewDoc(0, []int32{0, 1})}
	m := Train(docs, 4, Options{K: 1, Iterations: 5, Seed: 1})
	// One doc, one phrase, fully concentrated: not background.
	sums := m.Visualize(nil, VisualizeOptions{TopPhrases: 5, FilterBackground: true})
	if len(sums[0].Phrases) != 1 {
		t.Fatal("spread-only filter dropped a concentrated phrase")
	}
}
