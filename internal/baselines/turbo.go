package baselines

import (
	"math"
	"sort"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/segment"
	"topmine/internal/xrand"
)

// TurboTopics implements the post-LDA phrase discovery of Blei &
// Lafferty ("Visualizing topics with multi-word expressions", 2009):
// for each topic, repeatedly grow multi-word units by testing whether
// an adjacent pair of units co-occurs more often than a back-off
// unigram model predicts, using a likelihood-ratio (G²) statistic whose
// critical value is estimated with a permutation test.
//
// The permutation test — re-scoring shuffled copies of the topic's
// token stream each round — is what makes the method orders of
// magnitude slower than LDA itself, the behaviour Table 3 of the
// ToPMine paper reports (">10 days" on medium corpora). This
// reproduction keeps that cost profile at reduced scale.
type TurboTopics struct {
	// Permutations per round (default 5).
	Permutations int
	// MaxRounds of merging (default 4, allowing phrases up to ~2^4
	// tokens in principle; in practice growth stops much earlier).
	MaxRounds int
}

// Name implements Method.
func (TurboTopics) Name() string { return "Turbo" }

// Run implements Method.
func (t TurboTopics) Run(c *corpus.Corpus, opt Options) []TopicPhrases {
	opt.fill()
	perms := t.Permutations
	if perms <= 0 {
		perms = 5
	}
	rounds := t.MaxRounds
	if rounds <= 0 {
		rounds = 4
	}
	m, docs := runLDA(c, opt)
	rng := xrand.New(opt.Seed + 1)

	// Build each topic's token stream: tokens assigned to the topic, in
	// reading order, with breaks (-1) wherever adjacency is interrupted
	// by a segment boundary, a document boundary, or a token of another
	// topic. Adjacency is tracked with a global position counter so the
	// construction is O(N).
	streams := make([][]int32, opt.K)
	lastPos := make([]int64, opt.K)
	for k := range lastPos {
		lastPos[k] = -10
	}
	var pos int64
	for d := range docs {
		pos += 2 // document boundary breaks adjacency
		docs[d].EachOrigin(c.Docs[d], func(g, _ int, sp segment.Span) {
			if sp.Start == 0 {
				pos += 2 // segment boundary breaks adjacency
			}
			w, k := docs[d].Clique(g)[0], m.Z[d][g]
			if lastPos[k] != pos-1 && len(streams[k]) > 0 {
				streams[k] = append(streams[k], -1)
			}
			streams[k] = append(streams[k], w)
			lastPos[k] = pos
			pos++
		})
	}

	out := make([]TopicPhrases, opt.K)
	for k := 0; k < opt.K; k++ {
		units := t.growUnits(streams[k], perms, rounds, int64(opt.MinSupport), rng)
		tp := TopicPhrases{Topic: k, Unigrams: m.TopUnigrams(k, opt.TopPhrases, c)}
		type kv struct {
			words []int32
			n     int64
		}
		var items []kv
		for key, n := range units {
			words := counter.Unkey(key)
			if len(words) >= 2 {
				items = append(items, kv{words, n})
			}
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].n != items[j].n {
				return items[i].n > items[j].n
			}
			return counter.Key(items[i].words) < counter.Key(items[j].words)
		})
		if len(items) > opt.TopPhrases {
			items = items[:opt.TopPhrases]
		}
		for _, it := range items {
			tp.Phrases = append(tp.Phrases, RankedPhrase{
				Words: it.words, Display: displayWords(c, it.words), Score: float64(it.n),
			})
		}
		out[k] = tp
	}
	return out
}

// unit is a grown multi-word expression identified by an id >= V.
type unitTable struct {
	next  int32
	words map[int32][]int32 // unit id -> constituent word ids
}

func (u *unitTable) wordsOf(id int32) []int32 {
	if w, ok := u.words[id]; ok {
		return w
	}
	return []int32{id}
}

// growUnits runs the merge rounds on one topic stream and returns
// counts keyed by the constituent-word key of every surviving unit.
func (t TurboTopics) growUnits(stream []int32, perms, rounds int, minSup int64, rng *xrand.RNG) map[string]int64 {
	if len(stream) == 0 {
		return nil
	}
	units := &unitTable{next: 1 << 24, words: make(map[int32][]int32)}
	cur := append([]int32(nil), stream...)

	for round := 0; round < rounds; round++ {
		real := pairG2(cur, minSup)
		if len(real) == 0 {
			break
		}
		// Permutation null: the maximum G² observed on shuffled streams
		// (shuffling within the whole stream, breaks kept in place).
		crit := 0.0
		shuffled := append([]int32(nil), cur...)
		for p := 0; p < perms; p++ {
			permuteTokens(shuffled, rng)
			for _, g := range pairG2(shuffled, minSup) {
				if g.g2 > crit {
					crit = g.g2
				}
			}
		}
		// Merge all significantly-associated pairs, most significant
		// first, consuming tokens greedily left to right.
		sort.Slice(real, func(i, j int) bool {
			if real[i].g2 != real[j].g2 {
				return real[i].g2 > real[j].g2
			}
			if real[i].a != real[j].a {
				return real[i].a < real[j].a
			}
			return real[i].b < real[j].b
		})
		accepted := make(map[int64]int32)
		merged := false
		for _, pr := range real {
			if pr.g2 <= crit {
				break
			}
			id := units.next
			units.next++
			w := append(append([]int32{}, units.wordsOf(pr.a)...), units.wordsOf(pr.b)...)
			units.words[id] = w
			accepted[pairKey(pr.a, pr.b)] = id
			merged = true
		}
		if !merged {
			break
		}
		cur = rewrite(cur, accepted)
	}

	counts := make(map[string]int64)
	for _, tok := range cur {
		if tok < 0 {
			continue
		}
		words := units.wordsOf(tok)
		counts[counter.Key(words)]++
	}
	for key, n := range counts {
		if n < minSup {
			delete(counts, key)
		}
	}
	return counts
}

type pairStat struct {
	a, b int32
	g2   float64
}

func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

// pairG2 computes the likelihood-ratio statistic of each adjacent pair
// against a back-off unigram null: G² = 2·n_ab·log(n_ab·N / (n_a·n_b)),
// the dominant term of the full LR for n_ab ≫ expected.
func pairG2(stream []int32, minSup int64) []pairStat {
	uni := make(map[int32]int64)
	pairs := make(map[int64]int64)
	var n int64
	for i, tok := range stream {
		if tok < 0 {
			continue
		}
		uni[tok]++
		n++
		if i+1 < len(stream) && stream[i+1] >= 0 {
			pairs[pairKey(tok, stream[i+1])]++
		}
	}
	if n == 0 {
		return nil
	}
	var out []pairStat
	for key, nab := range pairs {
		if nab < minSup {
			continue
		}
		a := int32(key >> 32)
		b := int32(uint32(key))
		expected := float64(uni[a]) * float64(uni[b]) / float64(n)
		if float64(nab) <= expected {
			continue
		}
		g2 := 2 * float64(nab) * math.Log(float64(nab)/expected)
		out = append(out, pairStat{a, b, g2})
	}
	return out
}

// permuteTokens shuffles the non-break tokens of stream in place,
// leaving break markers where they are.
func permuteTokens(stream []int32, rng *xrand.RNG) {
	idx := make([]int, 0, len(stream))
	for i, tok := range stream {
		if tok >= 0 {
			idx = append(idx, i)
		}
	}
	rng.Shuffle(len(idx), func(i, j int) {
		stream[idx[i]], stream[idx[j]] = stream[idx[j]], stream[idx[i]]
	})
}

// rewrite replaces accepted adjacent pairs with their unit ids, left to
// right, longest-standing significance first (accepted map decides).
func rewrite(stream []int32, accepted map[int64]int32) []int32 {
	out := stream[:0]
	i := 0
	for i < len(stream) {
		tok := stream[i]
		if tok >= 0 && i+1 < len(stream) && stream[i+1] >= 0 {
			if id, ok := accepted[pairKey(tok, stream[i+1])]; ok {
				out = append(out, id)
				i += 2
				continue
			}
		}
		out = append(out, tok)
		i++
	}
	return out
}
