package baselines

import (
	"math"
	"sort"

	"topmine/internal/corpus"
	"topmine/internal/counter"
)

// KERT implements the post-LDA pipeline of Danilevsky et al. (SDM
// 2014): run LDA, group each document's words by their sampled topic,
// mine frequent *itemsets* (unconstrained by word order or adjacency)
// from each topic's per-document word bags, and rank the patterns by
// the paper's four heuristics — coverage (popularity), purity,
// phraseness and completeness.
//
// The unconstrained mining is exactly what the ToPMine paper credits
// for KERT's strong phrase-intrusion scores and blames for both its
// weak phrase quality and its memory blow-up on long documents
// (§7.2, §7.4): the number of itemsets grows combinatorially with bag
// size. This reproduction preserves that behaviour (bag size is capped
// only by the document length).
type KERT struct {
	// MaxPatternLen bounds itemset size (default 4).
	MaxPatternLen int
	// CompletenessTau: a pattern is dropped when a superset reaches
	// this fraction of its support (default 0.8).
	CompletenessTau float64
}

// Name implements Method.
func (KERT) Name() string { return "KERT" }

// Run implements Method.
func (k KERT) Run(c *corpus.Corpus, opt Options) []TopicPhrases {
	opt.fill()
	maxLen := k.MaxPatternLen
	if maxLen <= 0 {
		maxLen = 4
	}
	tau := k.CompletenessTau
	if tau <= 0 {
		tau = 0.8
	}
	m, docs := runLDA(c, opt)

	// Per-topic transactions: the distinct words of doc d assigned k.
	transactions := make([][][]int32, opt.K)
	for d := range docs {
		perTopic := make(map[int8][]int32)
		seen := make(map[int64]bool)
		for g, w := range docs[d].Words { // unigram cliques: word g is clique g
			kk := int8(m.Z[d][g])
			key := int64(kk)*int64(m.V) + int64(w)
			if !seen[key] {
				seen[key] = true
				perTopic[kk] = append(perTopic[kk], w)
			}
		}
		for kk, bag := range perTopic {
			sort.Slice(bag, func(a, b int) bool { return bag[a] < bag[b] })
			transactions[kk] = append(transactions[kk], bag)
		}
	}

	out := make([]TopicPhrases, opt.K)
	for kk := 0; kk < opt.K; kk++ {
		out[kk] = k.mineTopic(c, m.TopUnigrams(kk, opt.TopPhrases, c), kk,
			transactions, opt, maxLen, tau)
	}
	return out
}

// mineTopic runs Apriori over one topic's transactions and ranks the
// frequent itemsets.
func (k KERT) mineTopic(c *corpus.Corpus, unigrams []string, topic int,
	transactions [][][]int32, opt Options, maxLen int, tau float64) TopicPhrases {

	txs := transactions[topic]
	tp := TopicPhrases{Topic: topic, Unigrams: unigrams}
	if len(txs) == 0 {
		return tp
	}
	minSup := int64(opt.MinSupport)

	// support[key] = number of transactions containing the itemset.
	support := make(map[string]int64)
	// Level 1.
	var frequent []string
	{
		cnt := make(map[int32]int64)
		for _, tx := range txs {
			for _, w := range tx {
				cnt[w]++
			}
		}
		for w, n := range cnt {
			if n >= minSup {
				key := counter.Key([]int32{w})
				support[key] = n
				frequent = append(frequent, key)
			}
		}
	}
	sort.Strings(frequent)
	prevLevel := frequent
	for size := 2; size <= maxLen && len(prevLevel) > 0; size++ {
		// Candidate generation by prefix join, then support counting by
		// transaction scan (itemsets are sorted id slices).
		cands := make(map[string]int64)
		prevSet := make(map[string]bool, len(prevLevel))
		for _, p := range prevLevel {
			prevSet[p] = true
		}
		for i := 0; i < len(prevLevel); i++ {
			a := counter.Unkey(prevLevel[i])
			for j := i + 1; j < len(prevLevel); j++ {
				b := counter.Unkey(prevLevel[j])
				if !samePrefix(a, b) {
					break // sorted: once prefixes diverge, stop
				}
				merged := make([]int32, len(a)+1)
				copy(merged, a)
				merged[len(a)] = b[len(b)-1]
				// All (size-1)-subsets must be frequent.
				if !allSubsetsFrequent(merged, prevSet) {
					continue
				}
				cands[counter.Key(merged)] = 0
			}
		}
		if len(cands) == 0 {
			break
		}
		for _, tx := range txs {
			countContained(tx, cands)
		}
		var level []string
		for key, n := range cands {
			if n >= minSup {
				support[key] = n
				level = append(level, key)
			}
		}
		sort.Strings(level)
		prevLevel = level
	}

	// Completeness filter: drop a pattern when a frequent superset
	// explains most of its support.
	complete := make(map[string]bool, len(support))
	for key := range support {
		complete[key] = true
	}
	for key, sup := range support {
		words := counter.Unkey(key)
		if len(words) == 1 {
			continue
		}
		for drop := 0; drop < len(words); drop++ {
			sub := make([]int32, 0, len(words)-1)
			sub = append(sub, words[:drop]...)
			sub = append(sub, words[drop+1:]...)
			subKey := counter.Key(sub)
			if subSup, ok := support[subKey]; ok && float64(sup)/float64(subSup) >= tau {
				complete[subKey] = false
			}
		}
	}

	// Ranking: coverage * purity * phraseness (geometric spirit of the
	// KERT scoring function), multi-word patterns only.
	nTx := float64(len(txs))
	total := 0.0
	wordFreq := make(map[int32]int64)
	for _, tx := range txs {
		total += float64(len(tx))
		for _, w := range tx {
			wordFreq[w]++
		}
	}
	type scored struct {
		key   string
		score float64
		sup   int64
	}
	var items []scored
	for key, sup := range support {
		words := counter.Unkey(key)
		if len(words) < 2 || !complete[key] {
			continue
		}
		coverage := float64(sup) / nTx
		// Phraseness: log p(P|k) - sum log p(w|k).
		logP := math.Log(coverage)
		for _, w := range words {
			logP -= math.Log(float64(wordFreq[w]) / nTx)
		}
		// Purity: support share inside this topic versus the corpus
		// document frequency of the full word set.
		df := corpusDocFreq(words, transactions)
		purity := float64(sup) / float64(df)
		score := coverage * purity * math.Max(logP, 1e-3)
		items = append(items, scored{key, score, sup})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].score != items[j].score {
			return items[i].score > items[j].score
		}
		return items[i].key < items[j].key
	})
	if len(items) > opt.TopPhrases {
		items = items[:opt.TopPhrases]
	}
	for _, it := range items {
		words := counter.Unkey(it.key)
		tp.Phrases = append(tp.Phrases, RankedPhrase{
			Words: words, Display: displayWords(c, words), Score: it.score,
		})
	}
	return tp
}

// samePrefix reports whether a and b agree on all but the last element.
func samePrefix(a, b []int32) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent checks the Apriori condition for a sorted itemset.
func allSubsetsFrequent(items []int32, prev map[string]bool) bool {
	sub := make([]int32, len(items)-1)
	for drop := 0; drop < len(items); drop++ {
		copy(sub, items[:drop])
		copy(sub[drop:], items[drop+1:])
		if !prev[counter.Key(sub)] {
			return false
		}
	}
	return true
}

// countContained increments every candidate contained in tx (both
// sorted).
func countContained(tx []int32, cands map[string]int64) {
	for key, n := range cands {
		items := counter.Unkey(key)
		if containsSorted(tx, items) {
			cands[key] = n + 1
		}
	}
}

func containsSorted(tx, items []int32) bool {
	i := 0
	for _, w := range tx {
		if i == len(items) {
			return true
		}
		if w == items[i] {
			i++
		}
	}
	return i == len(items)
}

// corpusDocFreq counts transactions across all topics containing the
// word set.
func corpusDocFreq(words []int32, transactions [][][]int32) int64 {
	var df int64
	for _, txs := range transactions {
		for _, tx := range txs {
			if containsSorted(tx, words) {
				df++
			}
		}
	}
	if df == 0 {
		df = 1
	}
	return df
}
