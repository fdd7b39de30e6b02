package topicmodel

import (
	"fmt"
	"sort"
	"strings"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/segment"
)

// PhraseInfo is one ranked phrase in a topic visualisation.
type PhraseInfo struct {
	Words   []int32
	Display string
	// TF is the topical frequency of Eq. 8: the number of phrase
	// instances assigned to the topic at the final Gibbs state.
	TF int
}

// TopicSummary is the paper's visualisation unit (Tables 1, 4-6): the
// most probable unigrams of a topic above its highest-TF phrases.
type TopicSummary struct {
	Topic    int
	Unigrams []string
	Phrases  []PhraseInfo
}

// VisualizeOptions controls topic rendering.
type VisualizeOptions struct {
	// TopUnigrams and TopPhrases bound list lengths (defaults 10).
	TopUnigrams int
	TopPhrases  int
	// MinPhraseLen filters the phrase list (default 2: multi-word only,
	// as in the paper's n-gram rows).
	MinPhraseLen int
	// FilterBackground drops background phrases ("paper we propose"),
	// the §8 future-work item, using two complementary signals: the
	// phrase's topical frequency is spread thinly across topics
	// (max-topic share below BackgroundMaxShare — the symmetric-prior
	// signature), or the phrase occurs in more than BackgroundMaxDocFrac
	// of all documents (the signature under an optimised asymmetric
	// prior, where background mass collects in one dedicated topic).
	FilterBackground   bool
	BackgroundMaxShare float64 // default 0.5
	// BackgroundMaxDocFrac enables the document-frequency criterion
	// when positive (e.g. 0.25); zero disables it.
	BackgroundMaxDocFrac float64
	// MergeReorderings ties phrases that are word-order variants of one
	// another ("pattern mining frequent" / "frequent pattern mining"),
	// pooling their topical frequency under the variant realised most
	// often — the §8 future-work item on tying similar phrases for
	// better recall.
	MergeReorderings bool
}

func (o *VisualizeOptions) fill() {
	if o.TopUnigrams <= 0 {
		o.TopUnigrams = 10
	}
	if o.TopPhrases <= 0 {
		o.TopPhrases = 10
	}
	if o.MinPhraseLen <= 0 {
		o.MinPhraseLen = 2
	}
	if o.BackgroundMaxShare <= 0 {
		o.BackgroundMaxShare = 0.5
	}
}

// tfEntry aggregates one phrase across the corpus.
type tfEntry struct {
	words    []int32
	perTopic []int32
	displays map[string]int
	df       int32 // documents containing at least one instance
	lastDoc  int32 // internal: last document counted toward df
}

// topicalFrequencies walks the final assignment state and aggregates
// TF(phrase, k) plus display-form votes for every clique.
func (m *Model) topicalFrequencies(c *corpus.Corpus, minLen int) map[string]*tfEntry {
	agg := make(map[string]*tfEntry)
	for d := range m.Docs {
		doc := &m.Docs[d]
		// tally counts clique g and returns its entry, nil when short.
		tally := func(g int) *tfEntry {
			clique := doc.Clique(g)
			if len(clique) < minLen {
				return nil
			}
			key := counter.Key(clique)
			e := agg[key]
			if e == nil {
				e = &tfEntry{
					words:    clique,
					perTopic: make([]int32, m.K),
					displays: make(map[string]int, 1),
					lastDoc:  -1,
				}
				agg[key] = e
			}
			e.perTopic[m.Z[d][g]]++
			if e.lastDoc != int32(d) {
				e.lastDoc = int32(d)
				e.df++
			}
			return e
		}
		// Display votes need the clique's span in its corpus document.
		var src *corpus.Document
		if c != nil && doc.ID < len(c.Docs) {
			src = c.Docs[doc.ID]
		}
		if src != nil && doc.EachOrigin(src, func(g, seg int, sp segment.Span) {
			if e := tally(g); e != nil {
				e.displays[c.DisplayPhrase(&src.Segments[seg], sp.Start, sp.End)]++
			}
		}) {
			continue
		}
		for g := range doc.NumCliques() {
			tally(g)
		}
	}
	return agg
}

// bestDisplay returns the majority display form, ties broken
// lexicographically; falls back to un-stemmed words.
func bestDisplay(e *tfEntry, c *corpus.Corpus) string {
	best, bestN := "", -1
	for s, n := range e.displays {
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	if best != "" {
		return best
	}
	if c != nil {
		return c.DisplayWords(e.words)
	}
	parts := make([]string, len(e.words))
	for i, w := range e.words {
		parts[i] = fmt.Sprintf("w%d", w)
	}
	return strings.Join(parts, " ")
}

// isBackground reports whether the phrase looks like corpus-wide
// background: topical mass spread below the max-share threshold, or
// document frequency above maxDocFrac (when enabled) of numDocs.
func isBackground(e *tfEntry, maxShare, maxDocFrac float64, numDocs int) bool {
	var total, max int32
	for _, v := range e.perTopic {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return true
	}
	if float64(max)/float64(total) < maxShare {
		return true
	}
	if maxDocFrac > 0 && numDocs > 0 &&
		float64(e.df)/float64(numDocs) > maxDocFrac {
		return true
	}
	return false
}

// mergeReorderings pools entries whose word multisets match, keeping
// the most frequent realised order as the representative.
func mergeReorderings(agg map[string]*tfEntry) map[string]*tfEntry {
	canonical := func(words []int32) string {
		s := append([]int32(nil), words...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return counter.Key(s)
	}
	total := func(e *tfEntry) int64 {
		var t int64
		for _, v := range e.perTopic {
			t += int64(v)
		}
		return t
	}
	groups := make(map[string]*tfEntry)
	for _, e := range agg {
		key := canonical(e.words)
		g := groups[key]
		if g == nil {
			groups[key] = e
			continue
		}
		// Pool counts and displays; keep the heavier variant's order
		// (ties: lexicographically smaller key, for determinism).
		if total(e) > total(g) ||
			(total(e) == total(g) && counter.Key(e.words) < counter.Key(g.words)) {
			g.words = e.words
		}
		for k := range g.perTopic {
			g.perTopic[k] += e.perTopic[k]
		}
		for s, n := range e.displays {
			g.displays[s] += n
		}
		g.df += e.df // approximate: variants may share documents
	}
	out := make(map[string]*tfEntry, len(groups))
	for _, g := range groups {
		out[counter.Key(g.words)] = g
	}
	return out
}

// Visualize renders every topic as ranked unigrams plus ranked phrases
// (topical frequency, Eq. 8). The corpus may be nil, in which case
// word ids are rendered opaquely.
func (m *Model) Visualize(c *corpus.Corpus, opt VisualizeOptions) []TopicSummary {
	opt.fill()
	agg := m.topicalFrequencies(c, opt.MinPhraseLen)
	if opt.MergeReorderings {
		agg = mergeReorderings(agg)
	}

	out := make([]TopicSummary, m.K)
	type scored struct {
		e  *tfEntry
		tf int32
	}
	perTopic := make([][]scored, m.K)
	for _, e := range agg {
		if opt.FilterBackground &&
			isBackground(e, opt.BackgroundMaxShare, opt.BackgroundMaxDocFrac, len(m.Docs)) {
			continue
		}
		for k := 0; k < m.K; k++ {
			if e.perTopic[k] > 0 {
				perTopic[k] = append(perTopic[k], scored{e, e.perTopic[k]})
			}
		}
	}
	for k := 0; k < m.K; k++ {
		s := perTopic[k]
		sort.Slice(s, func(i, j int) bool {
			if s[i].tf != s[j].tf {
				return s[i].tf > s[j].tf
			}
			return counter.Key(s[i].e.words) < counter.Key(s[j].e.words)
		})
		n := opt.TopPhrases
		if n > len(s) {
			n = len(s)
		}
		sum := TopicSummary{Topic: k, Unigrams: m.TopUnigrams(k, opt.TopUnigrams, c)}
		for _, sc := range s[:n] {
			sum.Phrases = append(sum.Phrases, PhraseInfo{
				Words:   sc.e.words,
				Display: bestDisplay(sc.e, c),
				TF:      int(sc.tf),
			})
		}
		out[k] = sum
	}
	return out
}

// TopUnigrams returns topic k's n most probable words, un-stemmed for
// display when a corpus is supplied.
func (m *Model) TopUnigrams(k, n int, c *corpus.Corpus) []string {
	m.Materialize()
	type wc struct {
		w int32
		n int32
	}
	all := make([]wc, 0, 64)
	for w := 0; w < m.V; w++ {
		if cnt := m.nwkRow(int32(w))[k]; cnt > 0 {
			all = append(all, wc{int32(w), cnt})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].w < all[j].w
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		if c != nil {
			out[i] = c.Vocab.Unstem(all[i].w)
		} else {
			out[i] = fmt.Sprintf("w%d", all[i].w)
		}
	}
	return out
}

// BackgroundPhrases returns the phrases the background filter would
// remove, ranked by total frequency — useful for inspecting what §8's
// principled filtering catches. Pass maxDocFrac <= 0 to use the
// topical-spread criterion alone.
func (m *Model) BackgroundPhrases(c *corpus.Corpus, maxShare float64, limit int) []PhraseInfo {
	return m.BackgroundPhrasesDF(c, maxShare, 0, limit)
}

// BackgroundPhrasesDF is BackgroundPhrases with the document-frequency
// criterion enabled at maxDocFrac.
func (m *Model) BackgroundPhrasesDF(c *corpus.Corpus, maxShare, maxDocFrac float64, limit int) []PhraseInfo {
	if maxShare <= 0 {
		maxShare = 0.5
	}
	agg := m.topicalFrequencies(c, 2)
	var out []PhraseInfo
	for _, e := range agg {
		if !isBackground(e, maxShare, maxDocFrac, len(m.Docs)) {
			continue
		}
		total := 0
		for _, v := range e.perTopic {
			total += int(v)
		}
		out = append(out, PhraseInfo{Words: e.words, Display: bestDisplay(e, c), TF: total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TF != out[j].TF {
			return out[i].TF > out[j].TF
		}
		return out[i].Display < out[j].Display
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// FormatTopics renders summaries as an aligned text table, one column
// per topic, mirroring the layout of Tables 4-6.
func FormatTopics(summaries []TopicSummary) string {
	var b strings.Builder
	for _, s := range summaries {
		fmt.Fprintf(&b, "Topic %d\n", s.Topic)
		b.WriteString("  unigrams: ")
		b.WriteString(strings.Join(s.Unigrams, ", "))
		b.WriteString("\n  phrases:\n")
		for _, p := range s.Phrases {
			fmt.Fprintf(&b, "    %-40s tf=%d\n", p.Display, p.TF)
		}
	}
	return b.String()
}
