// Package topicmodel implements the paper's PhraseLDA — latent
// Dirichlet allocation constrained so that all tokens of one phrase
// (one clique of the chain graph, §5.2) share a topic — together with
// plain LDA as the special case of singleton cliques, a collapsed
// Gibbs sampler (Eq. 7), Minka fixed-point hyperparameter optimisation,
// held-out perplexity evaluation, topical-frequency phrase ranking
// (Eq. 8) and model serialisation.
package topicmodel

import (
	"slices"

	"topmine/internal/corpus"
	"topmine/internal/segment"
)

// Doc is one document prepared for topic modeling: an ordered list of
// cliques (phrase instances), each of whose tokens the sampler forces
// to share one topic. Singleton cliques reduce the model to plain LDA.
type Doc struct {
	ID int
	// Words holds the cliques' word ids back to back, in document
	// order. Clique g ends at offset Ends[g] and starts where clique
	// g-1 ends, the first at 0.
	Words, Ends []int32
}

// NewDoc builds a document from its cliques, copying their words.
func NewDoc(id int, cliques ...[]int32) Doc {
	d := Doc{ID: id, Ends: make([]int32, len(cliques))}
	for g, c := range cliques {
		d.Words = append(d.Words, c...)
		d.Ends[g] = int32(len(d.Words))
	}
	return d
}

// Clique returns the word ids of clique g, a view into Words.
func (d *Doc) Clique(g int) []int32 {
	lo := int32(0)
	if g > 0 {
		lo = d.Ends[g-1]
	}
	return d.Words[lo:d.Ends[g]:d.Ends[g]]
}

// NumCliques returns the number of cliques in the document.
func (d *Doc) NumCliques() int { return len(d.Ends) }

// NumTokens returns the token count of the document.
func (d *Doc) NumTokens() int { return len(d.Words) }

// EachOrigin calls fn with each clique's segment in src, the corpus
// document d was built from, and its span there. Cliques partition
// each segment in order, so the origins follow from the clique
// lengths. If d's cliques do not cut src's segments into d's tokens,
// EachOrigin calls fn for none and returns false.
func (d *Doc) EachOrigin(src *corpus.Document, fn func(g, seg int, sp segment.Span)) bool {
	for pass := range 2 { // the first pass only checks
		g, base := 0, int32(0) // next clique; offset of segment si in Words
		for si := range src.Segments {
			words := src.Segments[si].Words()
			end := base + int32(len(words))
			if int(end) > len(d.Words) || !slices.Equal(words, d.Words[base:end]) {
				return false
			}
			for lo := base; g < len(d.Ends) && lo < end; g++ {
				hi := d.Ends[g]
				if hi < lo || hi > end {
					return false
				}
				if pass == 1 {
					fn(g, si, segment.Span{Start: int(lo - base), End: int(hi - base)})
				}
				lo = hi
			}
			base = end
		}
		if g != len(d.Ends) || int(base) != len(d.Words) {
			return false
		}
	}
	return true
}

// flatDocs allocates n documents over corpus-wide token and clique-end
// arenas of the given capacities. add appends a clique to the document
// being built; next closes it with its ID.
func flatDocs(n, tokens, cliques int) (docs []Doc, add func(clique []int32), next func(id int)) {
	docs = make([]Doc, n)
	words := make([]int32, 0, tokens)
	ends := make([]int32, 0, cliques)
	w0, e0, d := 0, 0, 0
	add = func(clique []int32) {
		words = append(words, clique...)
		ends = append(ends, int32(len(words)-w0))
	}
	next = func(id int) {
		docs[d] = Doc{ID: id, Words: words[w0:len(words):len(words)], Ends: ends[e0:len(ends):len(ends)]}
		w0, e0, d = len(words), len(ends), d+1
	}
	return docs, add, next
}

// DocsFromSegmentation converts a segmented corpus into modeling
// documents whose cliques are the mined phrases — the 'bag of phrases'
// input to PhraseLDA. Order follows the corpus; documents with no
// tokens yield zero cliques but keep their slot. The documents are
// views into two arenas that hold copies of the tokens, so they stay
// valid after the corpus is closed.
func DocsFromSegmentation(c *corpus.Corpus, segs []*segment.SegmentedDoc) []Doc {
	tokens, cliques := 0, 0
	for _, sd := range segs {
		for _, spans := range sd.Spans {
			cliques += len(spans)
			for _, sp := range spans {
				tokens += sp.Len()
			}
		}
	}
	docs, add, next := flatDocs(len(segs), tokens, cliques)
	for _, sd := range segs {
		src := c.Docs[sd.DocID]
		for si, spans := range sd.Spans {
			words := src.Segments[si].Words()
			for _, sp := range spans {
				add(words[sp.Start:sp.End])
			}
		}
		next(sd.DocID)
	}
	return docs
}

// DocsUnigram converts a corpus into modeling documents where every
// token is its own singleton clique: plain LDA. ("LDA is a special
// case of PhraseLDA", §7.4.)
func DocsUnigram(c *corpus.Corpus) []Doc {
	tokens := 0
	for _, src := range c.Docs {
		tokens += src.Len()
	}
	docs, add, next := flatDocs(len(c.Docs), tokens, tokens)
	for _, src := range c.Docs {
		for si := range src.Segments {
			words := src.Segments[si].Words()
			for t := range words {
				add(words[t : t+1])
			}
		}
		next(src.ID)
	}
	return docs
}
