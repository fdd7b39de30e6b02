package main

import (
	"bufio"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
)

// profile shapes one synthetic text genre. The generator exists so the
// benchmark measures vocabularies in the 10^4–10^5 range of the
// paper's corpora: the repo's internal/synth domains have V≈300, which
// makes every word-topic row dense and hides sparsity, snapshot-size
// and phrase-table costs.
type profile struct {
	name    string
	vocab   int // distinct content words
	topics  int // planted topics
	meanLen int // raw tokens per document, stop words included
	devLen  int // uniform ± around meanLen
}

var (
	titles    = profile{"titles", 30000, 30, 9, 3}
	abstracts = profile{"abstracts", 50000, 25, 150, 40}
	reviews   = profile{"reviews", 20000, 20, 60, 20}
)

const (
	phrasesPerTopic = 40   // planted collocations per topic
	phraseSlotShare = 0.12 // share of content slots that emit a collocation
	stopShare       = 0.25 // share of raw tokens that are stop words
	backgroundShare = 0.25 // share of single-word content slots drawn from the shared slice
	secondTopicProb = 0.3  // documents that mix in a second topic
	zipfS           = 1.05 // exponent of every word-rank distribution
	phraseMinRank   = 20   // collocation words avoid the head of a topic's slice
)

// RNG streams: each generated artefact draws from its own PCG stream of
// the one -seed, so changing how many documents are generated never
// shifts the request texts or their order.
const (
	streamVocab = iota + 1
	streamPhrases
	streamDocs
	streamRequests
	streamOrder
	streamKinds
	streamProbes
	streamWarmup
)

// Pseudo-words are three consonant-vowel syllables plus a final
// consonant from a set no Porter rule strips (every Porter suffix ends
// in one of e,s,d,g,y,i,l,r,n,m,t,c,u), so the stemmer maps each word
// to itself and the post-stemming vocabulary equals the requested V.
const (
	onsets = "bdfghklmnprstvwz"
	vowels = "aeiou"
	finals = "kpbfvxzh"
)

const wordSpace = (len(onsets) * len(vowels)) * (len(onsets) * len(vowels)) * (len(onsets) * len(vowels)) * len(finals)

func wordAt(i int) string {
	var b [7]byte
	b[6] = finals[i%len(finals)]
	i /= len(finals)
	for s := 2; s >= 0; s-- {
		b[2*s+1] = vowels[i%len(vowels)]
		i /= len(vowels)
		b[2*s] = onsets[i%len(onsets)]
		i /= len(onsets)
	}
	return string(b[:])
}

var stopWords = []string{"the", "of", "and", "in", "for", "a", "to", "with", "on", "is", "by", "from", "that", "this", "at"}

// language is a profile instantiated for one seed: the vocabulary, its
// split into a shared background slice and one slice per topic, and the
// planted collocations.
type language struct {
	profile
	seed       uint64
	words      []string // background slice first, then the topic slices
	background int      // size of the shared slice
	slice      int      // words per topic
	phrases    [][]int  // planted collocations as word indices; topic t owns [t*phrasesPerTopic, (t+1)*phrasesPerTopic)
}

func newLanguage(p profile, seed uint64) *language {
	l := &language{profile: p, seed: seed}
	l.background = p.vocab / 5
	l.slice = (p.vocab - l.background) / p.topics
	n := l.background + l.slice*p.topics

	// A seeded affine walk over the word space gives n distinct words
	// without a set: stride is coprime with wordSpace.
	r := rand.New(rand.NewPCG(seed, streamVocab))
	stride := 1 + 2*r.IntN(wordSpace/4)
	for gcd(stride, wordSpace) != 1 {
		stride += 2
	}
	at := r.IntN(wordSpace)
	l.words = make([]string, n)
	for i := range l.words {
		l.words[i] = wordAt(at)
		at = (at + stride) % wordSpace
	}

	r = rand.New(rand.NewPCG(seed, streamPhrases))
	l.phrases = make([][]int, p.topics*phrasesPerTopic)
	for i := range l.phrases {
		base := l.background + (i/phrasesPerTopic)*l.slice
		ph := make([]int, 2+r.IntN(3))
		for j := 0; j < len(ph); {
			ph[j] = base + phraseMinRank + r.IntN(l.slice-phraseMinRank)
			if !slices.Contains(ph[:j], ph[j]) {
				j++
			}
		}
		l.phrases[i] = ph
	}
	return l
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// phraseText renders a planted collocation as it appears in a document.
func (l *language) phraseText(id int) string {
	parts := make([]string, len(l.phrases[id]))
	for i, w := range l.phrases[id] {
		parts[i] = l.words[w]
	}
	return strings.Join(parts, " ")
}

// docGen emits documents of one language from one RNG stream.
type docGen struct {
	l       *language
	r       *rand.Rand
	topicZ  *rand.Zipf // rank within a topic slice
	backZ   *rand.Zipf // rank within the background slice
	buf     strings.Builder
	planted []int // collocation ids emitted by the last next()
}

func (l *language) docs(stream uint64) *docGen {
	r := rand.New(rand.NewPCG(l.seed, stream))
	return &docGen{
		l:      l,
		r:      r,
		topicZ: rand.NewZipf(r, zipfS, 1, uint64(l.slice-1)),
		backZ:  rand.NewZipf(r, zipfS, 1, uint64(l.background-1)),
	}
}

// next returns one raw document. The collocations it contains are left
// in g.planted until the following call.
func (g *docGen) next() string {
	l, r := g.l, g.r
	g.buf.Reset()
	g.planted = g.planted[:0]
	n := l.meanLen - l.devLen + r.IntN(2*l.devLen+1)
	t1 := r.IntN(l.topics)
	t2 := t1
	if r.Float64() < secondTopicProb {
		t2 = r.IntN(l.topics)
	}
	for emitted := 0; emitted < n; {
		if emitted > 0 {
			// Punctuation ends a mining segment; collocations never span it.
			switch x := r.Float64(); {
			case x < 0.05:
				g.buf.WriteString(". ")
			case x < 0.12:
				g.buf.WriteString(", ")
			default:
				g.buf.WriteByte(' ')
			}
		}
		if r.Float64() < stopShare {
			g.buf.WriteString(stopWords[r.IntN(len(stopWords))])
			emitted++
			continue
		}
		t := t1
		if r.Float64() < 0.2 {
			t = t2
		}
		switch x := r.Float64(); {
		case x < phraseSlotShare:
			id := t*phrasesPerTopic + r.IntN(phrasesPerTopic)
			g.buf.WriteString(l.phraseText(id))
			g.planted = append(g.planted, id)
			emitted += len(l.phrases[id])
		case x < phraseSlotShare+backgroundShare:
			g.buf.WriteString(l.words[g.backZ.Uint64()])
			emitted++
		default:
			g.buf.WriteString(l.words[l.background+t*l.slice+int(g.topicZ.Uint64())])
			emitted++
		}
	}
	return g.buf.String()
}

// writeCorpus streams n documents, one per line, and returns how often
// each planted collocation was emitted.
func (l *language) writeCorpus(w io.Writer, n int) ([]int, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	g := l.docs(streamDocs)
	occ := make([]int, len(l.phrases))
	for i := 0; i < n; i++ {
		bw.WriteString(g.next())
		bw.WriteByte('\n')
		for _, id := range g.planted {
			occ[id]++
		}
	}
	return occ, bw.Flush()
}

// texts returns n documents from the given stream.
func (l *language) texts(stream uint64, n int) []string {
	return l.uniqueTexts(stream, n, nil)
}

// uniqueTexts returns n documents from the stream, passing over any
// already in seen and adding the ones it returns. Short documents do
// collide, and a repeated text is a response-cache hit on a workload
// whose point is to have none.
func (l *language) uniqueTexts(stream uint64, n int, seen map[string]bool) []string {
	g := l.docs(stream)
	out := make([]string, 0, n)
	for len(out) < n {
		t := g.next()
		if seen != nil {
			if seen[t] {
				continue
			}
			seen[t] = true
		}
		out = append(out, t)
	}
	return out
}

// probe is a text with the collocations known to be in it.
type probe struct {
	text    string
	planted []string
}

func (l *language) probes(n int) []probe {
	g := l.docs(streamProbes)
	out := make([]probe, n)
	for i := range out {
		out[i].text = g.next()
		for _, id := range g.planted {
			out[i].planted = append(out[i].planted, l.phraseText(id))
		}
	}
	return out
}

// zipfOrder draws n indices into a pool of the given size, rank r with
// probability ∝ (1+r)^-s.
func zipfOrder(seed uint64, s float64, pool, n int) []int {
	r := rand.New(rand.NewPCG(seed, streamOrder))
	z := rand.NewZipf(r, s, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
