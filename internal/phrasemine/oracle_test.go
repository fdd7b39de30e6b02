package phrasemine

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/synth"
)

// naiveCounts counts every contiguous n-gram (1 <= n <= maxLen) of
// every segment by brute force — the specification Algorithm 1 must
// match after support filtering.
func naiveCounts(c *corpus.Corpus, maxLen int) *counter.NGrams {
	out := counter.New()
	for _, d := range c.Docs {
		for si := range d.Segments {
			words := d.Segments[si].Words()
			for i := 0; i < len(words); i++ {
				for n := 1; n <= maxLen && i+n <= len(words); n++ {
					out.Inc(counter.Key(words[i : i+n]))
				}
			}
		}
	}
	return out
}

// pruned returns the entries of c with count >= min, in c's order.
func pruned(c *counter.NGrams, min int64) *counter.NGrams {
	kept := counter.New()
	c.Each(func(key string, n int64) {
		if n >= min {
			kept.Add(key, n)
		}
	})
	return kept
}

// TestMineMatchesBruteForce is the oracle test: on random small
// corpora, Algorithm 1's output equals brute-force counting restricted
// to frequent phrases.
func TestMineMatchesBruteForce(t *testing.T) {
	f := func(seedByte, supportByte uint8) bool {
		seed := uint64(seedByte)
		support := int(supportByte%7) + 1
		c := synth.GenerateCorpus(synth.DBLPTitles(),
			synth.Options{Docs: 40, Seed: seed}, corpus.DefaultBuildOptions())
		const maxLen = 6
		mined := Mine(c, Options{MinSupport: support, MaxLen: maxLen})
		naive := pruned(naiveCounts(c, maxLen), int64(support))
		if mined.Counts.Len() != naive.Len() {
			t.Logf("seed=%d support=%d: mined %d entries, naive %d",
				seed, support, mined.Counts.Len(), naive.Len())
			return false
		}
		ok := true
		naive.Each(func(key string, want int64) {
			if got := mined.Counts.Get(key); got != want {
				t.Logf("seed=%d support=%d: phrase %v mined=%d naive=%d",
					seed, support, counter.Unkey(key), got, want)
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestMineMatchesBruteForceLongSegments stresses the boundary logic
// with repeated tokens and segment-length edge cases.
func TestMineMatchesBruteForceLongSegments(t *testing.T) {
	c := corpus.FromStrings(longSegmentDocs(), corpus.DefaultBuildOptions())
	for _, support := range []int{1, 2, 4, 8} {
		mined := Mine(c, Options{MinSupport: support, MaxLen: 0})
		naive := pruned(naiveCounts(c, 32), int64(support))
		if mined.Counts.Len() != naive.Len() {
			t.Fatalf("support %d: mined %d entries, naive %d",
				support, mined.Counts.Len(), naive.Len())
		}
		naive.Each(func(key string, want int64) {
			if got := mined.Counts.Get(key); got != want {
				t.Fatalf("support %d: %v mined=%d naive=%d",
					support, counter.Unkey(key), got, want)
			}
		})
	}
}

// longSegmentDocs is TestMineMatchesBruteForceLongSegments' fixture:
// repeated tokens and segment-length edge cases, repeated so that
// everything clears support.
func longSegmentDocs() []string {
	docs := []string{
		"a a a a a a a a",
		"a b a b a b a b",
		"x y z x y z x y z",
		"one",
		"two two",
		"p q r s t u v w x y z p q r s t u v w x y z",
	}
	var all []string
	for i := 0; i < 4; i++ {
		all = append(all, docs...)
	}
	return all
}

// trailingZeroDocs leaves one segment with two active indices that are
// not adjacent ("alpha beta" at both of its ends), so at support 3
// Algorithm 1 counts a last level of zero candidates: LevelCandidates
// [0 4 1 0].
func trailingZeroDocs() []string {
	return []string{"alpha beta gamma delta alpha beta", "alpha beta", "alpha beta", "alpha beta"}
}

// stringKeyedMine is the reference for Mine: Algorithm 1 with every
// candidate keyed by its packed word ids in a string-keyed counter and
// one active-index slice per segment, the form Mine had before it
// moved to integer phrase ids.
func stringKeyedMine(c *corpus.Corpus, opt Options) *Result {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	eps := int64(opt.MinSupport)
	res := &Result{
		Counts:          counter.New(),
		TotalTokens:     c.TotalTokens,
		MinSupport:      opt.MinSupport,
		LevelCandidates: []int{0},
	}
	type segState struct {
		words  []int32
		active []int
	}
	var segs []*segState
	for _, d := range c.Docs {
		for i := range d.Segments {
			if w := d.Segments[i].Words(); len(w) > 0 {
				s := &segState{words: w}
				for j := range w {
					s.active = append(s.active, j)
				}
				segs = append(segs, s)
			}
		}
	}
	// Level 1 counts every position; level n > 1 counts position i when
	// i and i+1 are both active.
	for n := 1; n == 1 || len(segs) > 0 && (opt.MaxLen == 0 || n <= opt.MaxLen); n++ {
		level := counter.New()
		for _, s := range segs {
			for k, i := range s.active {
				if n == 1 || k+1 < len(s.active) && s.active[k+1] == i+1 {
					level.Inc(counter.Key(s.words[i : i+n]))
				}
			}
		}
		res.LevelCandidates = append(res.LevelCandidates, level.Len())
		level = pruned(level, eps)
		if level.Len() > 0 {
			res.MaxPhraseLen = n
		}
		level.Each(res.Counts.Add)
		// Keep index i while its length-n phrase is in bounds and
		// frequent; drop segments left with fewer than two indices.
		live := segs[:0]
		for _, s := range segs {
			next := s.active[:0]
			for _, i := range s.active {
				if i+n <= len(s.words) && level.Get(counter.Key(s.words[i:i+n])) >= eps {
					next = append(next, i)
				}
			}
			if s.active = next; len(next) >= 2 {
				live = append(live, s)
			}
		}
		segs = live
		if level.Len() == 0 {
			break
		}
	}
	return res
}

// mineReport is a Result with its counts decoded, for comparison.
type mineReport struct {
	Counts          map[string]int64
	TotalTokens     int
	MinSupport      int
	MaxPhraseLen    int
	LevelCandidates []int
}

func report(r *Result) mineReport {
	m := map[string]int64{}
	r.Counts.Each(func(k string, v int64) { m[k] = v })
	return mineReport{m, r.TotalTokens, r.MinSupport, r.MaxPhraseLen, r.LevelCandidates}
}

// checkAgainstOracle fails t unless Mine and stringKeyedMine return
// equal Results on c, and reports whether the Result ends on a level
// that counted no candidates.
func checkAgainstOracle(t *testing.T, c *corpus.Corpus, opt Options) bool {
	t.Helper()
	got, want := report(Mine(c, opt)), report(stringKeyedMine(c, opt))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: Mine found %d phrases, levels %v, max length %d; the oracle %d, %v, %d",
			opt, len(got.Counts), got.LevelCandidates, got.MaxPhraseLen,
			len(want.Counts), want.LevelCandidates, want.MaxPhraseLen)
	}
	lc := want.LevelCandidates
	return len(lc) > 2 && lc[len(lc)-1] == 0
}

// TestMineMatchesStringKeyedOracle: on random synthetic corpora and the
// hand-made fixtures, Mine's Result equals the string-keyed reference's
// in every count, every level's candidate count (a trailing level of
// zero candidates included), MaxPhraseLen, TotalTokens and MinSupport.
func TestMineMatchesStringKeyedOracle(t *testing.T) {
	corpora := []*corpus.Corpus{
		corpus.FromStrings(longSegmentDocs(), corpus.DefaultBuildOptions()),
		corpus.FromStrings(trailingZeroDocs(), corpus.DefaultBuildOptions()),
	}
	specs := []synth.DomainSpec{synth.DBLPTitles(), synth.TwentyConf(), synth.YelpReviews()}
	for seed := uint64(1); seed <= 6; seed++ {
		spec := specs[int(seed)%len(specs)]
		corpora = append(corpora, synth.GenerateCorpus(spec,
			synth.Options{Docs: 60, Seed: seed}, corpus.DefaultBuildOptions()))
	}
	trailingZero := 0
	for _, c := range corpora {
		for support := 1; support <= 7; support++ {
			for _, maxLen := range []int{0, 2, 8} {
				if checkAgainstOracle(t, c, Options{MinSupport: support, MaxLen: maxLen}) {
					trailingZero++
				}
			}
		}
	}
	if trailingZero == 0 {
		t.Fatal("no case ended on a level of zero candidates; the test is vacuous there")
	}
}

// fuzzWords are the eight words a FuzzMine corpus is written in.
var fuzzWords = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}

// fuzzCorpus builds a corpus of at most 256 words from fuzz bytes. A
// byte below 0x80 is word b%8; 0x80–0xbf is a run of 2–9 copies of
// word b%8; 0xc0–0xdf ends the segment and 0xe0–0xff the document. The
// cap keeps the reference, whose key bytes grow as the cube of a
// segment's length when MaxLen is unbounded, to milliseconds an input.
func fuzzCorpus(data []byte) *corpus.Corpus {
	var docs []string
	var doc strings.Builder
	for i, words := 0, 0; i < len(data) && words < 256; i++ {
		switch b := data[i]; {
		case b < 0x80:
			doc.WriteString(" " + fuzzWords[b%8])
			words++
		case b < 0xc0:
			doc.WriteString(strings.Repeat(" "+fuzzWords[b%8], int(b>>3&7)+2))
			words += int(b>>3&7) + 2
		case b < 0xe0:
			doc.WriteString(",")
		default:
			docs = append(docs, doc.String())
			doc.Reset()
		}
	}
	return corpus.FromStrings(append(docs, doc.String()), corpus.DefaultBuildOptions())
}

// fuzzBytes encodes docs in fuzzCorpus' bytes, each distinct word
// becoming its first-appearance index mod 8 and each comma a segment
// break.
func fuzzBytes(docs []string) []byte {
	ids := map[string]byte{}
	var out []byte
	for i, d := range docs {
		if i > 0 {
			out = append(out, 0xe0)
		}
		for _, w := range strings.Fields(strings.ReplaceAll(d, ",", " , ")) {
			if w == "," {
				out = append(out, 0xc0)
				continue
			}
			if _, ok := ids[w]; !ok {
				ids[w] = byte(len(ids) % 8)
			}
			out = append(out, ids[w])
		}
	}
	return out
}

// FuzzMine checks Mine against the string-keyed reference on corpora
// of eight words built from the fuzz bytes, seeded with the fixtures
// above.
func FuzzMine(f *testing.F) {
	for _, docs := range [][]string{longSegmentDocs(), trailingZeroDocs()} {
		for support := uint8(0); support < 7; support += 3 {
			f.Add(fuzzBytes(docs), support, uint8(0))
		}
	}
	f.Add([]byte{0x82, 0xc0, 1, 2, 3, 1, 2, 0xe0, 0x9c, 0x83}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, support, maxLen uint8) {
		checkAgainstOracle(t, fuzzCorpus(data), Options{MinSupport: int(support%7) + 1, MaxLen: int(maxLen % 10)})
	})
}
