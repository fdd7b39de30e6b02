package topmine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sync"
	"testing"

	"topmine/internal/segment"
	"topmine/internal/topicmodel"
)

// The two fixtures below were written by the last build whose
// SaveSnapshot emitted .tpm version 1 (the gob payload), with
//
//	topmine train -synth yelp-reviews -docs 200 -k 4 -iters 60 -seed 11 -save testdata/snapshot_v1_frozen.tpm
//	topmine train -synth yelp-reviews -docs 200 -k 4 -iters 60 -seed 11 -save testdata/snapshot_v1_training.tpm -save-state
//
// Stemming is on and the corpus carries inflected surface forms, and
// hyperparameter optimisation ran at sweeps 25 and 50, so α is
// asymmetric and AlphaSum/BetaSum are not recomputable from K, V and
// the initial priors. The digests were recorded by that build; every
// later format must load the fixtures, and a re-save of them, to the
// same digests.
const (
	fixtureV1Frozen   = "testdata/snapshot_v1_frozen.tpm"
	fixtureV1Training = "testdata/snapshot_v1_training.tpm"
)

// fixtureTexts are the request texts the text-path digest covers: the
// edge-case pins plus sentences of the fixtures' yelp-reviews domain.
func fixtureTexts(t testing.TB) []string {
	return append(readTextPins(t),
		"craft beer selection and friendly service",
		"great happy hour deals, the servers were friendly and the pizzas tasted amazing",
		"the waiters ignored us; worst burgers, cold fries",
	)
}

// snapshotDigests hashes everything a loaded Result exposes: served θ,
// Segment and TraceText over fixtureTexts, the rendered topics, the
// Inferencer's Stats, the model's exported fields (floats by their
// bits), the vocabulary through its accessors, the mined phrases and
// mining scalars, and the pipeline and corpus options.
func snapshotDigests(t *testing.T, res *Result) map[string]string {
	t.Helper()
	inf, err := NewInferencer(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(write func(h hash.Hash)) string {
		h := sha256.New()
		write(h)
		return hex.EncodeToString(h.Sum(nil))
	}
	return map[string]string{
		"text":   textPathDigest(inf, fixtureTexts(t)),
		"topics": sum(func(h hash.Hash) { fmt.Fprintf(h, "%#v", res.Topics) }),
		"stats":  fmt.Sprintf("%+v", inf.Stats()),
		"model":  sum(func(h hash.Hash) { hashModel(h, res.Model) }),
		"vocab": sum(func(h hash.Hash) {
			v := res.Corpus.Vocab
			for id := int32(0); int(id) < v.Size(); id++ {
				fmt.Fprintf(h, "%q %d %q\n", v.Word(id), v.Count(id), v.Unstem(id))
			}
		}),
		"mined": sum(func(h hash.Hash) {
			m := res.Mined
			fmt.Fprintf(h, "%d %d %d %v %d\n", m.TotalTokens, m.MinSupport, m.MaxPhraseLen,
				m.LevelCandidates, res.Corpus.TotalTokens)
			for _, p := range res.FrequentPhrases(0) {
				fmt.Fprintf(h, "%v %d\n", p.Words, p.Count)
			}
		}),
		"options": sum(func(h hash.Hash) {
			fmt.Fprintf(h, "%#v %#v", res.Options, res.Corpus.BuildOpts)
		}),
	}
}

// fixtureCorpus rebuilds the corpus the fixtures were trained on, with
// the commands above.
var fixtureCorpus = sync.OnceValue(func() *Corpus {
	raw, err := GenerateExampleCorpus("yelp-reviews", 200, 11)
	if err != nil {
		panic(err)
	}
	return BuildCorpus(raw, DefaultCorpusOptions())
})

// legacyDoc is a document in the shape the fixtures' build printed.
type legacyDoc struct {
	ID      int
	Cliques [][]int32
	Origin  []legacyOrigin
}

type legacyOrigin struct {
	Segment int
	Span    segment.Span
}

// legacyDocs renders docs as the fixtures' build printed them, each
// clique's origin derived from c; a document EachOrigin cannot place
// has none, as that build's unsegmented documents had none.
func legacyDocs(docs []topicmodel.Doc, c *Corpus) []legacyDoc {
	var out []legacyDoc
	for i := range docs {
		d := &docs[i]
		ld := legacyDoc{ID: d.ID}
		for g := range d.NumCliques() {
			ld.Cliques = append(ld.Cliques, d.Clique(g))
		}
		d.EachOrigin(c.Docs[d.ID], func(_, seg int, sp segment.Span) {
			ld.Origin = append(ld.Origin, legacyOrigin{seg, sp})
		})
		out = append(out, ld)
	}
	return out
}

// hashModel writes the model's exported fields, floats as their bits,
// and its documents as legacyDocs renders them over fixtureCorpus.
func hashModel(h hash.Hash, m *Model) {
	m.Materialize()
	var b [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "K=%d V=%d\n", m.K, m.V)
	for _, a := range m.Alpha {
		f(a)
	}
	f(m.AlphaSum)
	f(m.Beta)
	f(m.BetaSum)
	fmt.Fprintf(h, "%v\n%v\n%v\n%v\n%v\n%v\n", m.Nwk, m.Nk, legacyDocs(m.Docs, fixtureCorpus()), m.Z, m.Ndk, m.Nd)
}

// fixtureDigests pins each fixture's digests as recorded by the build
// that wrote it.
var fixtureDigests = map[string]map[string]string{
	fixtureV1Frozen: {
		"text":    "d7e70136dac4e437e2fa0792d5f2d616d43fa8cdffb63c9c03745dd5880ed73e",
		"topics":  "ecaa9b80ccf87c59c5663dcaa1b6137ca4f6af2f0b6e58b5751ede72b331a1a3",
		"stats":   "{Topics:4 VocabSize:299 Phrases:459 Seed:11}",
		"vocab":   "646d6d355823136d39b642998f3fe99784b8dd401a979e57b37f6cd86f274b66",
		"mined":   "604a8cb8bf530c39b00eca177d53aaa932d5659f6677235ad0a7aba6ebc56c41",
		"options": "a6b9e4701866288afc4024c755ced618d293e0889361dd8b761192e1d71c2ee2",
		"model":   "4aefa8e16f8e1d98cb083cc62d7356b5c1c249786d6bc907aaa86c4a15a727f5",
	},
	fixtureV1Training: {
		"text":    "d7e70136dac4e437e2fa0792d5f2d616d43fa8cdffb63c9c03745dd5880ed73e",
		"topics":  "ecaa9b80ccf87c59c5663dcaa1b6137ca4f6af2f0b6e58b5751ede72b331a1a3",
		"stats":   "{Topics:4 VocabSize:299 Phrases:459 Seed:11}",
		"vocab":   "646d6d355823136d39b642998f3fe99784b8dd401a979e57b37f6cd86f274b66",
		"mined":   "604a8cb8bf530c39b00eca177d53aaa932d5659f6677235ad0a7aba6ebc56c41",
		"options": "a6b9e4701866288afc4024c755ced618d293e0889361dd8b761192e1d71c2ee2",
		"model":   "f681d6b49869277df22407b549a5e3663b90513cc878b017bc34c46926468071",
	},
}

func checkDigests(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	for _, k := range []string{"text", "topics", "stats", "model", "vocab", "mined", "options"} {
		if got[k] != want[k] {
			t.Errorf("%s: %s digest %q, want %q", label, k, got[k], want[k])
		}
	}
}

// TestSnapshotFixturesPinned loads both fixtures, checks they still
// exercise what they were built for, and compares their digests with
// the recorded ones — directly, and after a re-save in this build's
// format.
func TestSnapshotFixturesPinned(t *testing.T) {
	for _, path := range []string{fixtureV1Frozen, fixtureV1Training} {
		t.Run(path, func(t *testing.T) {
			res, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if res.Model.K < 3 {
				t.Fatalf("fixture has K=%d, want >= 3", res.Model.K)
			}
			if res.Model.Alpha[0] == res.Model.Alpha[1] && res.Model.Alpha[1] == res.Model.Alpha[2] {
				t.Fatalf("fixture α is symmetric: %v", res.Model.Alpha)
			}
			inflected := 0
			for id := int32(0); int(id) < res.Corpus.Vocab.Size(); id++ {
				if res.Corpus.Vocab.Unstem(id) != res.Corpus.Vocab.Word(id) {
					inflected++
				}
			}
			if !res.Corpus.BuildOpts.Stem || inflected == 0 {
				t.Fatalf("fixture has stem=%v and %d inflected stems", res.Corpus.BuildOpts.Stem, inflected)
			}
			if got, want := res.Resumable(), path == fixtureV1Training; got != want {
				t.Fatalf("Resumable() = %v, want %v", got, want)
			}
			want := fixtureDigests[path]
			checkDigests(t, "loaded", snapshotDigests(t, res), want)

			save := SaveSnapshot
			if res.Resumable() {
				save = SaveTrainingSnapshot
			}
			var buf bytes.Buffer
			if err := save(&buf, res); err != nil {
				t.Fatal(err)
			}
			again, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			checkDigests(t, "re-saved", snapshotDigests(t, again), want)
		})
	}
}

// resumedFixtureDigest is the model digest after 20 resumed sweeps of
// the training fixture, as recorded by the build that wrote it.
const resumedFixtureDigest = "4996d2c4149f723c6bfa5b359c14b1b36488f6868999b03acc5c6b5d680dcd8c"

// TestResumeFromResavedFixture resumes the training fixture as written
// and after a re-save in this build's format: both must continue on the
// same random stream, to the same bytes.
func TestResumeFromResavedFixture(t *testing.T) {
	resume := func(res *Result) []byte {
		t.Helper()
		if err := res.ResumeTraining(20); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveTrainingSnapshot(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v1, err := LoadSnapshotFile(fixtureV1Training)
	if err != nil {
		t.Fatal(err)
	}
	fromV1 := resume(v1)
	h := sha256.New()
	hashModel(h, v1.Model)
	io.WriteString(h, FormatTopics(v1.Topics))
	if got := hex.EncodeToString(h.Sum(nil)); got != resumedFixtureDigest {
		t.Errorf("resumed model digest %s, want %s", got, resumedFixtureDigest)
	}

	orig, err := LoadSnapshotFile(fixtureV1Training)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTrainingSnapshot(&buf, orig); err != nil {
		t.Fatal(err)
	}
	resaved, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := resume(resaved); !bytes.Equal(got, fromV1) {
		t.Fatal("resuming the re-saved training fixture diverged from resuming the fixture as written")
	}
}

// TestFixtureTopicsRerender: the training fixture's topics, which the
// build that wrote it rendered from the clique origins its documents
// stored, are what Visualize renders today from origins it derives over
// the same corpus.
func TestFixtureTopicsRerender(t *testing.T) {
	res, err := LoadSnapshotFile(fixtureV1Training)
	if err != nil {
		t.Fatal(err)
	}
	stored := FormatTopics(res.Topics)
	res.Corpus = fixtureCorpus()
	res.render()
	if got := FormatTopics(res.Topics); got != stored {
		t.Fatalf("re-rendered topics:\n%s\nstored:\n%s", got, stored)
	}
}
