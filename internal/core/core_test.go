package core

import (
	"testing"

	"topmine/internal/corpus"
	"topmine/internal/synth"
	"topmine/internal/topicmodel"
)

func testOptions() Options {
	return Options{
		MinSupport: 5, MaxPhraseLen: 6, SigThreshold: 3,
		Topics: 5, Iterations: 40, Seed: 42, Workers: 1,
	}
}

func testCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	return synth.GenerateCorpus(synth.TwentyConf(),
		synth.Options{Docs: 300, Seed: 9}, corpus.DefaultBuildOptions())
}

func TestRunProducesAllArtifacts(t *testing.T) {
	c := testCorpus(t)
	a := Run(c, testOptions())
	if a.Mined == nil || a.Mined.Counts.Len() == 0 {
		t.Fatal("no mined phrases")
	}
	if len(a.Segs) != c.NumDocs() {
		t.Fatal("segmentation incomplete")
	}
	if len(a.Docs) != c.NumDocs() {
		t.Fatal("modeling docs incomplete")
	}
	if a.Model == nil || a.Model.K != 5 {
		t.Fatal("model missing")
	}
	if err := a.Model.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveSupport(t *testing.T) {
	c := testCorpus(t)
	opt := testOptions()
	if got := opt.effectiveSupport(c); got != 5 {
		t.Fatalf("absolute support = %d, want 5", got)
	}
	opt.RelativeSupport = 0.01
	if got := opt.effectiveSupport(c); got <= 5 {
		t.Fatalf("relative support not applied: %d", got)
	}
	opt = Options{}
	if got := opt.effectiveSupport(c); got != 1 {
		t.Fatalf("support floor = %d, want 1", got)
	}
}

func TestOnIterationObserved(t *testing.T) {
	c := testCorpus(t)
	opt := testOptions()
	opt.Iterations = 7
	count := 0
	onIter := func(it int, m *topicmodel.Model) {
		count++
		if it != count {
			t.Fatalf("iteration %d reported as %d", count, it)
		}
		if m == nil {
			t.Fatal("nil model in callback")
		}
	}
	Train(c, topicmodel.DocsFromSegmentation(c, Segment(c, Mine(c, opt), opt)), opt, onIter, nil)
	if count != 7 {
		t.Fatalf("callback ran %d times, want 7", count)
	}
}
