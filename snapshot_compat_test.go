package topmine

import (
	"bytes"
	"reflect"
	"testing"
)

// TestLoadPrePR4Snapshot pins backward wire compatibility against a
// golden fixture: testdata/snapshot_pr3.tpm was written by the PR-3
// build (before the topicmodel count matrices moved to flat arenas
// and before Model.DenseSampler existed) with
//
//	topmine train -synth dblp-titles -docs 300 -k 4 -iters 30 -seed 7 -save ...
//
// The current build must load it, reconstruct arena-backed counts via
// ResetSampler, and serve deterministic inference from it. A failure
// here means a change to the Model/snapshot encoding broke every
// snapshot in the wild.
func TestLoadPrePR4Snapshot(t *testing.T) {
	res, err := LoadSnapshotFile("testdata/snapshot_pr3.tpm")
	if err != nil {
		t.Fatalf("pre-PR4 snapshot no longer loads: %v", err)
	}
	if res.Model == nil || res.Model.K != 4 {
		t.Fatalf("loaded model malformed: %+v", res.Model)
	}
	if res.Model.V != res.Corpus.Vocab.Size() {
		t.Fatalf("vocab mismatch: model V=%d, vocab=%d", res.Model.V, res.Corpus.Vocab.Size())
	}
	inf, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	theta, tokens := inf.InferTopicsTokens("parallel database query optimization", 30)
	if tokens == 0 {
		t.Fatal("planted-domain text mapped to zero in-vocab tokens")
	}
	sum := 0.0
	for _, v := range theta {
		if v <= 0 {
			t.Fatalf("non-positive mixture component: %v", theta)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("mixture does not normalise: %v", sum)
	}
	// Inference over a loaded snapshot is deterministic per text.
	again, _ := inf.InferTopicsTokens("parallel database query optimization", 30)
	if !reflect.DeepEqual(theta, again) {
		t.Fatal("repeated inference on loaded snapshot diverged")
	}
}

// TestLoadLegacyV2TrainingSnapshot: testdata/snapshot_v2_training_legacy.tpm
// is a version-2 training snapshot written before modelling documents
// were flat, its training section holding Doc as {ID, Cliques, Origin},
// by a build running this test's Run. It must load to the Result this
// build trains: re-saved, the two are the same bytes.
func TestLoadLegacyV2TrainingSnapshot(t *testing.T) {
	loaded, err := LoadSnapshotFile("testdata/snapshot_v2_training_legacy.tpm")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := GenerateExampleCorpus("20conf", 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Topics, opt.Iterations, opt.MinSupport, opt.Seed = 4, 15, 3, 9
	fresh, err := Run(docs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Resumable() {
		t.Fatal("the legacy training snapshot loaded without its training state")
	}
	if a, b := mustTrainingSnapshot(t, loaded), mustTrainingSnapshot(t, fresh); !bytes.Equal(a, b) {
		t.Fatalf("re-saved legacy snapshot is %d bytes and differs from this build's %d", len(a), len(b))
	}
}

func mustTrainingSnapshot(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveTrainingSnapshot(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
