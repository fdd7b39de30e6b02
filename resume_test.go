package topmine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func trainSmallResult(t *testing.T) *Result {
	t.Helper()
	docs, err := GenerateExampleCorpus("dblp-titles", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Topics = 4
	opt.Iterations = 10
	opt.MinSupport = 3
	opt.Seed = 5
	opt.OptimizeHyper = false
	opt.Workers = 1
	res, err := Run(docs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTrainingSnapshotRoundTrip(t *testing.T) {
	res := trainSmallResult(t)
	if !res.Resumable() {
		t.Fatal("freshly trained Result must be resumable")
	}
	var full, frozen bytes.Buffer
	if err := SaveTrainingSnapshot(&full, res); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(&frozen, res); err != nil {
		t.Fatal(err)
	}
	if full.Len() <= frozen.Len() {
		t.Errorf("training snapshot (%d bytes) should exceed frozen snapshot (%d bytes)", full.Len(), frozen.Len())
	}

	loaded, err := LoadSnapshot(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Resumable() {
		t.Fatal("training snapshot must load resumable")
	}
	// The training snapshot still serves: inference and topics work.
	if got := FormatTopics(loaded.Topics); got != FormatTopics(res.Topics) {
		t.Error("topics differ after training-snapshot round trip")
	}
	theta := loaded.InferTopics("frequent pattern mining", 10)
	if len(theta) != 4 {
		t.Fatalf("inference broken on training snapshot: %d topics", len(theta))
	}

	frozenLoaded, err := LoadSnapshot(bytes.NewReader(frozen.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if frozenLoaded.Resumable() {
		t.Fatal("frozen snapshot must not be resumable")
	}
	if err := frozenLoaded.ResumeTraining(5); err == nil {
		t.Fatal("ResumeTraining on a frozen snapshot must error")
	} else if !strings.Contains(err.Error(), "training state") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestResumeTrainingDeterministic pins the resume contract: loading
// the same training snapshot twice and sweeping the same number of
// iterations yields byte-identical topics, and the resumed model stays
// internally consistent.
func TestResumeTrainingDeterministic(t *testing.T) {
	res := trainSmallResult(t)
	path := filepath.Join(t.TempDir(), "train.tpm")
	if err := SaveTrainingSnapshotFile(path, res); err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		r, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ResumeTraining(7); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	ta, tb := FormatTopics(a.Topics), FormatTopics(b.Topics)
	if ta != tb {
		t.Errorf("resumed training is not deterministic:\n%s\nvs\n%s", ta, tb)
	}
	if err := a.Model.CheckInvariants(); err != nil {
		t.Errorf("resumed model inconsistent: %v", err)
	}
	// Resuming must actually move the state: with only 10 original
	// sweeps the chain has not converged, so 7 more change the counts.
	if ta == FormatTopics(res.Topics) {
		t.Log("note: resumed topics identical to pre-resume topics (possible but unexpected)")
	}
	// A resumed Result can be re-saved both ways.
	if err := SaveTrainingSnapshotFile(filepath.Join(t.TempDir(), "resumed.tpm"), a); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshotFile(filepath.Join(t.TempDir(), "frozen.tpm"), a); err != nil {
		t.Fatal(err)
	}
}

// TestResumeChain verifies multi-hop resumption: train → save-state →
// load+resume → save-state → load+resume, with the sampler staying
// valid at every hop (the CLI's -load -iters -save workflow).
func TestResumeChain(t *testing.T) {
	res := trainSmallResult(t)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "s1.tpm")
	if err := SaveTrainingSnapshotFile(p1, res); err != nil {
		t.Fatal(err)
	}
	r1, err := LoadSnapshotFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.ResumeTraining(3); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "s2.tpm")
	if err := SaveTrainingSnapshotFile(p2, r1); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadSnapshotFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.ResumeTraining(3); err != nil {
		t.Fatal(err)
	}
	if err := r2.Model.CheckInvariants(); err != nil {
		t.Fatalf("model inconsistent after two resume hops: %v", err)
	}
	if got := len(r2.Topics); got != 4 {
		t.Fatalf("topics lost across hops: %d", got)
	}
}

// TestResumeDropsCachedInferencer pins that inference observes the
// resumed counts, not the Inferencer captured before ResumeTraining.
func TestResumeDropsCachedInferencer(t *testing.T) {
	res := trainSmallResult(t)
	before, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ResumeTraining(5); err != nil {
		t.Fatal(err)
	}
	after, err := res.Inferencer()
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("ResumeTraining must invalidate the cached Inferencer")
	}
}

// modelDigest hashes a model's assignments and priors: the counts are
// a function of Z, and the priors move at every hyperparameter barrier.
func modelDigest(m *Model) string {
	h := sha256.New()
	var buf [8]byte
	for _, z := range m.Z {
		for _, k := range z {
			binary.LittleEndian.PutUint32(buf[:4], uint32(k))
			h.Write(buf[:4])
		}
	}
	for _, a := range append(append([]float64(nil), m.Alpha...), m.Beta) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestTrainingPathBytesPinned pins the bytes of the training paths the
// root package drives — resumed training across two hyperparameter
// barriers, an incremental update over an appended corpus file, and
// LDA serial and with two topic workers — against digests recorded
// before they were routed through one schedule.
func TestTrainingPathBytesPinned(t *testing.T) {
	lda := func(workers int) func(t *testing.T) *Model {
		return func(t *testing.T) *Model {
			docs, err := GenerateExampleCorpus("dblp-titles", 200, 3)
			if err != nil {
				t.Fatal(err)
			}
			opt := DefaultOptions()
			opt.Topics, opt.Iterations, opt.Seed, opt.TopicWorkers = 4, 30, 5, workers
			return TrainLDA(BuildCorpus(docs, DefaultCorpusOptions()), opt)
		}
	}
	for _, tc := range []struct {
		name  string
		train func(t *testing.T) *Model
		want  string
	}{
		{"resume60/hyper", func(t *testing.T) *Model {
			docs, err := GenerateExampleCorpus("dblp-titles", 200, 3)
			if err != nil {
				t.Fatal(err)
			}
			opt := DefaultOptions()
			opt.Topics, opt.Iterations, opt.MinSupport, opt.Seed, opt.Workers = 4, 10, 3, 5, 1
			res, err := Run(docs, opt)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "train.tpm")
			if err := SaveTrainingSnapshotFile(path, res); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.ResumeTraining(60); err != nil {
				t.Fatal(err)
			}
			return loaded.Model
		}, "db29ee568df9ff4f"},
		{"update/appended", func(t *testing.T) *Model {
			docs := corpusFileTestDocs(t)
			shard := 2 * len(docs) / 3
			opt := corpusFileTestOptions()
			opt.OptimizeHyper = true
			dir := t.TempDir()
			path := filepath.Join(dir, "inc.tpc")
			pre, err := Preprocess(SliceSource(docs[:shard]), opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveCorpusFile(path, pre); err != nil {
				t.Fatal(err)
			}
			base, err := RunCorpusFile(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			snap := filepath.Join(dir, "snap.tpm")
			if err := SaveTrainingSnapshotFile(snap, base); err != nil {
				t.Fatal(err)
			}
			base.Close()
			if _, err := AppendCorpusFile(path, SliceSource(docs[shard:]), AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			cf, err := OpenCorpusFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer cf.Close()
			res, err := LoadSnapshotFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { res.Close() })
			if err := res.UpdateTraining(cf, 30); err != nil {
				t.Fatal(err)
			}
			return res.Model
		}, "d9748fabebc5e71d"},
		{"lda/serial", lda(0), "004a5b321907c1b2"},
		{"lda/workers2", lda(2), "da51765a95fa197c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.train(t)
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := modelDigest(m); got != tc.want {
				t.Errorf("digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
