package topmine

import (
	"fmt"

	"topmine/internal/core"
)

// Resumable reports whether this Result can continue Gibbs training:
// its model must carry per-document training state, which is the case
// for freshly trained pipelines and for snapshots written by
// SaveTrainingSnapshot — but not for frozen (serving-only) snapshots.
func (r *Result) Resumable() bool {
	return r != nil && r.Model != nil && len(r.Model.Docs) > 0
}

// ResumeTraining continues collapsed Gibbs sampling for iters more
// sweeps on the Result's model, in place, and re-renders Topics from
// the new state. It is the programmatic form of
// `topmine load snap.tpm -iters N -save snap2.tpm`.
//
// The sampler state gob never carries (RNG position, sparse indexes)
// was re-armed by Model.ResetSampler at load time, seeded from the
// pipeline seed, so resuming a given snapshot is deterministic: two
// loads resumed for the same iteration count produce byte-identical
// topics. The sweeps follow training's own schedule: TopicWorkers > 1
// resumes with the parallel sampler (deterministic per worker count),
// and hyperparameter optimisation, when the pipeline options enabled
// it, runs every 25 sweeps counted from the first resumed one — the
// model is past burn-in.
// The cached Inferencer, if any, is dropped — it captured the
// pre-resume counts.
func (r *Result) ResumeTraining(iters int) error {
	if iters <= 0 {
		return fmt.Errorf("topmine: ResumeTraining: iters must be positive, got %d", iters)
	}
	if r.Model == nil {
		return fmt.Errorf("topmine: ResumeTraining: Result has no model")
	}
	if !r.Resumable() {
		return fmt.Errorf("topmine: ResumeTraining: model carries no training state; save with SaveTrainingSnapshot (topmine train -save -save-state) to resume later")
	}
	mopt := core.ModelOptions(r.Options)
	mopt.Iterations = iters
	r.Model.Resume(mopt)
	r.render()
	r.inferMu.Lock()
	r.inferer = nil // captured pre-resume counts; rebuild lazily
	r.inferMu.Unlock()
	return nil
}
