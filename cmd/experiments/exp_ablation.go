package main

import (
	"fmt"
	"io"

	"topmine/internal/baselines"
	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/eval"
	"topmine/internal/phrasemine"
	"topmine/internal/segment"
	"topmine/internal/synth"
)

// ablation quantifies the design choices DESIGN.md calls out, using
// planted-phrase ground truth:
//
//   - significance score: the paper's t-statistic (Eq. 1) versus PMI
//     and signed χ² — the paper argues the t-statistic resists the
//     rare-pair pathology of PMI and the free-rider problem;
//   - merge threshold α sweep — precision/recall trade-off (§4.2);
//   - minimum support ε sweep — "the larger minimum support is, the
//     more precision and the less recall is expected" (§4.1).
func ablation(cfg config, w io.Writer) error {
	spec := synth.TwentyConf()
	c := synth.GenerateCorpus(spec, synth.Options{Docs: cfg.sz(6000), Seed: cfg.seed + 5},
		corpus.DefaultBuildOptions())

	plantedKeys := make(map[string]bool)
	for _, p := range spec.PlantedPhrases() {
		if ids, ok := eval.ResolvePhrase(c, p); ok && len(ids) >= 2 {
			plantedKeys[counter.Key(ids)] = true
		}
	}
	fmt.Fprintf(w, "Segmentation ablations on synthetic 20Conf (%d docs, %d resolvable planted phrases)\n",
		c.NumDocs(), len(plantedKeys))

	// score = fraction of multi-word phrase *types* extracted that are
	// planted (precision) and fraction of planted types extracted
	// (recall), from the corpus-wide segmentation.
	evaluate := func(mined *phrasemine.Result, opt segment.Options) (prec, rec float64, types int) {
		segs := segment.NewSegmenter(mined, opt).SegmentCorpus(c)
		inst := segment.PhraseInstances(c, segs)
		found := make(map[string]bool)
		total := 0
		inst.Each(func(key string, n int64) {
			if counter.KeyLen(key) < 2 {
				return
			}
			total++
			if plantedKeys[key] {
				found[key] = true
			}
		})
		if total > 0 {
			prec = float64(len(found)) / float64(total)
		}
		if len(plantedKeys) > 0 {
			rec = float64(len(found)) / float64(len(plantedKeys))
		}
		return prec, rec, total
	}

	mined := phrasemine.Mine(c, phrasemine.Options{MinSupport: 5, MaxLen: 8})

	// The three scores live on different scales (standard deviations,
	// log-lift, chi-square mass), so each is swept over its own
	// threshold grid and reported at its best F1 — the comparison the
	// paper's argument implies (which measure *can* be thresholded to
	// isolate true collocations).
	fmt.Fprintf(w, "\n(a) significance score, each at its best-F1 threshold (eps=5)\n"+
		"%-10s %8s %10s %8s %8s %8s\n", "score", "alpha*", "precision", "recall", "F1", "types")
	grids := map[string][]float64{
		"tstat": {1, 2, 3, 5, 8, 12},
		"pmi":   {0.5, 1, 2, 3, 4, 6},
		"chi2":  {5, 20, 80, 300, 1000, 4000},
	}
	for _, sc := range []struct {
		name string
		f    segment.ScoreFunc
	}{{"tstat", segment.TStat}, {"pmi", segment.PMI}, {"chi2", segment.ChiSquare}} {
		bestF1, bestA, bestP, bestR, bestN := -1.0, 0.0, 0.0, 0.0, 0
		for _, a := range grids[sc.name] {
			p, r, n := evaluate(mined, segment.Options{Alpha: a, MaxPhraseLen: 8, Workers: 1, Score: sc.f})
			if p+r == 0 {
				continue
			}
			f1 := 2 * p * r / (p + r)
			if f1 > bestF1 {
				bestF1, bestA, bestP, bestR, bestN = f1, a, p, r, n
			}
		}
		fmt.Fprintf(w, "%-10s %8.1f %10.2f %8.2f %8.2f %8d\n",
			sc.name, bestA, bestP, bestR, bestF1, bestN)
	}

	fmt.Fprintf(w, "\n(b) merge threshold alpha (t-stat, eps=5)\n%-10s %10s %8s %8s\n",
		"alpha", "precision", "recall", "types")
	for _, a := range []float64{1, 2, 3, 5, 8} {
		p, r, n := evaluate(mined, segment.Options{Alpha: a, MaxPhraseLen: 8, Workers: 1})
		fmt.Fprintf(w, "%-10.0f %10.2f %8.2f %8d\n", a, p, r, n)
	}

	fmt.Fprintf(w, "\n(c) minimum support eps (t-stat, alpha=3)\n%-10s %10s %8s %8s\n",
		"eps", "precision", "recall", "types")
	for _, e := range []int{2, 5, 10, 20} {
		m := phrasemine.Mine(c, phrasemine.Options{MinSupport: e, MaxLen: 8})
		p, r, n := evaluate(m, segment.Options{Alpha: 3, MaxPhraseLen: 8, Workers: 1})
		fmt.Fprintf(w, "%-10d %10.2f %8.2f %8d\n", e, p, r, n)
	}

	// (d) background filtering effect on abstracts (where background
	// phrases are planted): how many background phrases survive into
	// top lists with and without the §8 filter.
	aspec := synth.DBLPAbstracts()
	ac := synth.GenerateCorpus(aspec, synth.Options{Docs: cfg.sz(800), Seed: cfg.seed + 6},
		corpus.DefaultBuildOptions())
	bgKeys := make(map[string]bool)
	for _, p := range aspec.BackgroundPhrases {
		if ids, ok := eval.ResolvePhrase(ac, p); ok && len(ids) >= 2 {
			bgKeys[counter.Key(ids)] = true
		}
	}
	countBG := func(filter bool) int {
		tm := baselines.ToPMine{SigAlpha: 3, FilterBackground: filter, BackgroundMaxDocFrac: 0.25}
		out := tm.Run(ac, baselines.Options{
			K: aspec.NumTopics(), Iterations: cfg.iters(120), Seed: cfg.seed,
			TopPhrases: 10, MinSupport: 5, OptimizeHyper: true,
		})
		n := 0
		for _, tp := range out {
			for _, p := range tp.Phrases {
				if bgKeys[counter.Key(p.Words)] {
					n++
				}
			}
		}
		return n
	}
	fmt.Fprintf(w, "\n(d) background-phrase filter (abstracts, %d planted background phrases)\n", len(bgKeys))
	fmt.Fprintf(w, "background phrase appearances in top-10 lists: unfiltered=%d filtered=%d\n",
		countBG(false), countBG(true))

	fmt.Fprintf(w, "\nExpected shapes: t-stat precision >= pmi (PMI over-merges rare pairs);\n"+
		"raising alpha or eps trades recall for precision; the filter removes\n"+
		"most background appearances.\n")
	return nil
}
