// news runs ToPMine on long-form news articles (the AP News scenario
// behind Table 5), demonstrating the background-phrase filter (§8 of
// the paper) and model persistence.
//
//	go run ./examples/news -docs 800 -k 5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"topmine"
)

func main() {
	docs := flag.Int("docs", 800, "number of articles to generate")
	k := flag.Int("k", 5, "number of topics")
	iters := flag.Int("iters", 200, "Gibbs iterations")
	seed := flag.Uint64("seed", 7, "random seed")
	save := flag.String("save", "", "optional path to save the trained pipeline as a .tpm snapshot")
	flag.Parse()

	articles, err := topmine.GenerateExampleCorpus("ap-news", *docs, *seed)
	if err != nil {
		log.Fatal(err)
	}

	opt := topmine.DefaultOptions()
	opt.Topics = *k
	opt.Iterations = *iters
	opt.Seed = *seed
	opt.MinSupport = 8 // long documents: raise the support floor

	res, err := topmine.Run(articles, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Topics without background filtering ==")
	fmt.Print(topmine.FormatTopics(res.Topics))

	fmt.Println("\n== Corpus-wide background phrases the §8 filter flags ==")
	for _, p := range res.Model.BackgroundPhrases(res.Corpus, 0.5, 8) {
		fmt.Printf("  %-35s total tf=%d\n", p.Display, p.TF)
	}

	fmt.Println("\n== Topics with background filtering ==")
	filtered := res.Model.Visualize(res.Corpus, topmine.VisualizeOptions{
		FilterBackground: true, BackgroundMaxShare: 0.5,
	})
	fmt.Print(topmine.FormatTopics(filtered))

	if *save != "" {
		if err := os.MkdirAll(filepath.Dir(*save), 0o755); err != nil && filepath.Dir(*save) != "." {
			log.Fatal(err)
		}
		if err := topmine.SaveSnapshotFile(*save, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nsnapshot saved to %s (serve it with topmined -model %s)\n", *save, *save)
	}
}
