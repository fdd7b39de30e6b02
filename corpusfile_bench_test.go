package topmine

// Corpus-file benchmarks guarding the persistent corpus store:
// BenchmarkOpenCorpusFile reports MB/s and allocs for the mmap open
// path, and BenchmarkColdStart puts the two ways of starting a
// training job side by side — re-running ingest+mining+segmentation
// versus Open on the persisted .tpc — which is the measured form of
// the "preprocess once, train many" claim (Open must be ≥10× faster).
// CI runs both with -benchtime=1x as smoke.
//
//	go test -run '^$' -bench 'CorpusFile|ColdStart' -benchtime 10x .

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func benchCorpusFile(b *testing.B) (path string, docs []string, opt Options) {
	b.Helper()
	docs, err := GenerateExampleCorpus("yelp-reviews", 2000, 42)
	if err != nil {
		b.Fatal(err)
	}
	opt = DefaultOptions()
	opt.Workers = 1
	pre, err := Preprocess(SliceSource(docs), opt)
	if err != nil {
		b.Fatal(err)
	}
	path = filepath.Join(b.TempDir(), "bench.tpc")
	if err := SaveCorpusFile(path, pre); err != nil {
		b.Fatal(err)
	}
	return path, docs, opt
}

func BenchmarkOpenCorpusFile(b *testing.B) {
	path, _, _ := benchCorpusFile(b)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("yelp-reviews/mmap", func(b *testing.B) {
		b.SetBytes(fi.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cf, err := OpenCorpusFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if cf.Corpus().NumDocs() != 2000 {
				b.Fatal("short corpus")
			}
			cf.Close()
		}
	})
}

// BenchmarkAppendCorpusFile measures growing a stored 2000-document
// corpus by 500 fresh documents: append cost must scale with the
// appended text (tokenize + intern + one segment write), not with the
// stored corpus. Throughput is relative to the appended raw text.
func BenchmarkAppendCorpusFile(b *testing.B) {
	basePath, _, _ := benchCorpusFile(b)
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		b.Fatal(err)
	}
	newDocs, err := GenerateExampleCorpus("yelp-reviews", 500, 99)
	if err != nil {
		b.Fatal(err)
	}
	rawBytes := 0
	for _, d := range newDocs {
		rawBytes += len(d)
	}
	b.Run("yelp-reviews/append500", func(b *testing.B) {
		dir := b.TempDir()
		b.SetBytes(int64(rawBytes))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			path := filepath.Join(dir, fmt.Sprintf("a%d.tpc", i))
			if err := os.WriteFile(path, baseBytes, 0o644); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			stats, err := AppendCorpusFile(path, SliceSource(newDocs), AppendOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if stats.DocsAdded != 500 {
				b.Fatalf("appended %d docs", stats.DocsAdded)
			}
		}
	})
}

// BenchmarkMergeCorpusFiles measures the 3-way merge of independently
// preprocessed shards. Throughput is relative to the combined source
// file size.
func BenchmarkMergeCorpusFiles(b *testing.B) {
	dir := b.TempDir()
	opt := DefaultOptions()
	opt.Workers = 1
	srcs := make([]string, 3)
	var total int64
	for i := range srcs {
		docs, err := GenerateExampleCorpus("yelp-reviews", 700, uint64(100+i))
		if err != nil {
			b.Fatal(err)
		}
		pre, err := Preprocess(SliceSource(docs), opt)
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = filepath.Join(dir, fmt.Sprintf("shard%d.tpc", i))
		if err := SaveCorpusFile(srcs[i], pre); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(srcs[i])
		if err != nil {
			b.Fatal(err)
		}
		total += fi.Size()
	}
	b.Run("yelp-reviews/merge3x700", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := filepath.Join(dir, fmt.Sprintf("merged%d.tpc", i))
			stats, err := MergeCorpusFiles(dst, srcs...)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Docs != 3*700 {
				b.Fatalf("merged %d docs", stats.Docs)
			}
		}
	})
}

func BenchmarkColdStart(b *testing.B) {
	path, docs, opt := benchCorpusFile(b)
	b.Run("yelp-reviews/reprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Preprocess(SliceSource(docs), opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yelp-reviews/opencorpusfile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cf, err := OpenCorpusFile(path)
			if err != nil {
				b.Fatal(err)
			}
			cf.Close()
		}
	})
}
