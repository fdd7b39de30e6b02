package main

// metric is one reported reading. The tables below are the benchmark's
// vocabulary: BENCHMARK.json lists the same names, units and directions
// (TestBenchmarkJSON keeps the two in step), and later performance
// issues name their metric and workload from here.
type metric struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
}

// endToEnd is what a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metric{
	{"setup_s", "s", false},
	{"batch_s", "s", false},
	{"batch_rss_mb", "MB", false},
	{"perplexity", "ppl", false},
	{"phrase_recall", "ratio", true},
	{"model_file_mb", "MB", false},
	{"cold_load_ms", "ms", false},
	{"serve_rss_mb", "MB", false},
	{"serve_rps", "req/s", true},
	{"req_p50_ms", "ms", false},
	{"req_p95_ms", "ms", false},
}

// perLayer is what a traced run reports, one block per module. README.md
// records which end-to-end metric each block should move, and where.
var perLayer = []metric{
	{"corpus.build_s", "s", false},
	{"corpus.ns_per_tok", "ns/tok", false},
	{"corpus.docs", "count", true},
	{"corpus.tokens", "count", true},
	{"corpus.vocab", "count", true},
	{"corpus.alloc_mb", "MB", false},

	{"phrasemine.mine_s", "s", false},
	{"phrasemine.ns_per_tok", "ns/tok", false},
	{"phrasemine.phrases", "count", false},
	{"phrasemine.max_len", "count", true},
	{"phrasemine.planted_recall", "ratio", true},
	{"phrasemine.alloc_mb", "MB", false},

	{"segment.corpus_s", "s", false},
	{"segment.ns_per_tok", "ns/tok", false},
	{"segment.phrases_out", "count", false},
	{"segment.multiword_share", "ratio", true},

	{"topicmodel.train_s", "s", false},
	{"topicmodel.sweep_tok_per_s", "tok/s", true},
	{"topicmodel.sweep_p50_ms", "ms", false},
	{"topicmodel.first_sweep_ms", "ms", false},
	{"topicmodel.sample_s", "s", false},
	{"topicmodel.reconcile_share", "ratio", false},
	{"topicmodel.visualize_s", "s", false},
	{"topicmodel.nnz_per_word", "count", false},
	{"topicmodel.nnz_per_doc", "count", false},

	{"corpusfile.save_s", "s", false},
	{"corpusfile.open_ms", "ms", false},
	{"corpusfile.file_mb", "MB", false},
	{"corpusfile.reused", "count", true},

	{"snapshot.save_ms", "ms", false},
	{"snapshot.load_ms", "ms", false},
	{"snapshot.load_alloc_mb", "MB", false},
	{"snapshot.load_mallocs", "count", false},
	{"snapshot.cold_load_p50_ms", "ms", false},

	{"inferencer.build_ms", "ms", false},
	{"inferencer.first_infer_ms", "ms", false},
	{"inferencer.infer_us_p50", "us", false},
	{"inferencer.infer_us_p99", "us", false},
	{"inferencer.segment_us_p50", "us", false},
	{"inferencer.allocs_per_infer", "count", false},
	{"inferencer.tokens_per_req", "count", true},
	{"inferencer.heap_mb", "MB", false},
	{"inferencer.heap_objects", "count", false},

	{"serve.handle_us_p50", "us", false},
	{"serve.handle_us_p99", "us", false},
	{"serve.hit_us_p50", "us", false},
	{"serve.segment_us_p50", "us", false},
	{"serve.cache_hit_ratio", "ratio", true},
	{"serve.cache_evictions", "count", false},
	{"serve.reload_ms", "ms", false},
	{"serve.batch_docs_per_s", "docs/s", true},
	{"serve.transport_us_p50", "us", false},
	{"serve.pooled_p50_ms", "ms", false},
	{"serve.pooled_p99_ms", "ms", false},
	{"serve.window_rps", "req/s", true},
	{"serve.requests", "count", true},
	{"serve.failed", "count", false},

	{"gc.batch_pause_ms", "ms", false},
	{"gc.batch_cycles", "count", false},
	{"gc.serve_pause_ms", "ms", false},
	{"gc.serve_cycles", "count", false},

	// The traced run's own readings of two end-to-end quantities;
	// (traced − untraced) ÷ untraced is trace.overhead_share, which the
	// suite report prints because it needs both runs.
	{"trace.batch_s", "s", false},
	{"trace.req_p50_ms", "ms", false},
}
