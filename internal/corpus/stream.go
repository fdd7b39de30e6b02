package corpus

import (
	"runtime"
	"sync"

	"topmine/internal/strtab"
)

// chunkDocs is how many documents one worker chunk holds. Chunk
// boundaries are a function of document position only, so the merged
// corpus is identical for every worker count; the value trades
// scheduling overhead against merge-reorder buffering (at most
// ~2×workers chunks are in flight).
const chunkDocs = 256

// BuildFromSource builds a corpus by streaming documents out of src:
// nothing but the finished columnar corpus and a bounded window of
// in-flight chunks is ever resident, so multi-gigabyte inputs ingest
// in memory proportional to their token count, not their raw text.
//
// Tokenizing, stemming and interning run on opt.Workers goroutines
// (0 = GOMAXPROCS), each building an isolated shard with its own
// vocabulary; shards are then folded into the global corpus in input
// order, which replays vocabulary interning deterministically. The
// result is bit-identical to feeding every document to Builder.Add
// serially, for any worker count.
func BuildFromSource(src Source, opt BuildOptions) (*Corpus, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	serial := func(docs []string) (*Corpus, error) {
		b := NewBuilder(opt)
		for _, d := range docs {
			b.Add(d)
		}
		for {
			doc, ok, err := src.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				b.compact()
				return b.Corpus(), nil
			}
			b.Add(doc)
		}
	}
	if workers == 1 {
		return serial(nil)
	}

	// Pre-read the first chunk: a source that fits in one chunk (the
	// common case for tests, examples and small FromStrings calls)
	// takes the plain serial path instead of paying for goroutines and
	// a shard merge.
	first := make([]string, 0, chunkDocs)
	for len(first) < chunkDocs {
		doc, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return serial(first)
		}
		first = append(first, doc)
	}

	type job struct {
		seq  int
		docs []string
	}
	type shard struct {
		seq int
		b   *Builder
	}
	jobs := make(chan job, workers)
	shards := make(chan shard, workers)
	errc := make(chan error, 1)
	// inflight bounds dispatched-but-unmerged chunks, keeping peak
	// memory at a fixed multiple of the worker count even when one
	// slow chunk lets the rest of the corpus race ahead of the
	// in-order merge. The merge releases a slot per folded chunk, and
	// every dispatched chunk is eventually folded, so the reader can
	// never deadlock on a full window.
	inflight := make(chan struct{}, 2*workers)

	// Reader: pull documents, cut fixed-size chunks. On a source error
	// it records the error and stops; the deferred close drains the
	// pipeline so the error check below runs after all workers exit.
	go func() {
		defer close(jobs)
		seq := 0
		dispatch := func(docs []string) {
			inflight <- struct{}{}
			jobs <- job{seq, docs}
			seq++
		}
		dispatch(first)
		docs := make([]string, 0, chunkDocs)
		for {
			doc, ok, err := src.Next()
			if err != nil {
				errc <- err
				return
			}
			if !ok {
				break
			}
			docs = append(docs, doc)
			if len(docs) == chunkDocs {
				dispatch(docs)
				docs = make([]string, 0, chunkDocs)
			}
		}
		if len(docs) > 0 {
			dispatch(docs)
		}
	}()

	// Workers: tokenize+stem+intern each chunk into a private shard.
	// Each worker's tokenizer, and so its stem memo, lives across all
	// of its chunks.
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := NewTokenizer(opt)
			for j := range jobs {
				sb := newBuilder(opt, tk)
				for _, d := range j.docs {
					sb.Add(d)
				}
				shards <- shard{j.seq, sb}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(shards)
	}()

	// Merge: fold shards into the global corpus strictly in input
	// order, buffering the few that finish early. The first shard is
	// adopted wholesale — merging into an empty builder would assign
	// identical ids, so the copy is pure waste.
	var g *Builder
	next := 0
	pending := make(map[int]*Builder)
	for s := range shards {
		pending[s.seq] = s.b
		for {
			sb, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if g == nil {
				g = sb
			} else {
				g.merge(sb)
			}
			<-inflight
			next++
		}
	}
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	g.compact()
	return g.Corpus(), nil
}

// compact repacks the builder's storage into exactly-sized blocks: the
// arena sheds append slack, and the per-document Document structs and
// Segments slices — one heap object each during building — are rewritten
// into two shared blocks. On short-document corpora this allocator
// overhead rivals the token data itself, so BuildFromSource compacts
// once before returning. Safe only while no snapshot shares the
// builder, which is why incremental Builder.Add users are not
// compacted behind their backs.
func (b *Builder) compact() {
	b.ar.words = append(make([]int32, 0, len(b.ar.words)), b.ar.words...)
	if b.opt.KeepSurface {
		b.ar.surface = append(make([]uint32, 0, len(b.ar.surface)), b.ar.surface...)
		b.ar.gaps = append(make([]uint32, 0, len(b.ar.gaps)), b.ar.gaps...)
		b.ar.pool.strs = append(make([]string, 0, len(b.ar.pool.strs)), b.ar.pool.strs...)
	}
	// The intern table's index is only needed while building; reads go
	// through pool.strs, whose strings keep the table's arena alive.
	// Dropping the table here frees its end offsets and slots for the
	// corpus's whole lifetime. Interning into this builder afterwards
	// panics, which is why compact is finalisation-only.
	b.ar.pool.tab = strtab.Table{}
	totalSegs := 0
	for _, d := range b.docs {
		totalSegs += len(d.Segments)
	}
	segBlock := make([]Segment, 0, totalSegs)
	docBlock := make([]Document, len(b.docs))
	for i, d := range b.docs {
		start := len(segBlock)
		segBlock = append(segBlock, d.Segments...)
		docBlock[i] = Document{ID: d.ID, Segments: segBlock[start:len(segBlock):len(segBlock)]}
		b.docs[i] = &docBlock[i]
	}
}

// merge folds a shard builder into b: stems are re-interned into b's
// vocabulary in the shard's first-occurrence order (matching what
// serial Adds of the same documents would have produced), token and
// string-pool ids are remapped, and the shard's documents are
// renumbered onto the end of b's document list.
func (b *Builder) merge(s *Builder) {
	remap := s.vocab.MergeInto(b.vocab)
	b.ar.grow(len(s.ar.words))
	base := b.ar.mark()
	for _, w := range s.ar.words {
		b.ar.words = append(b.ar.words, remap[w])
	}
	if b.opt.KeepSurface {
		poolRemap := make([]uint32, len(s.ar.pool.strs))
		for i, str := range s.ar.pool.strs {
			poolRemap[i] = b.ar.pool.intern(str)
		}
		for _, id := range s.ar.surface {
			b.ar.surface = append(b.ar.surface, poolRemap[id])
		}
		for _, id := range s.ar.gaps {
			b.ar.gaps = append(b.ar.gaps, poolRemap[id])
		}
	}
	for _, d := range s.docs {
		nd := &Document{ID: len(b.docs), Segments: make([]Segment, len(d.Segments))}
		for i, sg := range d.Segments {
			nd.Segments[i] = Segment{ar: b.ar, off: base + sg.off, n: sg.n}
		}
		b.docs = append(b.docs, nd)
	}
	b.total += s.total
}
