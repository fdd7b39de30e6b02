package segment

import (
	"runtime"
	"sync"

	"topmine/internal/corpus"
	"topmine/internal/counter"
	"topmine/internal/phrasemine"
)

// Options configures phrase construction.
type Options struct {
	// Alpha is the significance threshold α: merging stops when the
	// best candidate merge scores below it. The paper's running example
	// (Fig. 1) uses α = 5, roughly "five standard deviations above
	// independence".
	Alpha float64
	// MaxPhraseLen bounds constructed phrase length; 0 = unbounded.
	MaxPhraseLen int
	// Score is the merge significance measure; nil means TStat (Eq. 1).
	Score ScoreFunc
	// Workers parallelises segmentation across documents; 0 means
	// GOMAXPROCS. Results are deterministic regardless.
	Workers int
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options { return Options{Alpha: 5, MaxPhraseLen: 8, Workers: 1} }

// Span is a phrase instance: tokens [Start, End) of one segment.
type Span struct {
	Start, End int
}

// Len returns the phrase length in tokens.
func (s Span) Len() int { return s.End - s.Start }

// SegmentedDoc is the partition of one document: for each of its
// segments, an ordered list of spans that concatenate back to the
// segment (the partition property of Definition 1).
type SegmentedDoc struct {
	DocID int
	Spans [][]Span
}

// Segmenter partitions documents into phrases using mined counts.
type Segmenter struct {
	counts *counter.NGrams
	l      float64
	opt    Options
}

// NewSegmenter builds a Segmenter from Algorithm 1's output.
func NewSegmenter(mined *phrasemine.Result, opt Options) *Segmenter {
	if opt.Score == nil {
		opt.Score = TStat
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	l := float64(mined.TotalTokens)
	if l < 1 {
		l = 1
	}
	return &Segmenter{counts: mined.Counts, l: l, opt: opt}
}

// workspace holds the per-segment scratch state reused across calls.
// Nodes are the current phrases of the segment: the n tokens first,
// then one node per executed merge.
type workspace struct {
	start, end []int32
	prev, next []int32
	alive      []bool
	// count is each node's corpus phrase count: set from the merge
	// entry for a merged node, and probed on first use (-1 until then)
	// for a token, so scoring a candidate probes the counter only for
	// the concatenation.
	count        []int64
	heap         mergeHeap
	keyBuf       []byte
	spansScratch []Span
	trace        *[]MergeStep // non-nil: record executed merges
}

func (w *workspace) resize(n int) {
	if cap(w.start) < 2*n {
		w.start = make([]int32, 0, 2*n)
		w.end = make([]int32, 0, 2*n)
		w.prev = make([]int32, 0, 2*n)
		w.next = make([]int32, 0, 2*n)
		w.alive = make([]bool, 0, 2*n)
		w.count = make([]int64, 0, 2*n)
	}
	w.start = w.start[:0]
	w.end = w.end[:0]
	w.prev = w.prev[:0]
	w.next = w.next[:0]
	w.alive = w.alive[:0]
	w.count = w.count[:0]
	w.heap.reset()
}

// MergeStep records one executed merge of Algorithm 2, for tracing the
// bottom-up construction (the dendrogram of the paper's Figure 1).
type MergeStep struct {
	// Left and Right are the merged operand spans; Merged covers both.
	Left, Right, Merged Span
	// Sig is the significance score that triggered the merge.
	Sig float64
}

// Partition runs Algorithm 2 on one segment's word ids and returns its
// covering spans in order.
func (s *Segmenter) Partition(words []int32) []Span {
	var w workspace
	return s.partition(words, &w)
}

// Workspace is Partition's reusable working memory for hot callers
// (the serving path partitions every request's segments): the zero
// value is ready, and one Workspace amortises the per-call scratch
// across any number of sequential PartitionWith calls. Not safe for
// concurrent use.
type Workspace struct {
	w workspace
}

// PartitionWith is Partition drawing its scratch from ws. The
// returned spans alias the workspace and are only valid until its
// next use; callers that keep them must copy.
func (s *Segmenter) PartitionWith(words []int32, ws *Workspace) []Span {
	return s.partitionSpans(words, &ws.w)
}

// TracePartition is Partition plus the ordered list of merges it
// performed, highest significance first (the execution order).
func (s *Segmenter) TracePartition(words []int32) ([]Span, []MergeStep) {
	var ws Workspace // private, so the aliasing spans are the caller's
	return s.TracePartitionWith(words, &ws)
}

// TracePartitionWith is TracePartition drawing its scratch from ws.
// As with PartitionWith the spans alias the workspace; the merge list
// is the caller's.
func (s *Segmenter) TracePartitionWith(words []int32, ws *Workspace) ([]Span, []MergeStep) {
	var steps []MergeStep
	ws.w.trace = &steps
	spans := s.partitionSpans(words, &ws.w)
	ws.w.trace = nil
	return spans, steps
}

// partition runs Algorithm 2 and returns freshly allocated spans.
func (s *Segmenter) partition(words []int32, w *workspace) []Span {
	spans := s.partitionSpans(words, w)
	if spans == nil {
		return nil
	}
	out := make([]Span, len(spans))
	copy(out, spans)
	return out
}

// partitionSpans runs Algorithm 2 into the workspace's span scratch;
// the result is overwritten by the workspace's next use.
func (s *Segmenter) partitionSpans(words []int32, w *workspace) []Span {
	n := len(words)
	if n == 0 {
		return nil
	}
	if n == 1 {
		w.spansScratch = append(w.spansScratch[:0], Span{0, 1})
		return w.spansScratch
	}
	w.resize(n)
	for i := 0; i < n; i++ {
		w.start = append(w.start, int32(i))
		w.end = append(w.end, int32(i+1))
		w.prev = append(w.prev, int32(i-1))
		w.next = append(w.next, int32(i+1))
		w.alive = append(w.alive, true)
		w.count = append(w.count, -1)
	}
	w.next[n-1] = -1

	// Seed the heap with all adjacent token pairs (Algorithm 2 line 2).
	for i := 0; i+1 < n; i++ {
		s.pushCandidate(words, w, int32(i), int32(i+1))
	}

	head := int32(0)
	for w.heap.len() > 0 {
		e := w.heap.pop()
		l, r := e.left, e.right
		if !w.alive[l] || !w.alive[r] || w.next[l] != r {
			continue // stale entry: one endpoint has since been merged
		}
		if w.trace != nil {
			*w.trace = append(*w.trace, MergeStep{
				Left:   Span{int(w.start[l]), int(w.end[l])},
				Right:  Span{int(w.start[r]), int(w.end[r])},
				Merged: Span{int(w.start[l]), int(w.end[r])},
				Sig:    e.score,
			})
		}
		// Merge (Algorithm 2 lines 6-8): the pair becomes a new node.
		m := int32(len(w.start))
		w.start = append(w.start, w.start[l])
		w.end = append(w.end, w.end[r])
		w.prev = append(w.prev, w.prev[l])
		w.next = append(w.next, w.next[r])
		w.alive = append(w.alive, true)
		w.count = append(w.count, e.count)
		w.alive[l] = false
		w.alive[r] = false
		if p := w.prev[m]; p >= 0 {
			w.next[p] = m
			s.pushCandidate(words, w, p, m)
		} else {
			head = m
		}
		if nx := w.next[m]; nx >= 0 {
			w.prev[nx] = m
			s.pushCandidate(words, w, m, nx)
		}
	}

	spans := w.spansScratch[:0]
	for id := head; id >= 0; id = w.next[id] {
		spans = append(spans, Span{int(w.start[id]), int(w.end[id])})
	}
	w.spansScratch = spans
	return spans
}

// pushCandidate scores the merge of adjacent nodes l and r and pushes
// it when it could ever be executed (score >= alpha). Candidates whose
// concatenation was not mined as frequent score -Inf and are dropped —
// this is the implicit filtering of false candidates (§4.2).
func (s *Segmenter) pushCandidate(words []int32, w *workspace, l, r int32) {
	lo, hi := int(w.start[l]), int(w.end[r])
	if s.opt.MaxPhraseLen > 0 && hi-lo > s.opt.MaxPhraseLen {
		return
	}
	w.keyBuf = counter.AppendKey(w.keyBuf, words, lo, hi)
	f12 := s.counts.GetBytes(w.keyBuf)
	if f12 <= 0 {
		return
	}
	score := s.opt.Score(float64(s.nodeCount(words, w, l)), float64(s.nodeCount(words, w, r)), float64(f12), s.l)
	if score >= s.opt.Alpha {
		w.heap.push(mergeEntry{score: score, left: l, right: r, count: f12})
	}
}

// nodeCount returns node id's phrase count, probing the counter the
// first time a token node is scored.
func (s *Segmenter) nodeCount(words []int32, w *workspace, id int32) int64 {
	if w.count[id] < 0 {
		w.keyBuf = counter.AppendKey(w.keyBuf, words, int(w.start[id]), int(w.end[id]))
		w.count[id] = s.counts.GetBytes(w.keyBuf)
	}
	return w.count[id]
}

// SegmentDocument partitions every segment of one document.
func (s *Segmenter) SegmentDocument(d *corpus.Document) *SegmentedDoc {
	var w workspace
	return s.segmentDocument(d, &w)
}

func (s *Segmenter) segmentDocument(d *corpus.Document, w *workspace) *SegmentedDoc {
	out := &SegmentedDoc{DocID: d.ID, Spans: make([][]Span, len(d.Segments))}
	for i := range d.Segments {
		out.Spans[i] = s.partition(d.Segments[i].Words(), w)
	}
	return out
}

// SegmentCorpus partitions every document, in parallel when configured.
// Output order matches corpus order and is deterministic.
func (s *Segmenter) SegmentCorpus(c *corpus.Corpus) []*SegmentedDoc {
	out := make([]*SegmentedDoc, len(c.Docs))
	workers := s.opt.Workers
	if workers <= 1 || len(c.Docs) < 16 {
		var w workspace
		for i, d := range c.Docs {
			out[i] = s.segmentDocument(d, &w)
		}
		return out
	}
	var wg sync.WaitGroup
	chunk := (len(c.Docs) + workers - 1) / workers
	for k := 0; k < workers; k++ {
		lo, hi := k*chunk, (k+1)*chunk
		if hi > len(c.Docs) {
			hi = len(c.Docs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var w workspace
			for i := lo; i < hi; i++ {
				out[i] = s.segmentDocument(c.Docs[i], &w)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// PhraseInstances returns, for every multi-word span in the segmented
// corpus, its packed key — convenient for aggregating instance counts.
func PhraseInstances(c *corpus.Corpus, segs []*SegmentedDoc) *counter.NGrams {
	out := counter.New()
	var kb []byte
	for _, sd := range segs {
		d := c.Docs[sd.DocID]
		for si, spans := range sd.Spans {
			words := d.Segments[si].Words()
			for _, sp := range spans {
				kb = counter.AppendKey(kb, words, sp.Start, sp.End)
				out.IncBytes(kb)
			}
		}
	}
	return out
}
