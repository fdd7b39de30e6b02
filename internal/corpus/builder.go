package corpus

import (
	"fmt"
	"io"
	"os"

	"topmine/internal/textproc"
)

// BuildOptions controls how raw text becomes a Corpus.
type BuildOptions struct {
	// Stem applies the Porter stemmer to every kept token (paper §7.1).
	Stem bool
	// RemoveStopwords drops stop words and letter-free tokens from the
	// mining stream, tracking them in Gaps for later re-insertion.
	RemoveStopwords bool
	// KeepSurface stores the surface form and gap of every kept token.
	// Required for stop-word re-insertion in displayed phrases; costs
	// memory proportional to the corpus, so benchmarks disable it.
	KeepSurface bool
	// Workers sets how many goroutines BuildFromSource tokenizes with
	// (0 = GOMAXPROCS). It affects only build speed: the built corpus
	// is bit-identical for every worker count.
	Workers int
}

// DefaultBuildOptions mirrors the paper's preprocessing: stemming on,
// stop-word removal on, surfaces kept for display.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{Stem: true, RemoveStopwords: true, KeepSurface: true}
}

// Builder incrementally assembles a Corpus from raw document strings.
type Builder struct {
	opt   BuildOptions
	tk    *Tokenizer
	vocab *textproc.Vocab
	ar    *tokenArena
	docs  []*Document
	total int
}

// NewBuilder returns a Builder with the given options.
func NewBuilder(opt BuildOptions) *Builder { return newBuilder(opt, NewTokenizer(opt)) }

// newBuilder returns a Builder that scans through tk, so one ingest
// goroutine's stem memo outlives the chunk builders it fills.
func newBuilder(opt BuildOptions, tk *Tokenizer) *Builder {
	return &Builder{opt: opt, tk: tk, vocab: textproc.NewVocab(), ar: newArena(opt.KeepSurface)}
}

// Add processes one raw document and appends it to the corpus.
// Documents that tokenize to nothing still occupy a slot (so external
// ids stay aligned) but contain zero segments.
func (b *Builder) Add(text string) *Document {
	doc := b.tk.add(b.ar, b.vocab, text, len(b.docs))
	b.total += doc.Len()
	b.docs = append(b.docs, doc)
	return doc
}

// Corpus returns a snapshot of everything added so far: the returned
// Corpus's document list and TotalTokens are fixed at the moment of
// the call and are not extended by later Adds — call Corpus again for
// an updated view. Snapshots are cheap: the documents, token arena and
// vocabulary are shared with the Builder (the arena only ever grows,
// so earlier snapshots stay valid), which also means vocabulary counts
// visible through a snapshot keep growing while the Builder is in use.
func (b *Builder) Corpus() *Corpus {
	return &Corpus{Docs: b.docs[:len(b.docs):len(b.docs)], Vocab: b.vocab,
		TotalTokens: b.total, BuildOpts: b.opt}
}

// FromStrings builds a corpus treating each element as one document.
func FromStrings(docs []string, opt BuildOptions) *Corpus {
	c, err := BuildFromSource(SliceSource(docs), opt)
	if err != nil {
		// SliceSource never fails and the builder itself has no error
		// paths, so this is unreachable.
		panic(err)
	}
	return c
}

// ReadLines builds a corpus from r, one document per line. Long lines
// (up to 16 MiB) are supported.
func ReadLines(r io.Reader, opt BuildOptions) (*Corpus, error) {
	return BuildFromSource(LineSource(r), opt)
}

// LoadFile builds a corpus from a one-document-per-line text file.
// gzip-compressed files are detected by their magic bytes and
// decompressed transparently.
func LoadFile(path string, opt BuildOptions) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	r, err := MaybeDecompress(f)
	if err != nil {
		return nil, err
	}
	return ReadLines(r, opt)
}
