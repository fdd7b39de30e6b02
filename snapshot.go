package topmine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"topmine/internal/atomicfile"
	"topmine/internal/counter"
	"topmine/internal/phrasemine"
	"topmine/internal/secfile"
	"topmine/internal/textproc"
	"topmine/internal/topicmodel"
)

// A snapshot is an internal/secfile section container with magic
// "TPMSNAP\x00" and version 2 — the same header, section table,
// 64-byte-aligned payloads and per-section CRC-32 as a .tpc corpus
// file. It holds one small gob section of options, topic summaries and
// mining scalars, and four flat sections each decoded in one pass into
// single arenas: the vocabulary, the mined phrase counts, the priors
// with N_k, and a sparse N_wk. A training snapshot adds one gob section
// with the per-document state.
//
// Version 1 files (magic, a big-endian uint16 version, the payload
// length, its CRC-32, then one gob payload) still load. A build that
// reads only version 1 reads the version-2 header's little-endian 2 as
// 512 and rejects the file by version.
const snapshotMagic = "TPMSNAP\x00"

// SnapshotVersion is the format version SaveSnapshot writes.
// LoadSnapshot reads it and version 1.
const SnapshotVersion uint16 = 2

// snapshotVersion1 is the gob-payload format of earlier builds.
const snapshotVersion1 uint16 = 1

// Section ids of a version-2 snapshot.
const (
	snapMeta     uint32 = 1 // gob: snapshotMeta
	snapVocab    uint32 = 2 // textproc.Vocab.AppendFlat
	snapMined    uint32 = 3 // counter.NGrams.AppendFlat
	snapPriors   uint32 = 4 // topicmodel: K, α, AlphaSum, β, BetaSum, N_k
	snapNwk      uint32 = 5 // topicmodel: sparse N_wk rows
	snapTraining uint32 = 6 // gob: snapshotTraining (training snapshots only)
)

// maxCellsPerByte caps the one allocation the section sizes do not
// bound, the V×K count arena of a training snapshot or of a frozen
// model's Materialize, at this many cells per byte of snapshot. Sparse
// N_wk is what makes files small: the benchmark models need at most 8
// cells per byte, and a model over the cap (K in the tens of
// thousands) fails to load with a named error rather than letting a
// few crafted bytes ask for gigabytes.
const maxCellsPerByte = 1024

// Named snapshot errors; every load failure of a version-2 file wraps
// one of them.
var (
	errSnapBadMagic  = errors.New("topmine: not a topmine snapshot (bad magic)")
	errSnapVersion   = errors.New("topmine: unsupported snapshot version")
	errSnapTruncated = errors.New("topmine: snapshot truncated")
	errSnapChecksum  = errors.New("topmine: snapshot corrupted (checksum mismatch)")
	errSnapFormat    = errors.New("topmine: malformed snapshot")
)

var snapErrs = secfile.Errors{
	BadMagic:  errSnapBadMagic,
	Version:   errSnapVersion,
	Truncated: errSnapTruncated,
	Checksum:  errSnapChecksum,
	Format:    errSnapFormat,
}

// snapshotMeta is the gob section: what is small and structured.
type snapshotMeta struct {
	Options         Options
	CorpusOpts      CorpusOptions
	Topics          []TopicSummary
	TotalTokens     int
	MinSupport      int
	MaxPhraseLen    int
	LevelCandidates []int
}

// snapshotTraining is the gob section of a training snapshot: the
// model's per-document state, which Validate recounts on load.
type snapshotTraining struct {
	Docs []topicmodel.Doc
	Z    [][]int32
	Ndk  [][]int32
	Nd   []int32
}

// snapshotPayload is the version-1 gob payload.
type snapshotPayload struct {
	Options    Options
	CorpusOpts CorpusOptions
	Vocab      *textproc.Vocab
	Mined      *MinedPhrases
	Model      *Model
	Topics     []TopicSummary
}

// SaveSnapshot persists a trained pipeline Result as one versioned,
// self-describing file: vocabulary, corpus preprocessing options,
// mined phrase statistics, pipeline options, the model's frozen
// serving parameters (priors and topic-word counts), and rendered
// topic summaries. The Result must carry a corpus (for its
// vocabulary), mined phrases, and a model; Segmented may be nil. The
// per-document training state is left out, so the file grows with the
// vocabulary, not the corpus. To persist it so Gibbs sweeps can
// continue later, use SaveTrainingSnapshot instead.
func SaveSnapshot(w io.Writer, r *Result) error {
	return saveSnapshot(w, r, false)
}

// SaveTrainingSnapshot is SaveSnapshot, but the model keeps its
// per-document training state (documents, assignments, document-topic
// counts) instead of being frozen to serving parameters. A snapshot
// saved this way loads into a Result whose Resumable method reports
// true, and ResumeTraining (or `topmine load snap.tpm -iters N`)
// continues collapsed Gibbs sweeps exactly where training stopped.
// Serving reads the same sections as from a frozen snapshot; size
// grows with the corpus, not just the vocabulary.
func SaveTrainingSnapshot(w io.Writer, r *Result) error {
	return saveSnapshot(w, r, true)
}

func saveSnapshot(w io.Writer, r *Result, keepTraining bool) error {
	switch {
	case r == nil:
		return fmt.Errorf("topmine: SaveSnapshot: nil Result")
	case r.Corpus == nil || r.Corpus.Vocab == nil:
		return fmt.Errorf("topmine: SaveSnapshot: Result has no corpus vocabulary")
	case r.Mined == nil:
		return fmt.Errorf("topmine: SaveSnapshot: Result has no mined phrases")
	case r.Model == nil:
		return fmt.Errorf("topmine: SaveSnapshot: Result has no trained model")
	case r.Model.V != r.Corpus.Vocab.Size():
		return fmt.Errorf("topmine: SaveSnapshot: model vocabulary size %d does not match corpus vocabulary %d",
			r.Model.V, r.Corpus.Vocab.Size())
	case keepTraining && len(r.Model.Docs) == 0:
		return fmt.Errorf("topmine: SaveTrainingSnapshot: model carries no training state (was it loaded from a frozen snapshot?)")
	}
	m := r.Mined
	meta, err := gobBytes(snapshotMeta{
		Options:         r.Options,
		CorpusOpts:      r.Corpus.BuildOpts,
		Topics:          r.Topics,
		TotalTokens:     m.TotalTokens,
		MinSupport:      m.MinSupport,
		MaxPhraseLen:    m.MaxPhraseLen,
		LevelCandidates: m.LevelCandidates,
	})
	if err != nil {
		return err
	}
	priors, nwk, err := r.Model.EncodeFlat()
	if err != nil {
		return fmt.Errorf("topmine: SaveSnapshot: %w", err)
	}
	secs := []secfile.Section{
		secfile.Bytes(snapMeta, meta),
		secfile.Bytes(snapVocab, r.Corpus.Vocab.AppendFlat(nil)),
		secfile.Bytes(snapMined, m.Counts.AppendFlat(nil)),
		secfile.Bytes(snapPriors, priors),
		secfile.Bytes(snapNwk, nwk),
	}
	if keepTraining {
		mod := r.Model
		train, err := gobBytes(snapshotTraining{Docs: mod.Docs, Z: mod.Z, Ndk: mod.Ndk, Nd: mod.Nd})
		if err != nil {
			return err
		}
		secs = append(secs, secfile.Bytes(snapTraining, train))
	}
	if err := secfile.Write(w, snapshotMagic, SnapshotVersion, secs); err != nil {
		return fmt.Errorf("topmine: writing snapshot: %w", err)
	}
	return nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("topmine: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadSnapshot reads a file written by SaveSnapshot and reconstructs a
// Result ready for inference and serving. The returned Result's Corpus
// carries the vocabulary but no documents, Segmented is nil, and the
// Model holds only frozen serving parameters (no per-document training
// state) unless the file is a training snapshot: all are training-time
// artifacts the snapshot deliberately omits. A frozen Model keeps K,
// V, the priors, N_k and N_wk's sparse rows, with Nwk nil: inference
// and re-saving never build the dense V×K matrix. Its methods that
// read dense rows build it first; callers that read Nwk themselves
// call Model.Materialize. Both format versions load to the same
// Result. LoadSnapshot reads r to its end. Corrupted, truncated, or
// foreign files return errors — LoadSnapshot never panics on bad
// input.
func LoadSnapshot(r io.Reader) (*Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("topmine: reading snapshot: %w", err)
	}
	return decodeSnapshot(data)
}

// LoadSnapshotFile reads a snapshot from path.
func LoadSnapshotFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("topmine: %w", err)
	}
	return decodeSnapshot(data)
}

// decodeSnapshot dispatches on the header's version field: version 1
// wrote it big-endian, the container writes it little-endian.
func decodeSnapshot(data []byte) (*Result, error) {
	if len(data) < len(snapshotMagic) || !bytes.Equal(data[:len(snapshotMagic)], []byte(snapshotMagic)) {
		return nil, fmt.Errorf("%w (magic %q)", errSnapBadMagic, data[:min(len(data), len(snapshotMagic))])
	}
	if len(data) < len(snapshotMagic)+2 {
		return nil, fmt.Errorf("%w: %d-byte file ends inside the header", errSnapTruncated, len(data))
	}
	v := data[len(snapshotMagic):]
	be, le := binary.BigEndian.Uint16(v), binary.LittleEndian.Uint16(v)
	switch {
	case be == snapshotVersion1:
		return decodeSnapshotV1(data[len(snapshotMagic)+2:])
	case le == SnapshotVersion:
		return decodeSnapshotV2(data)
	}
	return nil, fmt.Errorf("%w %d (this build reads versions %d and %d)",
		errSnapVersion, min(be, le), snapshotVersion1, SnapshotVersion)
}

// decodeSnapshotV2 decodes a section-container snapshot.
func decodeSnapshotV2(data []byte) (*Result, error) {
	im, err := secfile.Decode(data, snapshotMagic, snapErrs, SnapshotVersion)
	if err != nil {
		return nil, err
	}
	for _, id := range []uint32{snapMeta, snapVocab, snapMined, snapPriors, snapNwk} {
		if _, ok := im.Sections[id]; !ok {
			return nil, fmt.Errorf("%w: missing section %d", errSnapFormat, id)
		}
	}
	body := func(id uint32) []byte { b, _ := im.Body(id); return b }
	var meta snapshotMeta
	if err := secfile.GobDecode(body(snapMeta), &meta); err != nil {
		return nil, fmt.Errorf("%w: options: %v", errSnapFormat, err)
	}
	vocab, err := textproc.DecodeFlatVocab(body(snapVocab))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSnapFormat, err)
	}
	counts, err := counter.DecodeFlat(body(snapMined), vocab.Size())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSnapFormat, err)
	}
	model, err := topicmodel.DecodeFlat(body(snapPriors), body(snapNwk), vocab.Size(), maxCellsPerByte*len(data))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSnapFormat, err)
	}
	if b, ok := im.Body(snapTraining); ok {
		var tr snapshotTraining
		err := secfile.GobDecode(b, &tr)
		if err == nil {
			tr.Docs, err = topicmodel.UpgradeLegacyDocs(tr.Docs, tr.Z, func(l *topicmodel.LegacyDocs) error {
				return secfile.GobDecode(b, l)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%w: training state: %v", errSnapFormat, err)
		}
		model.Docs, model.Z, model.Ndk, model.Nd = tr.Docs, tr.Z, tr.Ndk, tr.Nd
		// The recount rejects training state that disagrees with the
		// counts; a frozen model's sections were checked as they decoded.
		if err := model.Validate(); err != nil {
			return nil, fmt.Errorf("%w: model invalid: %v", errSnapFormat, err)
		}
	}
	mined := &MinedPhrases{
		Counts:          counts,
		TotalTokens:     meta.TotalTokens,
		MinSupport:      meta.MinSupport,
		MaxPhraseLen:    meta.MaxPhraseLen,
		LevelCandidates: meta.LevelCandidates,
	}
	return loadedResult(vocab, mined, model, meta.Topics, meta.Options, meta.CorpusOpts)
}

// decodeSnapshotV1 decodes the body of a version-1 snapshot: the
// payload length, its CRC-32 and the gob payload.
func decodeSnapshotV1(rest []byte) (*Result, error) {
	if len(rest) < 12 {
		return nil, fmt.Errorf("%w: file ends inside the header", errSnapTruncated)
	}
	payloadLen := binary.BigEndian.Uint64(rest)
	wantCRC := binary.BigEndian.Uint32(rest[8:])
	body := rest[12:]
	if uint64(len(body)) < payloadLen {
		return nil, fmt.Errorf("%w: payload is %d of %d bytes", errSnapTruncated, len(body), payloadLen)
	}
	body = body[:payloadLen]
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("%w: payload CRC %08x, header says %08x", errSnapChecksum, got, wantCRC)
	}
	var payload snapshotPayload
	err := secfile.GobDecode(body, &payload)
	if err == nil && payload.Model != nil {
		payload.Model.Docs, err = topicmodel.UpgradeLegacyDocs(payload.Model.Docs, payload.Model.Z, func(l *topicmodel.LegacyDocs) error {
			return secfile.GobDecode(body, &struct{ Model *topicmodel.LegacyDocs }{l})
		})
	}
	if err != nil {
		return nil, fmt.Errorf("topmine: decoding snapshot: %w", err)
	}
	switch {
	case payload.Vocab == nil:
		return nil, fmt.Errorf("topmine: snapshot missing vocabulary")
	case payload.Mined == nil || payload.Mined.Counts == nil:
		return nil, fmt.Errorf("topmine: snapshot missing mined phrases")
	case payload.Model == nil:
		return nil, fmt.Errorf("topmine: snapshot missing model")
	case payload.Model.K <= 0:
		return nil, fmt.Errorf("topmine: snapshot model has %d topics", payload.Model.K)
	case payload.Model.V != payload.Vocab.Size():
		return nil, fmt.Errorf("topmine: snapshot model vocabulary size %d does not match stored vocabulary %d",
			payload.Model.V, payload.Vocab.Size())
	}
	// Validate the model — shapes always, plus a full recount against
	// the assignments when the snapshot carries training state — so a
	// malformed (but CRC-valid) file fails here with an error instead
	// of panicking inside a later inference call or resumed sweep.
	model := payload.Model
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("topmine: snapshot model invalid: %w", err)
	}
	if len(model.Docs) == 0 {
		// Frozen, as from a version-2 file: N_wk in its sparse form only.
		model.ResetSampler(0) // arms the arena EncodeFlat walks
		priors, nwk, err := model.EncodeFlat()
		if err == nil {
			model, err = topicmodel.DecodeFlat(priors, nwk, model.V, math.MaxInt)
		}
		if err != nil {
			return nil, fmt.Errorf("topmine: snapshot model invalid: %w", err)
		}
	}
	return loadedResult(payload.Vocab, payload.Mined, model, payload.Topics, payload.Options, payload.CorpusOpts)
}

// loadedResult assembles a Result from a snapshot's artifacts and arms
// the model's sampler. It rejects a MaxPhraseLen that no mined phrase
// reaches: NewInferencer sizes the index's smoothing tables by it.
func loadedResult(vocab *textproc.Vocab, mined *phrasemine.Result, model *Model,
	topics []TopicSummary, opt Options, copt CorpusOptions) (*Result, error) {
	longest := mined.Counts.MaxLen()
	if mined.MaxPhraseLen < min(1, longest) || mined.MaxPhraseLen > longest {
		return nil, fmt.Errorf("%w: MaxPhraseLen is %d, the longest mined phrase has %d words",
			errSnapFormat, mined.MaxPhraseLen, longest)
	}
	model.ResetSampler(opt.Seed)
	return &Result{
		Corpus: &Corpus{
			Vocab:       vocab,
			TotalTokens: mined.TotalTokens,
			BuildOpts:   copt,
		},
		Mined:   mined,
		Model:   model,
		Topics:  topics,
		Options: opt,
	}, nil
}

// SaveSnapshotFile writes a snapshot to path atomically: the bytes go
// to a temporary file in the same directory which is renamed into
// place only after a successful write, so a failed or interrupted save
// never destroys an existing snapshot at path. The file's permissions
// match what a plain os.Create(path) would produce — an existing
// file's mode is preserved, and a fresh file gets 0644 filtered by the
// process umask.
func SaveSnapshotFile(path string, r *Result) error {
	return saveSnapshotFile(path, r, SaveSnapshot)
}

func saveSnapshotFile(path string, r *Result, save func(io.Writer, *Result) error) error {
	err := atomicfile.Write(path, func(w io.Writer) error {
		return save(w, r)
	})
	// Encoding errors (from save) already carry the topmine prefix;
	// the atomic-write machinery's own failures get it added here.
	var ae *atomicfile.Error
	if errors.As(err, &ae) {
		return fmt.Errorf("topmine: %w", err)
	}
	return err
}

// SaveTrainingSnapshotFile writes a training snapshot (see
// SaveTrainingSnapshot) to path with the same atomic-replace semantics
// as SaveSnapshotFile.
func SaveTrainingSnapshotFile(path string, r *Result) error {
	return saveSnapshotFile(path, r, SaveTrainingSnapshot)
}
