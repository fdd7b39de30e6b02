package dtrain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"topmine/internal/atomicfile"
	"topmine/internal/topicmodel"
	"topmine/internal/xrand"
)

// Barrier checkpoints: the .tpd on-disk format. AD-LDA is tolerant of
// resuming from any globally synchronized state, and a sweep barrier
// is exactly that — every worker's assignments folded back into one
// model. A checkpoint therefore needs only (Z, priors, RNG position,
// sweep number, schedule): the count matrices are a pure function of Z
// and the documents, and the documents rebuild deterministically from
// the corpus file (verified by the stored corpus checksum). A resumed
// run with the same topology is byte-identical to a run that was never
// interrupted, and any worker count can pick the state up — the shard
// split happens after restore.
//
// The container reuses the corpusfile idiom: magic, version,
// byte-order marker, a section table with per-section IEEE CRC-32, and
// offset/length validation against the file size before anything is
// decoded — so torn writes, bit rot and foreign files all fail with a
// named error, never a panic. Files are published via temp-file +
// rename (atomicfile), so a coordinator killed mid-write never
// destroys the previous checkpoint.
//
// Layout:
//
//	offset 0   magic "TPDCKPT\x00" (8 bytes)
//	       8   format version, uint16 LE
//	      10   reserved, uint16 (zero)
//	      12   byte-order marker, uint32 LE
//	      16   section count, uint32 LE
//	      20   section table: count × (id u32, crc u32, offset u64, length u64)
//	      ...  section payloads, in table order, no padding
const (
	ckptMagic   = "TPDCKPT\x00"
	ckptVersion = uint16(1)
	// ckptOrderMarker mirrors corpusfile's guard against a
	// foreign-endian writer: byte-swapped files decode a different value
	// and are rejected up front.
	ckptOrderMarker uint32 = 0x1CC0FFEE
	ckptHeaderSize         = 8 + 2 + 2 + 4 + 4
	ckptEntrySize          = 4 + 4 + 8 + 8
)

// Checkpoint section ids.
const (
	ckSecMeta   uint32 = 1 // fixed-size counts, schedule, RNG state, corpus checksum
	ckSecPriors uint32 = 2 // alpha vector + alphaSum + beta + betaSum
	ckSecZ      uint32 = 3 // per-doc assignment counts, then all assignments
	ckSecNk     uint32 = 4 // topic totals, cross-checked against Z on restore
)

// ckptMetaSize is the fixed meta-section payload: K, V (u32), ndocs,
// sweep (u64), iterations, hyperEvery, burnIn, flags, corpus checksum
// (u32), RNG state (4×u64), total tokens (u64).
const ckptMetaSize = 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 32 + 8

// Meta flag bits. Bit 1 marked a run on the dense reference sampler,
// which no longer ships: writers leave it clear, and readers accept it
// and continue on the sparse sampler.
const ckptFlagOptimizeHyper uint32 = 1

// Named checkpoint error conditions. Every failure returned by
// ReadCheckpointFile (and the corpus validation in Resume) wraps
// exactly one of these, so callers classify with errors.Is instead of
// parsing messages.
var (
	// ErrCkptBadMagic marks a file that is not a .tpd checkpoint at all.
	ErrCkptBadMagic = errors.New("dtrain: not a checkpoint file (bad magic)")
	// ErrCkptVersion marks a checkpoint written by an incompatible
	// format version.
	ErrCkptVersion = errors.New("dtrain: unsupported checkpoint version")
	// ErrCkptTruncated marks a checkpoint shorter than its section table
	// claims — a torn write that escaped the atomic rename, or external
	// truncation.
	ErrCkptTruncated = errors.New("dtrain: checkpoint truncated")
	// ErrCkptChecksum marks a section whose payload fails its CRC.
	ErrCkptChecksum = errors.New("dtrain: checkpoint corrupted (checksum mismatch)")
	// ErrCkptFormat marks a structurally inconsistent checkpoint:
	// impossible counts, out-of-range values, missing sections, or
	// stored topic totals that disagree with the stored assignments.
	ErrCkptFormat = errors.New("dtrain: malformed checkpoint")
	// ErrCorpusMismatch is returned by Resume when the documents rebuilt
	// from the corpus file do not match the checksum the checkpoint was
	// trained against — a different .tpc, or different mining or
	// segmentation parameters.
	ErrCorpusMismatch = errors.New("dtrain: checkpoint does not match corpus")
)

// Checkpoint is one barrier's globally synchronized training state: the
// unit the coordinator snapshots in memory for elastic recovery and
// writes to disk as a .tpd file. Z rows and the slices are owned by the
// checkpoint (deep-copied at capture), so a later sweep cannot mutate a
// snapshot out from under a rollback.
type Checkpoint struct {
	K, V int
	// Sweep is the number of completed sweeps at capture; a resumed run
	// continues with sweep Sweep+1.
	Sweep int
	// The sweep schedule, carried so a resumed run replays the exact
	// remaining barriers (hyper cadence is a function of the absolute
	// sweep number).
	Iterations, HyperEvery, BurnIn int
	OptimizeHyper                  bool
	// CorpusChecksum is DocsChecksum over the full modeling document
	// set; Resume verifies the rebuilt documents against it.
	CorpusChecksum uint32
	// TotalTokens is a redundant integrity cross-check alongside Nk.
	TotalTokens int
	// RNG is the coordinator's sweep-schedule RNG position at the
	// barrier (after the barrier sweep's base draw).
	RNG xrand.State
	// Priors as of the barrier (post hyperparameter update when the
	// barrier was a hyper barrier).
	Alpha                   []float64
	AlphaSum, Beta, BetaSum float64
	// Z holds every document's clique assignments at the barrier.
	Z [][]int32
	// Nk is stored as an integrity cross-check: restore recomputes the
	// counts from Z and fails with ErrCkptFormat if they disagree.
	Nk []int64
}

// captureCheckpoint deep-copies the model's barrier state. It must be
// called only at a barrier where every shard's Z has been installed
// into m (a wantZ barrier, or before the first sweep).
func captureCheckpoint(m *topicmodel.Model, mopt topicmodel.Options, sweep int, corpusSum uint32) *Checkpoint {
	ck := &Checkpoint{
		K: m.K, V: m.V,
		Sweep:          sweep,
		Iterations:     mopt.Iterations,
		HyperEvery:     mopt.HyperEvery,
		BurnIn:         mopt.BurnIn,
		OptimizeHyper:  mopt.OptimizeHyper,
		CorpusChecksum: corpusSum,
		TotalTokens:    m.TotalTokens(),
		RNG:            m.SamplerState(),
		Alpha:          append([]float64(nil), m.Alpha...),
		AlphaSum:       m.AlphaSum,
		Beta:           m.Beta,
		BetaSum:        m.BetaSum,
		Nk:             append([]int64(nil), m.Nk...),
	}
	ck.Z = make([][]int32, len(m.Z))
	for d := range m.Z {
		ck.Z[d] = append([]int32(nil), m.Z[d]...)
	}
	return ck
}

// schedule reconstructs the filled training options a resumed run
// replays. The seed is irrelevant — the RNG position is restored
// exactly — but K must be positive for Filled not to panic, which the
// read path has already validated.
func (ck *Checkpoint) schedule() topicmodel.Options {
	return topicmodel.Options{
		K:             ck.K,
		Iterations:    ck.Iterations,
		HyperEvery:    ck.HyperEvery,
		BurnIn:        ck.BurnIn,
		OptimizeHyper: ck.OptimizeHyper,
	}
}

// restoreModel rebuilds the full coordinator model from the checkpoint
// against the freshly rebuilt documents: corpus checksum first (a
// mismatched corpus fails before any allocation), then counts
// recomputed from Z, then the stored topic totals cross-checked
// against the recomputation, then the RNG position.
func (ck *Checkpoint) restoreModel(docs []topicmodel.Doc, vocabSize int) (*topicmodel.Model, error) {
	if got := topicmodel.DocsChecksum(docs); got != ck.CorpusChecksum {
		return nil, fmt.Errorf("%w: rebuilt documents checksum %08x, checkpoint trained against %08x — different corpus file or mining/segmentation parameters",
			ErrCorpusMismatch, got, ck.CorpusChecksum)
	}
	if vocabSize != ck.V {
		return nil, fmt.Errorf("%w: corpus vocabulary is %d, checkpoint trained against %d", ErrCorpusMismatch, vocabSize, ck.V)
	}
	if len(docs) != len(ck.Z) {
		return nil, fmt.Errorf("%w: corpus has %d documents, checkpoint holds %d", ErrCorpusMismatch, len(docs), len(ck.Z))
	}
	m, err := topicmodel.NewModelFromState(docs, ck.V, ck.K, ck.Alpha, ck.AlphaSum, ck.Beta, ck.BetaSum, ck.Z)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCkptFormat, err)
	}
	if len(ck.Nk) != ck.K {
		return nil, fmt.Errorf("%w: %d topic totals for K=%d", ErrCkptFormat, len(ck.Nk), ck.K)
	}
	tokens := 0
	for k, want := range ck.Nk {
		if m.Nk[k] != want {
			return nil, fmt.Errorf("%w: stored Nk[%d]=%d but assignments recount to %d", ErrCkptFormat, k, want, m.Nk[k])
		}
		tokens += int(want)
	}
	if tokens != ck.TotalTokens {
		return nil, fmt.Errorf("%w: stored token total %d, topic totals sum to %d", ErrCkptFormat, ck.TotalTokens, tokens)
	}
	if err := m.SetSamplerState(ck.RNG); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCkptFormat, err)
	}
	return m, nil
}

// WriteCheckpointFile atomically writes ck to path: the bytes go to an
// exclusively created temp file in the destination directory and are
// renamed into place only after a complete write, so a crash mid-write
// never corrupts the previous checkpoint.
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(ck.encode())
		return err
	})
}

// encode serialises the checkpoint into the .tpd container.
func (ck *Checkpoint) encode() []byte {
	var flags uint32
	if ck.OptimizeHyper {
		flags |= ckptFlagOptimizeHyper
	}
	meta := make([]byte, 0, ckptMetaSize)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ck.K))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ck.V))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(ck.Z)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(ck.Sweep))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ck.Iterations))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ck.HyperEvery))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ck.BurnIn))
	meta = binary.LittleEndian.AppendUint32(meta, flags)
	meta = binary.LittleEndian.AppendUint32(meta, ck.CorpusChecksum)
	for _, s := range ck.RNG {
		meta = binary.LittleEndian.AppendUint64(meta, s)
	}
	meta = binary.LittleEndian.AppendUint64(meta, uint64(ck.TotalTokens))

	priors := make([]byte, 0, (len(ck.Alpha)+3)*8)
	for _, a := range ck.Alpha {
		priors = appendF64(priors, a)
	}
	priors = appendF64(priors, ck.AlphaSum)
	priors = appendF64(priors, ck.Beta)
	priors = appendF64(priors, ck.BetaSum)

	zsec := appendZ(nil, ck.Z)

	nksec := appendI64s(make([]byte, 0, 8*len(ck.Nk)), ck.Nk)

	sections := []struct {
		id      uint32
		payload []byte
	}{
		{ckSecMeta, meta},
		{ckSecPriors, priors},
		{ckSecZ, zsec},
		{ckSecNk, nksec},
	}
	out := make([]byte, 0, ckptHeaderSize+len(sections)*ckptEntrySize+len(meta)+len(priors)+len(zsec)+len(nksec))
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint16(out, ckptVersion)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint32(out, ckptOrderMarker)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	off := uint64(ckptHeaderSize + len(sections)*ckptEntrySize)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.id)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.payload))
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		off += uint64(len(s.payload))
	}
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return out
}

// appendZ appends the topic assignments in the one layout the .tpd Z
// section and the SETUP, CKPT and FINAL frames share: every document's
// assignment count as a u32, then all assignments as i32s, document
// after document. The document count is not stored; both ends know it.
func appendZ(dst []byte, z [][]int32) []byte {
	for _, row := range z {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row)))
	}
	for _, row := range z {
		dst = appendI32s(dst, row)
	}
	return dst
}

// decodeZ decodes all of b as the assignments of ndocs documents,
// written by appendZ, each below k. The rows share one arena, each
// capped at its length. The lengths are checked against len(b) before
// anything is allocated.
func decodeZ(b []byte, ndocs, k int) ([][]int32, error) {
	if ndocs < 0 || ndocs > len(b)/4 { // not 4*ndocs, which can overflow
		return nil, fmt.Errorf("%d bytes are shorter than a %d-doc length table", len(b), ndocs)
	}
	total := 0
	for d := range ndocs {
		total += int(binary.LittleEndian.Uint32(b[4*d:]))
	}
	if total > len(b)/4 || len(b) != 4*ndocs+4*total {
		return nil, fmt.Errorf("%d bytes, lengths imply %d", len(b), 4*ndocs+4*total)
	}
	arena := make([]int32, total)
	for i := range arena {
		arena[i] = int32(binary.LittleEndian.Uint32(b[4*ndocs+4*i:]))
		if arena[i] < 0 || int(arena[i]) >= k {
			return nil, fmt.Errorf("assignment %d is %d, want [0,%d)", i, arena[i], k)
		}
	}
	z := make([][]int32, ndocs)
	off := 0
	for d := range z {
		n := int(binary.LittleEndian.Uint32(b[4*d:]))
		z[d] = arena[off : off+n : off+n]
		off += n
	}
	return z, nil
}

// ReadCheckpointFile reads and fully validates a .tpd checkpoint.
// Every structural failure wraps one of the named Ckpt errors; the
// count-vs-assignment cross-check happens later, in restoreModel,
// because it needs the rebuilt documents.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dtrain: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}

func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderSize {
		if len(data) >= 8 && string(data[:8]) != ckptMagic {
			return nil, fmt.Errorf("%w: %q", ErrCkptBadMagic, data[:8])
		}
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCkptTruncated, len(data))
	}
	if string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: %q", ErrCkptBadMagic, data[:8])
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != ckptVersion {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrCkptVersion, v, ckptVersion)
	}
	if rsv := binary.LittleEndian.Uint16(data[10:]); rsv != 0 {
		return nil, fmt.Errorf("%w: reserved header bytes %04x", ErrCkptFormat, rsv)
	}
	if om := binary.LittleEndian.Uint32(data[12:]); om != ckptOrderMarker {
		return nil, fmt.Errorf("%w: byte-order marker %08x, want %08x", ErrCkptFormat, om, ckptOrderMarker)
	}
	nsec := int(binary.LittleEndian.Uint32(data[16:]))
	if nsec < 1 || nsec > 64 {
		return nil, fmt.Errorf("%w: claims %d sections", ErrCkptFormat, nsec)
	}
	if len(data) < ckptHeaderSize+nsec*ckptEntrySize {
		return nil, fmt.Errorf("%w: %d bytes cannot hold a %d-entry section table", ErrCkptTruncated, len(data), nsec)
	}
	secs := make(map[uint32][]byte, nsec)
	for i := 0; i < nsec; i++ {
		e := data[ckptHeaderSize+i*ckptEntrySize:]
		id := binary.LittleEndian.Uint32(e)
		crc := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d) of a %d-byte file", ErrCkptTruncated, id, off, off+length, len(data))
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("%w: section %d CRC %08x, want %08x", ErrCkptChecksum, id, got, crc)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCkptFormat, id)
		}
		secs[id] = payload
	}
	for _, id := range []uint32{ckSecMeta, ckSecPriors, ckSecZ, ckSecNk} {
		if _, ok := secs[id]; !ok {
			return nil, fmt.Errorf("%w: missing section %d", ErrCkptFormat, id)
		}
	}

	meta := secs[ckSecMeta]
	if len(meta) != ckptMetaSize {
		return nil, fmt.Errorf("%w: meta section is %d bytes, want %d", ErrCkptFormat, len(meta), ckptMetaSize)
	}
	r := wireReader{data: meta}
	ck := &Checkpoint{
		K: int(r.u32()),
		V: int(r.u32()),
	}
	ndocs := int(r.u64())
	ck.Sweep = int(r.u64())
	ck.Iterations = int(r.u32())
	ck.HyperEvery = int(r.u32())
	ck.BurnIn = int(r.u32())
	flags := r.u32()
	ck.CorpusChecksum = r.u32()
	for i := range ck.RNG {
		ck.RNG[i] = r.u64()
	}
	ck.TotalTokens = int(r.u64())
	ck.OptimizeHyper = flags&ckptFlagOptimizeHyper != 0
	if ck.K <= 0 || ck.K > 1<<20 || ck.V <= 0 || ndocs < 0 || ck.Sweep < 0 ||
		ck.Iterations <= 0 || ck.Sweep > ck.Iterations || ck.HyperEvery <= 0 || ck.BurnIn < 0 {
		return nil, fmt.Errorf("%w: meta holds K=%d V=%d docs=%d sweep=%d/%d hyperEvery=%d burnIn=%d",
			ErrCkptFormat, ck.K, ck.V, ndocs, ck.Sweep, ck.Iterations, ck.HyperEvery, ck.BurnIn)
	}

	priors := secs[ckSecPriors]
	if len(priors) != (ck.K+3)*8 {
		return nil, fmt.Errorf("%w: priors section is %d bytes, want %d for K=%d", ErrCkptFormat, len(priors), (ck.K+3)*8, ck.K)
	}
	pr := wireReader{data: priors}
	ck.Alpha = pr.f64s(make([]float64, ck.K))
	ck.AlphaSum, ck.Beta, ck.BetaSum = pr.f64(), pr.f64(), pr.f64()
	for k, a := range ck.Alpha {
		if !(a > 0) {
			return nil, fmt.Errorf("%w: alpha[%d] = %v", ErrCkptFormat, k, a)
		}
	}
	if !(ck.AlphaSum > 0) || !(ck.Beta > 0) || !(ck.BetaSum > 0) {
		return nil, fmt.Errorf("%w: priors alphaSum=%v beta=%v betaSum=%v", ErrCkptFormat, ck.AlphaSum, ck.Beta, ck.BetaSum)
	}

	z, err := decodeZ(secs[ckSecZ], ndocs, ck.K)
	if err != nil {
		return nil, fmt.Errorf("%w: Z section: %v", ErrCkptFormat, err)
	}
	ck.Z = z

	nksec := secs[ckSecNk]
	if len(nksec) != 8*ck.K {
		return nil, fmt.Errorf("%w: Nk section is %d bytes, want %d for K=%d", ErrCkptFormat, len(nksec), 8*ck.K, ck.K)
	}
	nr := wireReader{data: nksec}
	ck.Nk = nr.i64s(make([]int64, ck.K))
	for k, v := range ck.Nk {
		if v < 0 {
			return nil, fmt.Errorf("%w: Nk[%d] = %d", ErrCkptFormat, k, v)
		}
	}
	return ck, nil
}
