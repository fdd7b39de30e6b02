// Package corpusfile defines the .tpc on-disk corpus format: a
// versioned, CRC-checked, section-based binary container for the
// preprocessed ToPMine corpus (the columnar token arena, segment
// offset table, interned surface/gap string pool and vocabulary of
// internal/corpus), optionally bundled with the downstream phrase
// mining and segmentation artifacts.
//
// The point of the format is that preprocessing runs once: tokenizing,
// vocab interning, phrase mining and segmentation — the expensive
// front half of the pipeline — are persisted, and every later training
// job starts from Open in milliseconds instead of minutes. The token
// arena sections are laid out 64-byte-aligned and little-endian so
// Open can hand the pipeline zero-copy views straight into the mmap'd
// file; corpora therefore also stop being bounded by RAM — the kernel
// pages token data in and out on demand.
//
// # Layout
//
// A .tpc file is an internal/secfile container with magic
// "TPCFILE\x00": header, section table, and 64-byte-aligned section
// payloads, each covered by its table entry's IEEE CRC-32. Offsets and
// lengths are validated against the file size before anything is
// decoded, so truncation, bit rot and foreign files all fail with a
// named error — never a panic.
//
// All multi-byte values are little-endian, including the raw
// int32/uint32 array sections, which on little-endian hosts (the only
// kind this package fast-paths) are exactly the in-memory layout the
// pipeline reads. The vocabulary and the artifacts (mining parameters
// and mined phrase counts) are flat varint sections, the same codecs
// the .tpm snapshot uses; files from earlier builds hold them as gob
// sections under other ids, which Open still reads.
//
// # Multi-segment files (version 2)
//
// Appending to a corpus file never rewrites what is already on disk.
// Append copies the existing image byte-for-byte (bumping only the
// header's version field to 2), pads to the next 64-byte boundary, and
// emits one appended segment:
//
//	offset A   segment magic "TPCSEG\x00\x00" (8 bytes)
//	     A+8   section count, uint32 LE
//	    A+12   section table CRC-32, uint32 LE (over the table bytes)
//	    A+16   section table, same entry layout as the base table,
//	           offsets absolute within the file
//	     ...   section payloads, 64-byte-aligned as in the base image
//
// A segment reuses the base section ids with delta semantics: secMeta
// carries the counts this segment adds, secTokens/secSurface/secGaps
// are the appended token columns, secPool holds only the strings first
// interned by this segment (the effective pool is the previous pool
// plus the delta), secDocs is the appended documents' segment table
// with group-relative offsets, and secSketch (when present) covers the
// appended documents alone. secVocab is the exception: each segment
// stores the full updated vocabulary — vocabularies only grow by
// appending ids, so the last segment's vocabulary serves the whole
// file and every earlier one must be a prefix of it (validated on
// open). Because every payload keeps its own CRC and old bytes are
// never touched, the base image's checksums remain valid forever, and
// a version-1 reader build simply rejects the file by version instead
// of misreading it.
//
// Artifacts bundled in the base image describe only the base corpus,
// so a multi-segment file drops them on open with a recorded notice
// (StaleArtifacts) — phrases must be re-mined over the grown corpus.
package corpusfile

import (
	"errors"
	"unsafe"

	"topmine/internal/secfile"
)

const (
	// magic identifies a .tpc corpus file.
	magic = "TPCFILE\x00"
	// Version marks a single-segment file, what Write emits. A build
	// that predates the flat vocabulary section reads a file written
	// now as one without a vocabulary and rejects it with ErrFormat.
	Version uint16 = 1
	// VersionMulti marks a file grown in place by Append: the original
	// image followed by one appended segment per append. Readers accept
	// both versions; only Append produces version 2.
	VersionMulti uint16 = 2
	// segMagic introduces each appended segment in a version-2 file
	// (padded to the same 8 bytes as the file magic).
	segMagic = "TPCSEG\x00\x00"
	// segHeaderSize is an appended segment's fixed header: magic,
	// section count u32, and a CRC-32 over the segment's section table
	// (the base table is implicitly covered by opening the file; an
	// appended table needs its own guard).
	segHeaderSize = 8 + 4 + 4
	// sectionAlign, headerSize and tableEntrySize are the container's.
	sectionAlign   = secfile.Align
	headerSize     = secfile.HeaderSize
	tableEntrySize = secfile.EntrySize
)

// Section ids. Presence is signalled by the table: surface/gaps/pool
// appear only when the corpus retains surfaces, artifacts/spans only
// when mining+segmentation results were bundled. Files written before
// the vocabulary and artifacts sections became flat carry the gob ids
// instead; readers take whichever a group holds, writers emit only the
// flat ones.
const (
	secMeta         uint32 = 1  // fixed-size counts and flags
	secTokens       uint32 = 2  // token arena: numTokens × int32 word ids
	secSurface      uint32 = 3  // numTokens × uint32 string-pool ids
	secGaps         uint32 = 4  // numTokens × uint32 string-pool ids
	secPool         uint32 = 5  // interned string table
	secVocabGob     uint32 = 6  // gob textproc.Vocab (read only)
	secDocs         uint32 = 7  // per-doc segment counts + per-segment (off, len)
	secArtifactsGob uint32 = 8  // gob mining params + mined phrase counts (read only)
	secSpans        uint32 = 9  // flat per-document phrase spans (Algorithm 2 output)
	secSketch       uint32 = 10 // per-doc min-hash sketches: k u32, ndocs u32, ndocs×k u64
	secVocab        uint32 = 11 // textproc.Vocab.AppendFlat
	secArtifacts    uint32 = 12 // AppendArtifacts: mining params, scalars, mined phrase counts
)

// meta-section flag bits.
const (
	flagKeepSurface uint32 = 1 << iota
	flagStem
	flagRemoveStopwords
)

// metaSize is the fixed meta-section payload: four u64 counts plus a
// u32 flag word.
const metaSize = 8*4 + 4

// Named error conditions. Every failure returned by Load/Open wraps
// exactly one of these (plus detail), so callers can classify bad
// inputs with errors.Is without parsing messages.
var (
	// ErrBadMagic marks a file that is not a .tpc corpus file at all.
	ErrBadMagic = errors.New("corpusfile: not a corpus file (bad magic)")
	// ErrVersion marks a corpus file written by an incompatible format
	// version.
	ErrVersion = errors.New("corpusfile: unsupported corpus file version")
	// ErrTruncated marks a file shorter than its section table claims.
	ErrTruncated = errors.New("corpusfile: corpus file truncated")
	// ErrChecksum marks a section whose payload fails its CRC.
	ErrChecksum = errors.New("corpusfile: corpus file corrupted (checksum mismatch)")
	// ErrFormat marks a structurally inconsistent file: impossible
	// counts, out-of-range offsets, missing required sections.
	ErrFormat = errors.New("corpusfile: malformed corpus file")
)

// errs hands the container this format's named errors.
var errs = secfile.Errors{
	BadMagic:  ErrBadMagic,
	Version:   ErrVersion,
	Truncated: ErrTruncated,
	Checksum:  ErrChecksum,
	Format:    ErrFormat,
}

// hostLittle reports whether this machine is little-endian — the only
// byte order the zero-copy array views are valid for. Big-endian hosts
// still read and write the format through the conversion path.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()
