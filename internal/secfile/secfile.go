// Package secfile is the checksummed section container the .tpc
// corpus file and the .tpm pipeline snapshot share: a fixed header, a
// section table, and section payloads at 64-byte-aligned offsets, each
// covered by its own IEEE CRC-32.
//
// # Layout
//
//	offset 0   magic (8 bytes, chosen by the format)
//	       8   format version, uint16 LE
//	      10   reserved, uint16 (zero)
//	      12   byte-order marker, uint32 LE (OrderMarker)
//	      16   section count, uint32 LE
//	      20   section table: count × (id u32, crc u32, offset u64, length u64)
//	      ...  section payloads, each starting at a 64-byte-aligned
//	           offset (zero padding between sections, not CRC-covered)
//
// Sections appear in the table in ascending offset order, so a writer
// streams the file front to back. Offsets and lengths are validated
// against the image size and every payload against its CRC before a
// format decodes anything, so truncation, bit rot and foreign files fail
// with the format's named errors, never a panic.
//
// Formats own their section ids, their versions and their error
// values; this package owns the bytes around them.
package secfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// HeaderSize is everything before the section table.
	HeaderSize = 8 + 2 + 2 + 4 + 4
	// EntrySize is one section-table entry.
	EntrySize = 4 + 4 + 8 + 8
	// Align is the file-offset alignment of every section payload. 64
	// covers the strictest alignment any zero-copy view needs (int32
	// arrays need 4) with cache-line headroom.
	Align = 64
	// OrderMarker, decoded little-endian, guards against a
	// foreign-endian writer ever existing: a byte-swapped file decodes
	// the marker to a different value and is rejected up front.
	OrderMarker uint32 = 0x1CC0FFEE
	// maxSections bounds the section count a header may claim.
	maxSections = 64
)

// Errors names the error each failure class wraps, so every format
// built on the container keeps its own named errors.
type Errors struct {
	BadMagic  error // not this format at all
	Version   error // a version this build does not read
	Truncated error // shorter than the table claims
	Checksum  error // a payload fails its CRC
	Format    error // structurally inconsistent
}

// Section is one planned payload: its table entry plus a writer that
// must produce exactly Size bytes. The writer runs twice — once into a
// CRC hasher, once into the output — so payloads never need to be
// buffered whole.
type Section struct {
	ID    uint32
	Size  uint64
	CRC   uint32
	Write func(io.Writer) error
}

// Bytes is the section whose payload is b.
func Bytes(id uint32, b []byte) Section {
	return Section{ID: id, Size: uint64(len(b)), Write: func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}}
}

// Write emits a complete image: header, table and payloads.
func Write(w io.Writer, magic string, version uint16, secs []Section) error {
	if err := Checksum(secs); err != nil {
		return err
	}
	tableEnd := uint64(HeaderSize + len(secs)*EntrySize)
	offsets, _ := Layout(tableEnd, secs)
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [HeaderSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint16(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], OrderMarker)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(secs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("writing header: %w", err)
	}
	if _, err := bw.Write(Table(secs, offsets)); err != nil {
		return fmt.Errorf("writing section table: %w", err)
	}
	if err := Emit(bw, secs, offsets, tableEnd); err != nil {
		return err
	}
	return bw.Flush()
}

// Checksum runs the hashing pass: every section's writer is executed
// once into a CRC hasher and verified against its planned size, so the
// emit pass can stream payloads without buffering them.
func Checksum(secs []Section) error {
	for i := range secs {
		h := crc32.NewIEEE()
		cw := &countWriter{w: h}
		if err := secs[i].Write(cw); err != nil {
			return fmt.Errorf("hashing section %d: %w", secs[i].ID, err)
		}
		if cw.n != secs[i].Size {
			return fmt.Errorf("internal error: section %d wrote %d bytes, planned %d",
				secs[i].ID, cw.n, secs[i].Size)
		}
		secs[i].CRC = h.Sum32()
	}
	return nil
}

// Layout assigns each section an aligned offset packed after tableEnd
// and returns the offsets plus the end of the last payload.
func Layout(tableEnd uint64, secs []Section) (offsets []uint64, end uint64) {
	offsets = make([]uint64, len(secs))
	pos := AlignUp(tableEnd)
	for i := range secs {
		offsets[i] = pos
		pos = AlignUp(pos + secs[i].Size)
		end = offsets[i] + secs[i].Size
	}
	return offsets, end
}

// Table serialises the section table.
func Table(secs []Section, offsets []uint64) []byte {
	b := make([]byte, len(secs)*EntrySize)
	for i, s := range secs {
		ent := b[i*EntrySize:]
		binary.LittleEndian.PutUint32(ent[0:], s.ID)
		binary.LittleEndian.PutUint32(ent[4:], s.CRC)
		binary.LittleEndian.PutUint64(ent[8:], offsets[i])
		binary.LittleEndian.PutUint64(ent[16:], s.Size)
	}
	return b
}

// Emit streams padding plus payloads, assuming w is positioned at file
// offset written.
func Emit(w io.Writer, secs []Section, offsets []uint64, written uint64) error {
	for i, s := range secs {
		if err := WriteZeros(w, offsets[i]-written); err != nil {
			return fmt.Errorf("writing padding: %w", err)
		}
		if err := s.Write(w); err != nil {
			return fmt.Errorf("writing section %d: %w", s.ID, err)
		}
		written = offsets[i] + s.Size
	}
	return nil
}

// AlignUp rounds n up to the next Align boundary.
func AlignUp(n uint64) uint64 {
	return (n + Align - 1) &^ uint64(Align-1)
}

var zeros [Align]byte

// WriteZeros writes n zero bytes.
func WriteZeros(w io.Writer, n uint64) error {
	for n > 0 {
		chunk := min(n, Align)
		if _, err := w.Write(zeros[:chunk]); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

// countWriter counts bytes so the emit pass can verify planned sizes.
type countWriter struct {
	w io.Writer
	n uint64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

// Entry is one parsed section-table row.
type Entry struct {
	ID   uint32
	CRC  uint32
	Off  uint64
	Size uint64
}

// Image is a decoded container whose every section passed its CRC.
type Image struct {
	Version  uint16
	Sections map[uint32]Entry
	// End is the end of the table or of the furthest payload, whichever
	// is greater: the point anything appended after the image starts.
	End  uint64
	data []byte
}

// Body returns section id's payload, capped at its length.
func (im *Image) Body(id uint32) ([]byte, bool) {
	e, ok := im.Sections[id]
	if !ok {
		return nil, false
	}
	return im.data[e.Off : e.Off+e.Size : e.Off+e.Size], true
}

// Decode parses and checks an image: magic, header, a version among
// versions, byte-order marker, the table's bounds, and every payload's
// CRC. Payloads alias data.
func Decode(data []byte, magic string, errs Errors, versions ...uint16) (*Image, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], []byte(magic)) {
		return nil, fmt.Errorf("%w", errs.BadMagic)
	}
	// The full-header length check must precede every fixed-offset read
	// below — a file cut just past the magic would otherwise index out
	// of range instead of returning a named error.
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("%w: %d-byte file ends inside the header", errs.Truncated, len(data))
	}
	version := binary.LittleEndian.Uint16(data[8:])
	if !slices.Contains(versions, version) {
		return nil, fmt.Errorf("%w: file version %d, this build reads %v", errs.Version, version, versions)
	}
	if m := binary.LittleEndian.Uint32(data[12:]); m != OrderMarker {
		return nil, fmt.Errorf("%w: byte-order marker %08x, want %08x", errs.Format, m, OrderMarker)
	}
	nsec := int(binary.LittleEndian.Uint32(data[16:]))
	if nsec < 1 || nsec > maxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", errs.Format, nsec)
	}
	secs, end, err := ParseTable(data, HeaderSize, nsec, errs)
	if err != nil {
		return nil, err
	}
	if err := VerifyCRCs(data, secs, errs); err != nil {
		return nil, err
	}
	return &Image{Version: version, Sections: secs, End: end, data: data}, nil
}

// ParseTable parses and bounds-checks nsec table entries starting at
// tableStart, returning the section map and the end offset of the
// group (the table end or the furthest payload byte, whichever is
// greater).
func ParseTable(data []byte, tableStart, nsec int, errs Errors) (map[uint32]Entry, uint64, error) {
	tableEnd := tableStart + nsec*EntrySize
	if len(data) < tableEnd {
		return nil, 0, fmt.Errorf("%w: file ends inside a section table", errs.Truncated)
	}
	secs := make(map[uint32]Entry, nsec)
	end := uint64(tableEnd)
	for i := 0; i < nsec; i++ {
		ent := data[tableStart+i*EntrySize:]
		e := Entry{
			ID:   binary.LittleEndian.Uint32(ent),
			CRC:  binary.LittleEndian.Uint32(ent[4:]),
			Off:  binary.LittleEndian.Uint64(ent[8:]),
			Size: binary.LittleEndian.Uint64(ent[16:]),
		}
		if e.Off%Align != 0 {
			return nil, 0, fmt.Errorf("%w: section %d at unaligned offset %d", errs.Format, e.ID, e.Off)
		}
		if e.Off > uint64(len(data)) || e.Size > uint64(len(data))-e.Off {
			return nil, 0, fmt.Errorf("%w: section %d spans [%d,%d) of a %d-byte file",
				errs.Truncated, e.ID, e.Off, e.Off+e.Size, len(data))
		}
		if _, dup := secs[e.ID]; dup {
			return nil, 0, fmt.Errorf("%w: duplicate section %d", errs.Format, e.ID)
		}
		end = max(end, e.Off+e.Size)
		secs[e.ID] = e
	}
	return secs, end, nil
}

// VerifyCRCs checks every section payload against its table CRC.
func VerifyCRCs(data []byte, secs map[uint32]Entry, errs Errors) error {
	for _, e := range secs {
		if got := crc32.ChecksumIEEE(data[e.Off : e.Off+e.Size]); got != e.CRC {
			return fmt.Errorf("%w: section %d payload CRC %08x, table says %08x",
				errs.Checksum, e.ID, got, e.CRC)
		}
	}
	return nil
}

// ErrPayload marks a section payload a Reader could not decode: a
// varint or length running past the end, a count larger than the bytes
// left could hold, or trailing bytes.
var ErrPayload = errors.New("malformed section payload")

// Reader decodes the varint-coded payload of a flat section with
// bounds checks. The first failure sticks: every later read returns
// zero, and Err reports it.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("truncated or overlong varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Count reads a uvarint element count and checks that the bytes left
// could hold that many elements of at least minBytes bytes each, so no
// count can make a decoder allocate beyond the bytes present.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(r.left()/minBytes) {
		r.Fail("count %d at byte %d exceeds the %d bytes left", v, r.off, r.left())
		return 0
	}
	return int(v)
}

// Bytes returns the next n bytes (aliasing the payload).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.left() {
		r.Fail("%d-byte field at byte %d overruns the payload", n, r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Offset returns the read position.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) left() int { return len(r.b) - r.off }

// Fail records a decoder-level error unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrPayload, fmt.Sprintf(format, args...))
	}
}

// Err reports the first failure, or trailing bytes after a read that
// should have consumed the payload.
func (r *Reader) Err() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrPayload, len(r.b)-r.off)
	}
	return r.err
}

// GobDecode decodes the gob stream b, a section payload, into v. Gob
// allocates each message's claimed length before reading it, so first
// every message's length prefix — a gob uint: one byte below 0x80, or
// the negated byte count of a big-endian value — must fit in b.
func GobDecode(b []byte, v any) error {
	for rest := b; len(rest) > 0; {
		n, w := uint64(rest[0]), 1
		if k := -int(int8(rest[0])); n >= 0x80 && k <= 8 && k < len(rest) {
			n, w = 0, 1+k
			for _, c := range rest[1:w] {
				n = n<<8 | uint64(c)
			}
		}
		if n >= 0x80 && w == 1 || n > uint64(len(rest)-w) {
			return fmt.Errorf("gob message at byte %d is longer than the %d bytes left", len(b)-len(rest), len(rest))
		}
		rest = rest[w+int(n):]
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}
