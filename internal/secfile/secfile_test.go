package secfile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
)

var (
	errMagic     = errors.New("magic")
	errVersion   = errors.New("version")
	errTruncated = errors.New("truncated")
	errChecksum  = errors.New("checksum")
	errFormat    = errors.New("format")
	testErrs     = Errors{errMagic, errVersion, errTruncated, errChecksum, errFormat}
)

func TestWriteDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	secs := []Section{Bytes(7, []byte("seven")), Bytes(3, nil), Bytes(9, bytes.Repeat([]byte{1}, 100))}
	if err := Write(&buf, "TESTFMT\x00", 4, secs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	im, err := Decode(data, "TESTFMT\x00", testErrs, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if im.Version != 4 || len(im.Sections) != 3 || im.End != uint64(len(data)) {
		t.Fatalf("version %d, %d sections, end %d of %d", im.Version, len(im.Sections), im.End, len(data))
	}
	for _, s := range []struct {
		id   uint32
		want string
	}{{7, "seven"}, {3, ""}, {9, string(bytes.Repeat([]byte{1}, 100))}} {
		b, ok := im.Body(s.id)
		if !ok || string(b) != s.want || cap(b) != len(b) {
			t.Fatalf("section %d = %q (ok %v, cap %d)", s.id, b, ok, cap(b))
		}
		if e := im.Sections[s.id]; e.Off%Align != 0 {
			t.Fatalf("section %d at unaligned offset %d", s.id, e.Off)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
		err  error
	}{
		{"magic", data[:7], errMagic},
		{"header", data[:HeaderSize-1], errTruncated},
		{"table", data[:HeaderSize+EntrySize], errTruncated},
		{"payload", data[:len(data)-1], errTruncated},
		{"checksum", func() []byte { b := bytes.Clone(data); b[len(b)-1] ^= 1; return b }(), errChecksum},
	} {
		if _, err := Decode(tc.data, "TESTFMT\x00", testErrs, 4); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
	if _, err := Decode(data, "TESTFMT\x00", testErrs, 5); !errors.Is(err, errVersion) {
		t.Errorf("unread version: got %v", err)
	}
}

func TestReaderBounds(t *testing.T) {
	r := NewReader([]byte{3, 'a', 'b', 'c', 0x80})
	if n := r.Count(1); n != 3 || string(r.Bytes(n)) != "abc" {
		t.Fatal("reader misread a length-prefixed field")
	}
	if r.Uvarint(); r.Err() == nil {
		t.Fatal("a truncated varint went unnoticed")
	}
	r = NewReader([]byte{5, 0, 0, 0, 0})
	if r.Count(2); !errors.Is(r.Err(), ErrPayload) {
		t.Fatal("a count of 5 two-byte elements in 4 bytes was accepted")
	}
	r = NewReader([]byte{1, 2})
	r.Uvarint()
	if !errors.Is(r.Err(), ErrPayload) {
		t.Fatal("a trailing byte went unnoticed")
	}
}

// TestGobDecodeChecksMessageLengths: a stream decodes as gob decodes
// it, and one whose length prefix claims more bytes than follow — the
// 64 MiB claim of a crafted section among them — fails before gob
// allocates for it.
func TestGobDecodeChecksMessageLengths(t *testing.T) {
	var buf bytes.Buffer
	want := map[string][]int{"a": {1, 2}, "b": make([]int, 300)}
	if err := gob.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	var got map[string][]int
	if err := GobDecode(buf.Bytes(), &got); err != nil || len(got["b"]) != 300 || got["a"][1] != 2 {
		t.Fatalf("GobDecode = %v, %v", got, err)
	}
	for _, b := range [][]byte{
		{0xFC, 0x04, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03},
		{0xF7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{0xFE, 0x01},
		{0x05, 1, 2},
		buf.Bytes()[:buf.Len()-1],
	} {
		if err := GobDecode(b, &got); err == nil || !strings.Contains(err.Error(), "longer than") {
			t.Errorf("GobDecode(% x) = %v, want the length error", b, err)
		}
	}
}
