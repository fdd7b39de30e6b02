package secfile

import (
	"bytes"
	"errors"
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
