package textproc

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func flatTestVocab() *Vocab {
	v := NewVocab()
	v.Intern("mine", "mining")
	v.Intern("mine", "mines")
	v.Intern("mine", "mining")
	v.Intern("topic", "topics")
	v.Intern("phrase", "phrase")
	v.Intern("topic", "topic")
	return v
}

// TestVocabFlatMatchesGob: the flat and the gob decoder build the same
// Vocab, field for field, and the flat encoding is deterministic.
func TestVocabFlatMatchesGob(t *testing.T) {
	v := flatTestVocab()
	flat, err := DecodeFlatVocab(v.AppendFlat(nil))
	if err != nil {
		t.Fatal(err)
	}
	var viaGob Vocab
	if err := viaGob.GobDecode(legacyGob(t, v)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat, &viaGob) {
		t.Fatalf("flat decode %+v, gob decode %+v", flat, &viaGob)
	}
	if !bytes.Equal(flat.AppendFlat(nil), v.AppendFlat(nil)) {
		t.Fatal("re-encoding the decoded vocabulary changed its bytes")
	}
}

// TestVocabArenaRowsAreCapped: decoded surface votes share one arena,
// so growing one stem's votes must reallocate that row, not overwrite
// the next stem's.
func TestVocabArenaRowsAreCapped(t *testing.T) {
	v := flatTestVocab()
	var viaGob Vocab
	if err := viaGob.GobDecode(legacyGob(t, v)); err != nil {
		t.Fatal(err)
	}
	flat, err := DecodeFlatVocab(v.AppendFlat(nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Vocab{"flat": flat, "gob": &viaGob} {
		topic, _ := d.ID("topic")
		before := append([]surfaceVote(nil), d.surface[topic]...)
		d.Intern("mine", "mined")
		other := NewVocab()
		other.Intern("mine", "miner")
		other.MergeInto(d)
		if !reflect.DeepEqual(d.surface[topic], before) {
			t.Fatalf("%s: growing stem 0's votes changed stem %d's: %v, was %v", name, topic, d.surface[topic], before)
		}
	}
}

// TestDecodeFlatVocabCopiesStemsOnce: a surface form equal to its stem
// aliases the stem's key in the table, so a vocabulary whose forms are
// all their stems decodes with one copy of its string bytes, not two.
func TestDecodeFlatVocabCopiesStemsOnce(t *testing.T) {
	v := NewVocab()
	for i := range 64 {
		stem := fmt.Sprintf("%02d%s", i, strings.Repeat("x", 4096))
		v.Intern(stem, stem)
	}
	section := v.AppendFlat(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := DecodeFlatVocab(section)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// 16 KiB covers the columns: ends, counts, votes, rows and slots.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(section))+16<<10; got > limit {
		t.Errorf("decoding a %d-byte section allocated %d bytes, want at most %d", len(section), got, limit)
	}
	for id := range int32(d.Size()) {
		if form := d.surface[id][0].form; unsafe.StringData(form) != unsafe.StringData(d.Word(id)) {
			t.Fatalf("stem %d: its form %.8q… is a copy, not the stem's key", id, form)
		}
	}
}

func TestVocabFlatRejectsBadInput(t *testing.T) {
	valid := flatTestVocab().AppendFlat(nil)
	for i := range valid {
		if _, err := DecodeFlatVocab(valid[:i]); err == nil {
			t.Fatalf("accepted a %d-byte prefix of a %d-byte section", i, len(valid))
		}
	}
	for name, b := range map[string][]byte{
		"huge word count":  {0xff, 0xff, 0xff, 0x7f, 0},
		"huge vote count":  {1, 0xff, 0xff, 0x7f},
		"votes over total": {1, 0, 1, 'a', 1, 1, 0, 1},
		"duplicate stem":   {2, 0, 1, 'a', 1, 0, 1, 'a', 1, 0},
		"trailing byte":    append(append([]byte(nil), valid...), 0),
	} {
		if _, err := DecodeFlatVocab(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BenchmarkDecodeFlatVocab decodes a vocabulary section at the scale
// of the benchmark's abstracts-prep model: 50 000 stems, each seen as
// itself and as one or two inflected surface forms.
func BenchmarkDecodeFlatVocab(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	v := NewVocab()
	for v.Size() < 50000 {
		stem := make([]byte, 3+r.IntN(10))
		for i := range stem {
			stem[i] = byte('a' + r.IntN(26))
		}
		s := string(stem)
		for _, form := range []string{s, s + "s", s + "ing"}[:1+r.IntN(3)] {
			for n := 1 + r.IntN(20); n > 0; n-- {
				v.Intern(s, form)
			}
		}
	}
	section := v.AppendFlat(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(section)))
	for b.Loop() {
		if _, err := DecodeFlatVocab(section); err != nil {
			b.Fatal(err)
		}
	}
}
