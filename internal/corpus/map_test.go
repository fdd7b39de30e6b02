package corpus

import "testing"

func TestMapTextKnownWords(t *testing.T) {
	c := buildTiny(t)
	before := c.Vocab.Size()
	doc := MapText("frequent pattern mining rocks", c.Vocab, DefaultBuildOptions())
	if c.Vocab.Size() != before {
		t.Fatal("MapText mutated the vocabulary")
	}
	if len(doc.Segments) != 1 {
		t.Fatalf("segments = %d", len(doc.Segments))
	}
	// "frequent", "pattern", "mining" are known; "rocks" is OOV.
	if got := doc.Segments[0].Len(); got != 3 {
		t.Fatalf("kept tokens = %d, want 3", got)
	}
	fid, _ := c.Vocab.ID("frequent")
	if doc.Segments[0].Words()[0] != fid {
		t.Fatal("first token should be 'frequent'")
	}
}

func TestMapTextAllOOV(t *testing.T) {
	c := buildTiny(t)
	doc := MapText("zzz qqq unseen tokens", c.Vocab, DefaultBuildOptions())
	if len(doc.Segments) != 0 {
		t.Fatalf("all-OOV text should map to no segments, got %d", len(doc.Segments))
	}
}

func TestMapTextSegmentBoundaries(t *testing.T) {
	c := buildTiny(t)
	doc := MapText("frequent pattern, mining", c.Vocab, DefaultBuildOptions())
	if len(doc.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(doc.Segments))
	}
}

func TestMapTextEmpty(t *testing.T) {
	c := buildTiny(t)
	doc := MapText("", c.Vocab, DefaultBuildOptions())
	if len(doc.Segments) != 0 {
		t.Fatal("empty text should map to empty document")
	}
}

// TestMapIntoAllocatesNothing pins the serving text path: with warm
// buffers, mapping text — stem-invariant forms, inflected forms that
// pay Porter, stop words and OOV words alike — allocates nothing.
func TestMapIntoAllocatesNothing(t *testing.T) {
	c := buildTiny(t)
	tk := NewTokenizer(DefaultBuildOptions())
	text := "Frequent patterns, and the mining of zweistein PATTERN databases."
	var words, ends []int32
	mapText := func() { words, ends = tk.MapInto(text, c.Vocab, words[:0], ends[:0]) }
	mapText()
	if len(words) == 0 {
		t.Fatal("fixture text mapped to no ids")
	}
	if n := testing.AllocsPerRun(100, mapText); n != 0 {
		t.Fatalf("warm MapInto allocates %v times", n)
	}
}
