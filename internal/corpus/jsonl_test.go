package corpus

import (
	"strings"
	"testing"
)

type failingReader struct{ data string }

func (f *failingReader) Read(p []byte) (int, error) {
	if f.data != "" {
		n := copy(p, f.data)
		f.data = f.data[n:]
		return n, nil
	}
	return 0, errBoom
}

var errBoom = &readerError{}

type readerError struct{}

func (*readerError) Error() string { return "boom: injected read failure" }

func TestReadJSONL(t *testing.T) {
	input := `{"id": 1, "text": "data mining rocks"}
{"id": 2, "text": "topic models for text"}`
	c, err := ReadJSONL(strings.NewReader(input), "text", DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDocs() != 2 {
		t.Fatalf("docs = %d", c.NumDocs())
	}
	if _, ok := c.Vocab.ID("mine"); !ok {
		t.Fatal("text field not processed")
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	input := "\n{\"text\": \"hello world\"}\n\n"
	c, err := ReadJSONL(strings.NewReader(input), "text", DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDocs() != 1 {
		t.Fatalf("docs = %d", c.NumDocs())
	}
}

func TestReadJSONLErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{not json}`,
		"missing field": `{"title": "x"}`,
		"non-string":    `{"text": 42}`,
	}
	for name, input := range cases {
		if _, err := ReadJSONL(strings.NewReader(input), "text", DefaultBuildOptions()); err == nil {
			t.Errorf("%s: no error", name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error does not name the line: %v", name, err)
		}
	}
	if _, err := ReadJSONL(strings.NewReader(""), "", DefaultBuildOptions()); err == nil {
		t.Error("empty field name accepted")
	}
}

func TestReadJSONLReaderFailure(t *testing.T) {
	r := &failingReader{data: `{"text": "partial"}` + "\n"}
	if _, err := ReadJSONL(r, "text", DefaultBuildOptions()); err == nil {
		t.Fatal("injected read failure not surfaced")
	}
}

func TestReadTSV(t *testing.T) {
	input := "1\tfirst document text\n2\tsecond document text\n"
	c, err := BuildFromSource(TSVSource(strings.NewReader(input), 1), DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDocs() != 2 {
		t.Fatalf("docs = %d", c.NumDocs())
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := BuildFromSource(TSVSource(strings.NewReader("only-one-col\n"), 1), DefaultBuildOptions()); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := BuildFromSource(TSVSource(strings.NewReader(""), -1), DefaultBuildOptions()); err == nil {
		t.Error("negative column accepted")
	}
}

func TestReadLinesReaderFailure(t *testing.T) {
	r := &failingReader{data: "first doc\n"}
	if _, err := ReadLines(r, DefaultBuildOptions()); err == nil {
		t.Fatal("injected read failure not surfaced")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/path/xyz.txt", DefaultBuildOptions()); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadJSONLFileMissing(t *testing.T) {
	if _, err := LoadJSONLFile("/nonexistent/path/xyz.jsonl", "text", DefaultBuildOptions()); err == nil {
		t.Fatal("missing file accepted")
	}
}
