package corpus

import (
	"fmt"
	"io"
	"os"
)

// ReadJSONL builds a corpus from JSON-lines input, extracting the
// document text from the given field of each object (e.g. "text" for
// Yelp-style review dumps, "title" for DBLP-style records). Lines that
// fail to parse or lack the field produce an error naming the line.
func ReadJSONL(r io.Reader, field string, opt BuildOptions) (*Corpus, error) {
	return BuildFromSource(JSONLSource(r, field), opt)
}

// LoadJSONLFile is ReadJSONL over a file. gzip-compressed files are
// detected by their magic bytes and decompressed transparently.
func LoadJSONLFile(path, field string, opt BuildOptions) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	r, err := MaybeDecompress(f)
	if err != nil {
		return nil, err
	}
	return ReadJSONL(r, field, opt)
}
