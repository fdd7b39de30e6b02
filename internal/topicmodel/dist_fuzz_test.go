package topicmodel

import (
	"runtime"
	"strings"
	"testing"
)

// FuzzDecodeCountRows feeds the distributed barrier's delta frame
// decoder arbitrary bytes for a vocabulary of 1 to 65 536 words and 1
// to 64 topics, seeded with frames AppendTo writes. Its property: an
// error naming the count rows frame, or K-wide rows whose words are
// below V and a byte count within the input; and no allocation beyond
// a fixed multiple of the input.
func FuzzDecodeCountRows(f *testing.F) {
	for _, cr := range []*CountRows{
		{K: 2, Words: []int32{3}, Rows: [][]int32{{1, -2}}, Nk: []int64{5, -5}},
		{K: 3, Words: []int32{0, 7, 2}, Rows: [][]int32{{1, 0, 4}, {0, 0, 1}, {-1, 2, 0}}, Nk: []int64{0, 2, 5}},
		{K: 1, Nk: []int64{0}},
	} {
		f.Add(cr.AppendTo(nil), uint16(9), uint8(cr.K-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, v16 uint16, k8 uint8) {
		v, k := 1+int(v16), 1+int(k8)%64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cr, n, err := DecodeCountRows(data, v, k)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+64<<10; got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "topicmodel: count row") {
				t.Fatalf("error %q does not name the count rows frame", err)
			}
			return
		}
		if n > len(data) || cr.K != k || len(cr.Nk) != k || len(cr.Rows) != len(cr.Words) {
			t.Fatalf("decoded %d of %d bytes: K %d, %d totals, %d rows for %d words",
				n, len(data), cr.K, len(cr.Nk), len(cr.Rows), len(cr.Words))
		}
		for i, w := range cr.Words {
			if w < 0 || int(w) >= v || len(cr.Rows[i]) != k {
				t.Fatalf("row %d: word %d of vocabulary %d, %d counts for K=%d", i, w, v, len(cr.Rows[i]), k)
			}
		}
	})
}
