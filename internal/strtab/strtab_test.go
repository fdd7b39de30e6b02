package strtab

import (
	"fmt"
	"reflect"
	"testing"
)

// ops replays a fuzz input as table operations: each step reads an
// opcode byte and a length byte, then takes that many key bytes from a
// three-letter alphabet, so keys are often empty, equal or prefixes of
// one another.
func ops(data []byte, f func(op byte, key []byte)) {
	for len(data) >= 2 {
		op, n := data[0]%3, int(data[1]%6)
		data = data[2:]
		n = min(n, len(data))
		key := make([]byte, n)
		for i := range key {
			key[i] = "ab\x00"[data[i]%3]
		}
		data = data[n:]
		f(op, key)
	}
}

// FuzzTable checks Add, Find and FindBytes against a map, that keys
// handed out before a growth read the same after it, and that tables
// holding the same keys in the same order are identical whether grown
// key by key or built over the arena at once.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 1, 2, 0, 0, 2, 3, 0})
	var many []byte
	for i := 0; i < 300; i++ {
		many = append(many, 0, byte(i%6), byte(i), byte(i/3), byte(i/9), byte(i/27), byte(i/81))
		many = append(many, byte(1+i%2), byte(i%6), byte(i/3), byte(i), byte(i/9), byte(i/27), byte(i/81))
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table
		ref := map[string]int32{}
		var order []string
		var handed []string // handed[id] = tab.Key(id) when id was added
		slots := 0
		ops(data, func(op byte, key []byte) {
			want, present := ref[string(key)]
			switch op {
			case 0:
				id, added := tab.AddBytes(key)
				if added == present || present && id != want {
					t.Fatalf("Add(%q) = %d, %v; reference %d, present %v", key, id, added, want, present)
				}
				if added {
					if int(id) != len(order) {
						t.Fatalf("Add(%q) gave id %d, want %d", key, id, len(order))
					}
					ref[string(key)] = id
					order = append(order, string(key))
					handed = append(handed, tab.Key(id))
				}
			case 1, 2:
				id, ok := tab.Find(string(key))
				if op == 2 {
					id, ok = tab.FindBytes(key)
				}
				if ok != present || present && id != want {
					t.Fatalf("Find(%q) = %d, %v; reference %d, present %v", key, id, ok, want, present)
				}
			}
			if len(tab.slots) != slots {
				slots = len(tab.slots)
				for id, k := range handed {
					if k != order[id] || tab.Key(int32(id)) != order[id] {
						t.Fatalf("after growth to %d slots key %d reads %q, was %q", slots, id, k, order[id])
					}
				}
			}
		})
		if tab.Len() != len(order) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(order))
		}
		var again Table
		for _, k := range order {
			again.Add(k)
		}
		if !reflect.DeepEqual(tab, again) {
			t.Fatal("two tables grown from the same keys differ")
		}
		arena := append([]byte(nil), tab.arena...)
		ends := append([]uint32(nil), tab.ends...)
		built, dup := Build(arena, ends)
		if dup != -1 || !reflect.DeepEqual(tab, built) {
			t.Fatalf("Build over the arena differs from the grown table (dup %d)", dup)
		}
		if distinct := BuildDistinct(arena, ends); !reflect.DeepEqual(tab, distinct) {
			t.Fatal("BuildDistinct over the arena differs from the grown table")
		}
	})
}

func TestBuildReportsDuplicate(t *testing.T) {
	for _, keys := range [][]string{{"a", "b", "a"}, {"", "x", ""}, {"ab", "a", "b", "ab"}} {
		var arena []byte
		var ends []uint32
		for _, k := range keys {
			arena = append(arena, k...)
			ends = append(ends, uint32(len(arena)))
		}
		if _, dup := Build(arena, ends); dup != int32(len(keys)-1) {
			t.Errorf("%q: duplicate reported at %d, want %d", keys, dup, len(keys)-1)
		}
	}
}

func TestSlotsCanonical(t *testing.T) {
	var tab Table
	if tab.slots != nil {
		t.Fatal("an empty table holds slots")
	}
	for n := 1; n <= 5000; n++ {
		tab.Add(fmt.Sprint(n))
		size := len(tab.slots)
		if size < 8 || size&(size-1) != 0 || 3*size < 4*(n+1) || size > 8 && 3*size/2 >= 4*(n+1) {
			t.Fatalf("%d keys in %d slots", n, size)
		}
	}
}
