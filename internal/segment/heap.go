package segment

// mergeHeap is a binary max-heap of candidate merges keyed by
// significance. Entries are invalidated implicitly: a popped entry is
// acted on only if both endpoints are still alive and adjacent, so no
// decrease-key operation is needed and every merge costs O(log n), the
// bound claimed in §4.2.1 of the paper.
type mergeHeap struct {
	entries []mergeEntry
}

type mergeEntry struct {
	score       float64
	left, right int32 // node ids
	count       int64 // corpus count of the merged phrase
}

func (h *mergeHeap) len() int { return len(h.entries) }

func (h *mergeHeap) push(e mergeEntry) {
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.entries[parent].score >= h.entries[i].score {
			break
		}
		h.entries[parent], h.entries[i] = h.entries[i], h.entries[parent]
		i = parent
	}
}

func (h *mergeHeap) pop() mergeEntry {
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < last && h.entries[l].score > h.entries[largest].score {
			largest = l
		}
		if r < last && h.entries[r].score > h.entries[largest].score {
			largest = r
		}
		if largest == i {
			break
		}
		h.entries[i], h.entries[largest] = h.entries[largest], h.entries[i]
		i = largest
	}
	return top
}

// reset empties the heap while retaining capacity, so one heap can be
// reused across the segments of a worker.
func (h *mergeHeap) reset() { h.entries = h.entries[:0] }
