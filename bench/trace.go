package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// only by this package, around its calls into the program; nothing
// inside the program is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root of its phase
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Req    int    `json:"req,omitempty"` // request number shared by a client span and its handler span
	Start  int64  `json:"start_ns"`      // unix nanoseconds
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the phase ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	phase string
	mu    sync.Mutex // the serve child records from client and handler goroutines
	spans []span
}

func newTracer(phase string, on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{phase: phase, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Phase: t.phase, Req: req, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns how long it took.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// appendTo writes the spans as JSON lines at the end of path.
func (t *tracer) appendTo(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
