package dtrain

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"topmine/internal/topicmodel"
)

// capturedSetup returns the SETUP payload a coordinator sends the first
// of two workers over a small corpus: a worker that says HELLO, reads
// its SETUP and hangs up. The run then fails, which is ignored.
func capturedSetup(tb testing.TB) []byte {
	tb.Helper()
	fix := buildFixture(tb, "20conf", 20)
	ln := listen(tb)
	got := make(chan []byte, 1)
	go func() {
		defer close(got)
		conn, err := Dial(ln.Addr().String(), 10*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		fr := &framer{conn: conn, timeout: 10 * time.Second}
		if fr.send(fHello, binary.LittleEndian.AppendUint32(nil, protoVersion)) != nil {
			return
		}
		if payload, err := fr.recvExpect(fSetup); err == nil {
			got <- append([]byte(nil), payload...)
		}
	}()
	job := fix.job
	job.Model = topicmodel.Options{K: 3, Iterations: 2, Seed: 5}
	_, _ = Train(ln, job, Options{Workers: 1, BarrierTimeout: 10 * time.Second})
	payload, ok := <-got
	if !ok {
		tb.Fatal("no SETUP frame captured")
	}
	return payload
}

// TestSetupRoundTrip: a captured SETUP decodes to the shard the
// coordinator holds, and re-encodes to the same bytes.
func TestSetupRoundTrip(t *testing.T) {
	payload := capturedSetup(t)
	s, err := decodeSetup(payload)
	if err != nil {
		t.Fatal(err)
	}
	if s.Lo != 0 || s.Hi != 20 || s.K != 3 || len(s.Z) != 20 || s.Mined == nil ||
		s.Params.SigThreshold != fixSigAlpha || s.Params.MaxPhraseLen != fixMaxLen {
		t.Fatalf("decoded setup for docs [%d, %d), K=%d, %d Z rows, params %+v", s.Lo, s.Hi, s.K, len(s.Z), s.Params)
	}
	if again := s.appendTo(nil); !reflect.DeepEqual(again, payload) {
		t.Fatal("re-encoding the decoded setup changed its bytes")
	}
}

// FuzzDecodeSetup feeds decodeSetup arbitrary bytes, seeded with a SETUP
// payload captured off the wire. Its property: an error wrapping
// ErrProtocol, or a setup whose every assignment is below K; and no
// allocation beyond 8 bytes per input byte plus 64 KiB.
func FuzzDecodeSetup(f *testing.F) {
	f.Add(capturedSetup(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := decodeSetup(data)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+64<<10; got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("error %q does not wrap ErrProtocol", err)
			}
			return
		}
		for d, z := range s.Z {
			for g, k := range z {
				if k < 0 || int(k) >= s.K {
					t.Fatalf("Z[%d][%d] = %d for K=%d", d, g, k, s.K)
				}
			}
		}
	})
}
