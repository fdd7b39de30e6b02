package dtrain

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"topmine/internal/topicmodel"
)

// FuzzReadCheckpoint feeds the .tpd decoder arbitrary bytes, as given
// and with every section's CRC patched to match, so that mutations
// reach the section decoders behind the checksums. It is seeded with
// the checkpoint TestCheckpointRoundTrip writes. Its property: an
// error wrapping exactly one ErrCkpt* sentinel, or a checkpoint with
// K > 0, K totals and every assignment below K; and no allocation
// beyond 8 bytes per input byte plus 64 KiB.
func FuzzReadCheckpoint(f *testing.F) {
	fix := buildFixture(f, "20conf", 20)
	opt := topicmodel.Options{K: 3, Iterations: 8, Seed: 2, OptimizeHyper: true, HyperEvery: 4, BurnIn: 2}
	m := topicmodel.Train(fix.docs, fix.v, withWorkers(opt, 1))
	valid := captureCheckpoint(m, opt.Filled(), 8, topicmodel.DocsChecksum(fix.docs)).encode()
	// A document count whose fourfold overflows int once passed the Z
	// section's length check and panicked in make.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[ckptHeaderSize+4*ckptEntrySize+8:], 1<<62)
	f.Add(valid)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadCheckpoint(t, data)
		if fixed := fixCheckpointCRCs(data); fixed != nil {
			checkReadCheckpoint(t, fixed)
		}
	})
}

func checkReadCheckpoint(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ck, err := decodeCheckpoint(data)
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+64<<10; got > bound {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
	}
	if err != nil {
		named := 0
		for _, e := range []error{ErrCkptBadMagic, ErrCkptVersion, ErrCkptTruncated, ErrCkptChecksum, ErrCkptFormat} {
			if errors.Is(err, e) {
				named++
			}
		}
		if named != 1 {
			t.Fatalf("error %q wraps %d checkpoint errors, want 1", err, named)
		}
		return
	}
	if ck.K <= 0 || len(ck.Nk) != ck.K {
		t.Fatalf("decoded K=%d with %d topic totals", ck.K, len(ck.Nk))
	}
	for d, z := range ck.Z {
		for g, k := range z {
			if k < 0 || int(k) >= ck.K {
				t.Fatalf("Z[%d][%d] = %d for K=%d", d, g, k, ck.K)
			}
		}
	}
}

// fixCheckpointCRCs returns a copy of data with the CRC of every section
// its table describes recomputed; nil when data has no section table.
func fixCheckpointCRCs(data []byte) []byte {
	if len(data) < ckptHeaderSize || string(data[:8]) != ckptMagic {
		return nil
	}
	out := append([]byte(nil), data...)
	nsec := int(binary.LittleEndian.Uint32(out[16:]))
	for i := 0; i < nsec && ckptHeaderSize+(i+1)*ckptEntrySize <= len(out); i++ {
		e := out[ckptHeaderSize+i*ckptEntrySize:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off <= uint64(len(out)) && length <= uint64(len(out))-off {
			binary.LittleEndian.PutUint32(e[4:], crc32.ChecksumIEEE(out[off:off+length]))
		}
	}
	return out
}
