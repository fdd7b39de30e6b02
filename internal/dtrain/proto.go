// Package dtrain implements multi-process AD-LDA training: a
// coordinator that owns the full model and the sweep schedule, and
// workers that each train one contiguous document range of a .tpc
// corpus file against globals frozen at the sweep barrier.
//
// The protocol (one TCP/loopback connection per worker) is a strict
// lockstep of length-prefixed, CRC-checked frames, reusing the framing
// idiom of internal/corpusfile's section container:
//
//	worker → HELLO                    protocol version
//	coord  → SETUP                    doc range, priors, corpus path, mined phrases, shard Z
//	coord  → GLOBALS                  dense word-topic counts + topic totals
//	worker → READY                    shard checksum — worker rebuilt the same docs
//	per sweep:
//	  coord  → SWEEP                  iteration, RNG base, wantZ flag, current priors
//	  worker → DELTA                  sparse N_wk delta
//	  worker → CKPT                   full shard Z (only when SWEEP set wantZ)
//	  coord  → ROWS                   post-fold values of all touched rows
//	coord  → FINISH; worker → FINAL   final shard assignments
//	either → ABORT                    named failure, human-readable cause
//
// The SWEEP wantZ flag is set at hyperparameter-optimization barriers
// (the coordinator recomputes every document-topic row from the
// uploaded assignments) and at checkpoint barriers (the coordinator
// snapshots the globally synchronized state, in memory for elastic
// recovery and optionally to a .tpd file). A coordinator recovering
// from a lost worker re-sends SETUP mid-run; workers treat SETUP at
// any point as "abandon the current shard and resync".
//
// Every draw a worker makes replicates the corresponding in-process
// SweepParallel goroutine bit for bit (same RNG stream, same frozen
// globals, same visit order), so a distributed run's trained model —
// and its rendered topics — is byte-identical to SweepParallel with
// the same topology (worker count, shard ranges, seed). Output still
// differs from the serial sampler's: that is the AD-LDA approximation,
// deterministic per topology, not a bug.
package dtrain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"time"

	"topmine/internal/corpusfile"
	"topmine/internal/phrasemine"
)

const (
	protoVersion = 3
	headerSize   = 16
	maxFrame     = 1 << 30
)

var frameMagic = [4]byte{'t', 'p', 'd', 'F'}

// Frame types.
const (
	fHello byte = iota + 1
	fSetup
	fGlobals
	fReady
	fSweep
	fDelta
	fRows
	fFinish
	fFinal
	fAbort
	fCkpt
)

var (
	// ErrWorkerLost is returned by the coordinator when a worker
	// connection dies or misses a barrier deadline mid-run. Shard
	// assignments live only in the worker, so the run cannot continue;
	// it aborts loudly instead of hanging.
	ErrWorkerLost = errors.New("dtrain: worker lost")
	// ErrProtocol marks a malformed frame: bad magic, CRC mismatch, or
	// an unexpected frame type.
	ErrProtocol = errors.New("dtrain: protocol error")
	// ErrCoordinatorLost is returned by RunWorker when the coordinator
	// connection dies or misses a barrier deadline. It marks the one
	// retryable worker-side failure class: the coordinator may have
	// restarted (possibly resuming from a checkpoint), so the public
	// worker loop can dial again, unlike explicit aborts or protocol
	// violations, which stay fatal.
	ErrCoordinatorLost = errors.New("dtrain: coordinator lost")
)

// abortError carries the other side's ABORT message.
type abortError struct{ msg string }

func (e *abortError) Error() string { return "peer aborted: " + e.msg }

// framer sends and receives frames over one connection with a
// per-operation deadline. The receive buffer is reused; a frame's
// payload is valid until the next recv.
type framer struct {
	conn    net.Conn
	timeout time.Duration
	hdr     [headerSize]byte
	buf     []byte
}

func (f *framer) send(t byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, len(payload))
	}
	if f.timeout > 0 {
		if err := f.conn.SetWriteDeadline(time.Now().Add(f.timeout)); err != nil {
			return err
		}
	}
	var hdr [headerSize]byte
	copy(hdr[:4], frameMagic[:])
	hdr[4] = t
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
	if _, err := f.conn.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := f.conn.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

func (f *framer) recv() (byte, []byte, error) {
	if f.timeout > 0 {
		if err := f.conn.SetReadDeadline(time.Now().Add(f.timeout)); err != nil {
			return 0, nil, err
		}
	}
	if _, err := io.ReadFull(f.conn, f.hdr[:]); err != nil {
		return 0, nil, err
	}
	if [4]byte(f.hdr[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad frame magic %q", ErrProtocol, f.hdr[:4])
	}
	t := f.hdr[4]
	n := binary.LittleEndian.Uint32(f.hdr[8:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	if cap(f.buf) < int(n) {
		f.buf = make([]byte, n)
	}
	payload := f.buf[:n]
	if _, err := io.ReadFull(f.conn, payload); err != nil {
		return 0, nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != binary.LittleEndian.Uint32(f.hdr[12:]) {
		return 0, nil, fmt.Errorf("%w: frame CRC mismatch", ErrProtocol)
	}
	return t, payload, nil
}

// recvExpect receives one frame of the given type; an ABORT frame
// surfaces as *abortError, anything else as ErrProtocol.
func (f *framer) recvExpect(want byte) ([]byte, error) {
	t, payload, err := f.recv()
	if err != nil {
		return nil, err
	}
	if t == fAbort {
		return nil, &abortError{msg: string(payload)}
	}
	if t != want {
		return nil, fmt.Errorf("%w: got frame type %d, want %d", ErrProtocol, t, want)
	}
	return payload, nil
}

// abortTimeout bounds the best-effort ABORT write. Failure propagation
// fans out to every surviving peer; with the regular BarrierTimeout a
// single wedged connection (full TCP window, stalled reader) could
// stall that fan-out for minutes, so the courtesy notification gets its
// own short budget instead.
const abortTimeout = 2 * time.Second

// abort best-effort sends an ABORT frame carrying the cause, bounded
// by abortTimeout rather than the frame timeout.
func (f *framer) abort(msg string) {
	saved := f.timeout
	if saved <= 0 || saved > abortTimeout {
		f.timeout = abortTimeout
	}
	_ = f.send(fAbort, []byte(msg))
	f.timeout = saved
}

// pendingFrameWait bounds sendOrAbort's read of a frame already in
// flight; an ABORT that explains a failed write has arrived before the
// write failed, so it is in the socket buffer.
const pendingFrameWait = 250 * time.Millisecond

// sendOrAbort is send for a frame the peer may never read. A worker
// that gives up before reading SETUP sends ABORT and closes, and the
// coordinator's write can then fail with a broken pipe although the
// ABORT frame already sits in its socket buffer. After a failed send,
// one pending frame is read under pendingFrameWait, and an ABORT wins
// over the write error.
func (f *framer) sendOrAbort(t byte, payload []byte) error {
	err := f.send(t, payload)
	if err == nil {
		return nil
	}
	saved := f.timeout
	f.timeout = pendingFrameWait
	pt, msg, rerr := f.recv()
	f.timeout = saved
	if rerr == nil && pt == fAbort {
		return &abortError{msg: string(msg)}
	}
	return err
}

// setupMsg is one worker's SETUP frame: its shard of the documents,
// the priors, the corpus file to rebuild the shard from, the mined
// phrases and segmentation parameters to re-segment it with, and the
// shard's topic assignments.
type setupMsg struct {
	Lo, Hi            int
	Index, NumWorkers int
	K, V              int
	Alpha             []float64
	AlphaSum, Beta    float64
	CorpusPath        string
	// Params carries the segmentation parameters: SigThreshold is the
	// significance threshold α of Algorithm 2, MaxPhraseLen its cap.
	Params corpusfile.Params
	Mined  *phrasemine.Result
	Z      [][]int32
}

// appendTo appends the SETUP payload, little-endian:
//
//	u32 protocol version, Lo, Hi, Index, NumWorkers, K, V;
//	f64 AlphaSum, Beta, then K × f64 Alpha;
//	u32 length + corpus path bytes;
//	u32 length + corpusfile.AppendArtifacts(Params, Mined);
//	the shard's Z as appendZ writes it (Hi−Lo documents).
func (s *setupMsg) appendTo(buf []byte) []byte {
	for _, v := range []int{protoVersion, s.Lo, s.Hi, s.Index, s.NumWorkers, s.K, s.V} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = appendF64(appendF64(buf, s.AlphaSum), s.Beta)
	for _, a := range s.Alpha {
		buf = appendF64(buf, a)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.CorpusPath)))
	buf = append(buf, s.CorpusPath...)
	n := len(buf)
	buf = corpusfile.AppendArtifacts(binary.LittleEndian.AppendUint32(buf, 0), s.Params, s.Mined)
	binary.LittleEndian.PutUint32(buf[n:], uint32(len(buf)-n-4))
	return appendZ(buf, s.Z)
}

// decodeSetup decodes a SETUP payload. Every count is checked against
// the bytes left before anything is allocated for it, every assignment
// is below K, and every failure wraps ErrProtocol.
func decodeSetup(payload []byte) (*setupMsg, error) {
	r := wireReader{data: payload}
	if v := r.u32(); r.err == nil && v != protoVersion {
		return nil, fmt.Errorf("%w: coordinator speaks protocol %d, worker %d", ErrProtocol, v, protoVersion)
	}
	s := &setupMsg{Lo: int(r.u32()), Hi: int(r.u32()), Index: int(r.u32()), NumWorkers: int(r.u32()),
		K: int(r.u32()), V: int(r.u32()), AlphaSum: r.f64(), Beta: r.f64()}
	if r.err != nil {
		return nil, r.err
	}
	// GLOBALS carries V×K counts of 4 bytes in one frame.
	if s.Lo > s.Hi || s.Index >= s.NumWorkers || s.K < 1 || s.V < 1 ||
		uint64(s.V)*uint64(s.K) > maxFrame/4 || s.K > len(r.data)/8 {
		return nil, fmt.Errorf("%w: setup for docs [%d, %d), worker %d of %d, K=%d, V=%d in %d bytes",
			ErrProtocol, s.Lo, s.Hi, s.Index, s.NumWorkers, s.K, s.V, len(payload))
	}
	s.Alpha = r.f64s(make([]float64, s.K))
	s.CorpusPath = string(r.take(int(r.u32())))
	art := r.take(int(r.u32()))
	if r.err != nil {
		return nil, r.err
	}
	var err error
	if s.Params, s.Mined, err = corpusfile.DecodeArtifacts(art, s.V); err != nil {
		return nil, fmt.Errorf("%w: setup: %v", ErrProtocol, err)
	}
	if s.Z, err = decodeZ(r.data, s.Hi-s.Lo, s.K); err != nil {
		return nil, fmt.Errorf("%w: setup Z: %v", ErrProtocol, err)
	}
	return s, nil
}

// Little-endian append/read helpers shared by the fixed-layout frames.

func appendI32s(buf []byte, vs []int32) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

func appendI64s(buf []byte, vs []int64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.err = fmt.Errorf("%w: payload truncated (need %d bytes, have %d)", ErrProtocol, n, len(r.data))
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *wireReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) i32s(dst []int32) []int32 {
	b := r.take(4 * len(dst))
	if b == nil {
		return dst
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return dst
}

func (r *wireReader) i64s(dst []int64) []int64 {
	b := r.take(8 * len(dst))
	if b == nil {
		return dst
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

func (r *wireReader) f64s(dst []float64) []float64 {
	b := r.take(8 * len(dst))
	if b == nil {
		return dst
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}
