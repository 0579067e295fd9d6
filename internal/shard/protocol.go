// Package shard scales fault grading across worker processes and
// machines. GradeDist partitions the fault universe into deterministic,
// cache-friendly shards (reusing the cone-aware pass packing of
// internal/fault, balanced by host capacity), replicates the synthesized
// netlist and the sparse golden trace into each worker's
// content-addressed artifact cache push-on-miss, grades one shard per
// host over persistent worker sessions, and unions the per-shard
// detections with fault.MergeShards into a result bit-identical to an
// unsharded run.
//
// A worker host is any process embedding this package: a TCP daemon
// (EnvHostAddr, sbst -shard-serve), or a child speaking one session on
// its stdin/stdout (an exec host: EnvSession, sbst -shard-session, or
// an ssh wrapper). `-shards N` on sbst and report is GradeDist over N
// exec hosts of the running binary (LocalHosts); those children open
// the coordinator's own cache directory, so they find every artifact
// already present.
//
// Frames are length-prefixed, CRC-guarded gob on one persistent stream
// per direction (Encoder/Decoder); a truncated or corrupted frame is a
// diagnosed error, treated like a crashed worker (one retry, then a hard
// error — never a silently partial merge).
package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/fault"
)

// Request is the coordinator-to-worker job description. Heavy artifacts
// (netlist, golden trace) travel by content address through the worker's
// artifact cache; only the shard's own fault subset rides in the frame.
type Request struct {
	// Shard is the shard's index in the coordinator's partition, echoed
	// back in the Response.
	Shard int
	// CPUKey and GoldenKey address the replicated CPU (cache.PutCPU) and
	// golden trace (cache.PutGolden) in the worker's cache.
	CPUKey    string
	GoldenKey string
	// Faults is the shard's fault subset, in the coordinator's shard-local
	// order; UniverseHash is fault.UniverseHash over it, echoed back so a
	// mismatched merge is diagnosable end to end.
	Faults       []fault.Fault
	UniverseHash string
	// Engine, LaneWords and Workers configure the worker's in-process
	// fault.Simulate run.
	Engine    fault.Engine
	LaneWords int
	Workers   int
}

// Response is the worker-to-coordinator result frame: the per-fault
// outcomes aligned to Request.Faults, or a worker-side error.
type Response struct {
	Shard int
	// Err, when non-empty, reports a worker-side failure (bad artifact,
	// simulation error); the coordinator treats it like a crash.
	Err string
	// UniverseHash echoes the request's hash after the worker recomputed
	// it over the faults it actually graded.
	UniverseHash    string
	Cycles          int
	DetectedAt      []int32
	SignatureGroups []uint8
	Stats           fault.SimStats
	// WallNs is the worker-side wall clock of the simulation itself, so
	// the coordinator can split an attempt's latency into ship/queue/sim
	// components.
	WallNs int64
}

// maxFrameBytes bounds a frame's declared payload length.
const maxFrameBytes = 1 << 30

// frameGrowStep bounds how far the Decoder's payload buffer grows ahead
// of the bytes that have actually arrived: a header that declares more
// than it delivers costs at most one step of allocation, not its
// declared length.
const frameGrowStep = 1 << 20

// Encoder writes a persistent stream of length-prefixed, CRC-guarded gob
// frames. It keeps one gob stream alive across frames, so type
// descriptors are transmitted once per connection instead of once per
// message — the difference between ~KB and ~tens of bytes per request on
// a long-lived grading connection. Frames produced by an Encoder must be
// consumed in order by the matching Decoder (the gob stream spans
// frames). This framing is shared by every inter-process protocol in
// this repo: shard sessions and the grading server (internal/serve), so
// corruption and truncation are detected identically on either channel.
type Encoder struct {
	w   io.Writer
	buf bytes.Buffer
	enc *gob.Encoder
}

// NewEncoder returns an Encoder framing a persistent gob stream onto w.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: w}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// WriteFrame appends v to the gob stream and writes it as one frame. Any
// type descriptors v needs for the first time travel inside the same
// frame, so each frame still decodes independently in arrival order.
func (e *Encoder) WriteFrame(v any) error {
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("shard: encode frame: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(e.buf.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(e.buf.Bytes()))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("shard: write frame header: %w", err)
	}
	if _, err := e.w.Write(e.buf.Bytes()); err != nil {
		return fmt.Errorf("shard: write frame payload: %w", err)
	}
	return nil
}

// Decoder reads the frame stream an Encoder produces, verifying each
// frame's CRC before handing its bytes to the persistent gob stream. The
// payload buffer is reused across frames, so steady-state reads allocate
// only what gob itself needs for the decoded values.
type Decoder struct {
	r       io.Reader
	payload []byte
	cur     bytes.Reader
	dec     *gob.Decoder
}

// NewDecoder returns a Decoder consuming an Encoder's frame stream from r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{r: r}
	d.dec = gob.NewDecoder(&d.cur)
	return d
}

// ReadFrame reads one frame into v. Truncation (the stream ends
// mid-frame) and corruption (CRC mismatch) are distinct, explicit errors.
func (d *Decoder) ReadFrame(v any) error {
	var hdr [8]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("shard: truncated frame header: %w", err)
		}
		return fmt.Errorf("shard: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrameBytes {
		return fmt.Errorf("shard: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	if uint32(cap(d.payload)) >= n {
		d.payload = d.payload[:n]
		if _, err := io.ReadFull(d.r, d.payload); err != nil {
			return fmt.Errorf("shard: truncated frame: got fewer than the declared %d bytes: %w", n, err)
		}
	} else if err := d.readGrowing(int(n)); err != nil {
		return fmt.Errorf("shard: truncated frame: got fewer than the declared %d bytes: %w", n, err)
	}
	if crc := crc32.ChecksumIEEE(d.payload); crc != binary.LittleEndian.Uint32(hdr[4:]) {
		return fmt.Errorf("shard: frame CRC mismatch")
	}
	d.cur.Reset(d.payload)
	if err := d.dec.Decode(v); err != nil {
		return fmt.Errorf("shard: decode frame: %w", err)
	}
	return nil
}

// readGrowing reads an n-byte payload that does not fit the current
// buffer, growing the buffer at most frameGrowStep ahead of the bytes
// received so far.
func (d *Decoder) readGrowing(n int) error {
	buf := d.payload[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), frameGrowStep)
		buf = slices.Grow(buf, chunk)
		start := len(buf)
		buf = buf[:start+chunk]
		if _, err := io.ReadFull(d.r, buf[start:]); err != nil {
			d.payload = buf[:0]
			return err
		}
	}
	d.payload = buf
	return nil
}
