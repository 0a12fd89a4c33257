// Package coord is the distributed cluster coordinator: a supervisor
// drives N workers, each the cluster engine over one contiguous block
// of coverage cells (cluster.Worker, constructed only on the worker
// side of the wire), through the scenario in lockstep boundaries —
// exchanging handover-twin batches, per-interval record streams and
// worker checkpoints as length-prefixed CRC32-guarded binary frames
// over pipes.
//
// The robustness layer is the point: workers heartbeat between
// frames, and a worker ships its checkpoint at the boundaries the
// supervisor asks for — the train boundary, every checkpoint-only
// boundary, and often enough that at most replayMax-1 boundaries
// complete in between. The supervisor logs the step and imports
// frames of each of those. On worker loss — process exit, SIGKILL,
// torn frame, missed heartbeat — it restarts the worker with
// exponential backoff from the last checkpoint it shipped, replays
// the logged boundaries and then the in-flight one; a boundary that
// outlives its deadline fails the run. Because workers are
// deterministic and boundaries are idempotent to replay, the merged
// trace stays bit-identical to the single-process cluster run at the
// same seed, faults or none.
package coord

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/obs"
)

// Typed wire errors.
var (
	// ErrFrame marks a torn or corrupt frame: bad length prefix, bad
	// CRC, or a stream that ends mid-frame.
	ErrFrame = errors.New("coord: corrupt frame")
	// ErrProtocol marks a well-formed frame that violates the
	// supervisor/worker protocol (wrong type, wrong sequence, bad
	// payload shape).
	ErrProtocol = errors.New("coord: protocol violation")
	// ErrWorkerFailed marks a worker that died more times than the
	// restart budget allows, or a boundary past its deadline; either
	// fails the run.
	ErrWorkerFailed = errors.New("coord: worker failed")
)

// protoVersion gates the hello exchange so a supervisor never drives
// a worker speaking a different frame dialect. Version 3 added the
// step frame's ship-checkpoint byte; there is no reader for 2.
const protoVersion = 3

// maxFramePayload bounds one frame's payload: worker checkpoints
// carry whole cell populations, so the ceiling is generous, but a
// corrupt length prefix must never cause an unbounded allocation.
const maxFramePayload = 1 << 26

// frameType tags a frame's payload shape.
type frameType uint8

const (
	// Supervisor → worker.
	fHello    frameType = 1 // config, partition, faults, optional resume checkpoint
	fStep     frameType = 2 // run one phase; ship the checkpoint or not
	fImports  frameType = 3 // twin batch routed into this worker
	fShutdown frameType = 4 // clean exit
	// Worker → supervisor.
	fReady     frameType = 5  // hello processed, engine constructed/restored
	fRecords   frameType = 6  // one interval's records as a tracebin stream
	fExports   frameType = 7  // twin batch leaving this worker
	fBoundary  frameType = 8  // step done: counters + checkpoint if asked
	fHeartbeat frameType = 9  // liveness beat
	fError     frameType = 10 // terminal worker-side failure, as text
)

// frameNames are the frame types' names, the frame label of the byte
// counters; index 0, which no frame type has, names every byte a frame
// of an unknown type carried.
var frameNames = [...]string{
	0:          "unknown",
	fHello:     "hello",
	fStep:      "step",
	fImports:   "imports",
	fShutdown:  "shutdown",
	fReady:     "ready",
	fRecords:   "records",
	fExports:   "exports",
	fBoundary:  "boundary",
	fHeartbeat: "heartbeat",
	fError:     "error",
}

// String names the frame type, "unknown" for a byte no type has.
func (t frameType) String() string {
	if int(t) >= len(frameNames) {
		t = 0
	}
	return frameNames[t]
}

// frameBytes counts the bytes of whole frames — length prefix, type,
// payload and CRC — in one series per frame type, labelled
// frame="<name>". A nil *frameBytes counts nothing; a nil registry
// gets one.
type frameBytes [len(frameNames)]*obs.Counter

func newFrameBytes(reg *obs.Registry, name, help string) *frameBytes {
	if reg == nil {
		return nil
	}
	var fb frameBytes
	for t := range fb {
		fb[t] = reg.Counter(name, help, obs.Label{Name: "frame", Value: frameNames[t]})
	}
	return &fb
}

// add counts one frame of type typ, n bytes long.
func (fb *frameBytes) add(typ frameType, n int) {
	if fb == nil {
		return
	}
	if int(typ) >= len(fb) {
		typ = 0
	}
	fb[typ].Add(uint64(n))
}

// phase selects what a step frame runs.
type phase uint8

const (
	phaseWarmup phase = iota
	phaseTrain
	phaseInterval
	phaseCkpt // checkpoint-only boundary: no engine work, always ships
)

func (p phase) String() string {
	switch p {
	case phaseWarmup:
		return "warmup"
	case phaseTrain:
		return "train"
	case phaseInterval:
		return "interval"
	case phaseCkpt:
		return "checkpoint"
	}
	return "unknown"
}

// A frame is [u32 len][type+payload][u32 crc]; the CRC covers the
// type byte and payload. Frames are encoded whole into one buffer —
// beginFrame, the payload appended in place, endFrame — so a payload
// that is itself a stream (a worker checkpoint, a records stream) is
// written straight into its frame and never copied in.

// frameOverhead is the bytes of a frame that are not payload: the
// length prefix, the type byte and the CRC.
const frameOverhead = 4 + 1 + 4

// beginFrame starts a frame at the end of e: a length placeholder and
// the type byte. It returns the frame's offset for endFrame.
func beginFrame(e *checkpoint.Enc, typ frameType) int {
	at := beginBlob(e)
	e.U8(uint8(typ))
	return at
}

// endFrame closes the frame begun at offset at: it patches the length
// and appends the CRC.
func endFrame(e *checkpoint.Enc, at int) {
	endBlob(e, at)
	e.U32(crc32.ChecksumIEEE(e.Bytes()[at+4:]))
}

// beginBlob starts a length-prefixed blob at the end of e, for a
// stream to write in place (an Enc is an io.Writer); it returns the
// prefix offset for endBlob.
func beginBlob(e *checkpoint.Enc) int {
	at := len(e.Bytes())
	e.U32(0)
	return at
}

// endBlob patches the prefix at offset at to the length of what
// follows it.
func endBlob(e *checkpoint.Enc, at int) {
	b := e.Bytes()
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
}

// encodeFrame returns one whole frame of typ around payload, in its
// own buffer: the form a frame is queued and logged in.
func encodeFrame(typ frameType, payload []byte) []byte {
	var e checkpoint.Enc
	at := beginFrame(&e, typ)
	e.Write(payload)
	endFrame(&e, at)
	return e.Bytes()
}

// ReadFrame reads one frame from br, reusing buf for the payload. It
// returns the frame type, the payload (aliasing the possibly-grown
// buffer, valid until the next call), and the buffer for reuse. A
// clean EOF at a frame start returns io.EOF; a stream ending inside a
// frame, an out-of-range length or a checksum mismatch return
// ErrFrame. Allocation is bounded by the frame length cap regardless
// of input.
func ReadFrame(br *bufio.Reader, buf []byte) (frameType, []byte, []byte, error) {
	buf = buf[:cap(buf)]
	var lenb [4]byte
	if _, err := io.ReadFull(br, lenb[:]); err != nil {
		if err == io.EOF {
			return 0, nil, buf, io.EOF
		}
		return 0, nil, buf, fmt.Errorf("frame length: %w", ErrFrame)
	}
	n := int(binary.LittleEndian.Uint32(lenb[:]))
	if n < 1 || n > maxFramePayload {
		return 0, nil, buf, fmt.Errorf("frame length %d: %w", n, ErrFrame)
	}
	// Read the body into the room the buffer already has, growing it
	// only when full — by doubling, from one chunk — so a torn stream
	// whose length prefix claims a huge frame never allocates the claim,
	// while a frame that fits the reused buffer is read in one call,
	// mostly straight from the stream rather than through br's buffer.
	const chunk = 1 << 16
	for read := 0; read < n; {
		if read == cap(buf) {
			nb := make([]byte, min(n, max(2*cap(buf), read+chunk)))
			copy(nb, buf[:read])
			buf = nb
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(br, buf[read:end]); err != nil {
			return 0, nil, buf, fmt.Errorf("frame body: %w", ErrFrame)
		}
		read = end
	}
	body := buf[:n]
	if _, err := io.ReadFull(br, lenb[:]); err != nil {
		return 0, nil, buf, fmt.Errorf("frame checksum: %w", ErrFrame)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(lenb[:]); got != want {
		return 0, nil, buf, fmt.Errorf("frame checksum %08x (want %08x): %w", got, want, ErrFrame)
	}
	return frameType(body[0]), body[1:], buf, nil
}

// conn serializes frame writes to one pipe. Both worker (main loop +
// heartbeat goroutine) and supervisor (sender goroutine) funnel
// through it; each frame reaches the pipe as a single Write.
type conn struct {
	mu  sync.Mutex
	w   io.Writer
	out checkpoint.Enc // send's frame buffer
	tx  *frameBytes    // frame bytes written, per type; nil-safe
	err error
}

func newConn(w io.Writer, tx *frameBytes) *conn { return &conn{w: w, tx: tx} }

// send encodes and writes one frame.
func (c *conn) send(typ frameType, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out.Reset()
	at := beginFrame(&c.out, typ)
	c.out.Write(payload)
	endFrame(&c.out, at)
	return c.writeLocked(c.out.Bytes())
}

// write writes one whole, already encoded frame.
func (c *conn) write(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(frame)
}

// writeLocked writes frame under c.mu. A failed write latches the
// conn so the heartbeat goroutine stops hammering a torn pipe.
func (c *conn) writeLocked(frame []byte) error {
	if c.err != nil {
		return c.err
	}
	typ := frameType(frame[4]) // read before the frame is handed on
	if _, err := c.w.Write(frame); err != nil {
		c.err = err
		return err
	}
	c.tx.add(typ, len(frame))
	return nil
}

// sendGarbage writes a deliberately corrupt frame (valid length, bad
// CRC) — the ProcGarbage fault. The conn is NOT latched: the fault
// model is a worker emitting damage, not a dead pipe.
func (c *conn) sendGarbage() error {
	frame := encodeFrame(fHeartbeat, []byte("garbage"))
	frame[len(frame)-1] ^= 0xFF // break the checksum
	return c.write(frame)
}

// hold grabs the write mutex for d — the ProcHang fault. Heartbeats
// and step responses stall together, so the supervisor's liveness
// deadline (not the pipe) must detect the loss.
func (c *conn) hold(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(d)
}
