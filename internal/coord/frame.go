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
// step frame's ship-checkpoint byte; version 4 ships a checkpoint as
// chunk frames ahead of the boundary frame, which announces its
// length. There is no reader for an older version.
const protoVersion = 4

// maxFramePayload bounds one frame's payload, and a shipped
// checkpoint's chunks together: worker checkpoints carry whole cell
// populations, so the ceiling is generous, but a corrupt length prefix
// must never cause an unbounded allocation.
const maxFramePayload = 1 << 26

// shipChunk bounds a chunk frame's payload. The supervisor reads each
// chunk into a buffer of this size from the worker slot's pool, so a
// ship allocates at most what arrived, rounded up to a chunk, and only
// while the pool is short.
const shipChunk = 1 << 16

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
	fBoundary  frameType = 8  // step done: counters + the length of the ship ahead of it
	fHeartbeat frameType = 9  // liveness beat
	fError     frameType = 10 // terminal worker-side failure, as text
	fChunk     frameType = 11 // up to shipChunk bytes of a shipped checkpoint
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
	fChunk:     "chunk",
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
// that is itself a stream (a records stream) is written straight into
// its frame and never copied in. A worker checkpoint is the exception:
// it is encoded whole into the worker's frame buffer and written as
// chunk frames around windows of it (conn.writeShip).

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
// frame, an out-of-range length — a chunk frame's over shipChunk — or
// a checksum mismatch return ErrFrame. Allocation is bounded by the
// frame length cap regardless of input.
func ReadFrame(br *bufio.Reader, buf []byte) (frameType, []byte, []byte, error) {
	typ, n, err := readFrameHeader(br)
	if err != nil {
		return 0, nil, buf, err
	}
	payload, buf, err := readFramePayload(br, typ, n, buf)
	if err != nil {
		return 0, nil, buf, err
	}
	return typ, payload, buf, nil
}

// readFrameHeader reads a frame's length prefix and type byte, and
// returns the type and the payload length. Both are checked before any
// payload is read, so a caller may pick the payload's buffer by type.
func readFrameHeader(br *bufio.Reader) (frameType, int, error) {
	lenb, err := br.Peek(4)
	if err != nil {
		if len(lenb) == 0 && err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("frame length: %w", ErrFrame)
	}
	n := int(binary.LittleEndian.Uint32(lenb))
	br.Discard(4)
	if n < 1 || n > maxFramePayload {
		return 0, 0, fmt.Errorf("frame length %d: %w", n, ErrFrame)
	}
	t, err := br.ReadByte()
	if err != nil {
		return 0, 0, fmt.Errorf("frame type: %w", ErrFrame)
	}
	typ := frameType(t)
	if typ == fChunk && n-1 > shipChunk {
		return 0, 0, fmt.Errorf("chunk frame of %d bytes: %w", n-1, ErrFrame)
	}
	return typ, n - 1, nil
}

// typeCRC is the CRC32 of each type byte alone: a frame's checksum
// starts from its type's and runs on over the payload.
var typeCRC = func() (t [256]uint32) {
	for i := range t {
		t[i] = crc32.ChecksumIEEE([]byte{byte(i)})
	}
	return t
}()

// readFramePayload reads the n-byte payload of a frame of type typ,
// whose header readFrameHeader read, into buf and checks the CRC.
func readFramePayload(br *bufio.Reader, typ frameType, n int, buf []byte) ([]byte, []byte, error) {
	buf = buf[:cap(buf)]
	// Read the payload into the room the buffer already has, growing it
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
			return nil, buf, fmt.Errorf("frame body: %w", ErrFrame)
		}
		read = end
	}
	payload := buf[:n]
	sum, err := br.Peek(4)
	if err != nil {
		return nil, buf, fmt.Errorf("frame checksum: %w", ErrFrame)
	}
	got, want := crc32.Update(typeCRC[typ], crc32.IEEETable, payload), binary.LittleEndian.Uint32(sum)
	br.Discard(4)
	if got != want {
		return nil, buf, fmt.Errorf("frame checksum %08x (want %08x): %w", got, want, ErrFrame)
	}
	return payload, buf, nil
}

// conn serializes frame writes to one pipe. Both worker (main loop +
// heartbeat goroutine) and supervisor (sender goroutine) funnel
// through it; each frame but a chunk frame reaches the pipe as a
// single Write.
type conn struct {
	mu    sync.Mutex
	w     io.Writer
	out   checkpoint.Enc // send's frame buffer
	chunk [5]byte        // writeShip's chunk frame header, then its CRC
	tx    *frameBytes    // frame bytes written, per type; nil-safe
	err   error
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

// writeLocked writes frame under c.mu and counts it.
func (c *conn) writeLocked(frame []byte) error {
	typ := frameType(frame[4]) // read before the frame is handed on
	if c.writeRaw(frame); c.err == nil {
		c.tx.add(typ, len(frame))
	}
	return c.err
}

// writeShip writes a shipped checkpoint as chunk frames, each a window
// of ckpt between a header and a CRC written apart, and then boundary,
// the whole boundary frame that announces the ship's length — under one
// hold of the lock, so no heartbeat comes between them. An empty ckpt
// writes the boundary frame alone.
func (c *conn) writeShip(ckpt, boundary []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(ckpt) > 0 && c.err == nil {
		n := min(len(ckpt), shipChunk)
		binary.LittleEndian.PutUint32(c.chunk[:], uint32(1+n))
		c.chunk[4] = byte(fChunk)
		c.writeRaw(c.chunk[:])
		c.writeRaw(ckpt[:n])
		binary.LittleEndian.PutUint32(c.chunk[:], crc32.Update(typeCRC[fChunk], crc32.IEEETable, ckpt[:n]))
		if c.writeRaw(c.chunk[:4]); c.err == nil {
			c.tx.add(fChunk, frameOverhead+n)
		}
		ckpt = ckpt[n:]
	}
	return c.writeLocked(boundary)
}

// writeRaw writes b, a frame or part of one, under c.mu. A failed
// write latches the conn so the heartbeat goroutine stops hammering a
// torn pipe.
func (c *conn) writeRaw(b []byte) {
	if c.err != nil {
		return
	}
	if _, err := c.w.Write(b); err != nil {
		c.err = err
	}
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
