// This file is the supervisor: it drives N workers through the
// scenario one boundary at a time, routes twin batches between them,
// merges their record streams, and — the point of the package —
// survives worker loss. A worker ships its checkpoint only when the
// step frame asks (train, checkpoint-only, and every replayMax-th
// boundary); for every other boundary the supervisor keeps the step
// and imports frames that drove it in the worker's replay log. A
// worker that dies (process exit, torn frame, missed heartbeat) is
// killed, restarted with exponential backoff from its last shipped
// checkpoint, and fed the logged boundaries and then the in-flight
// one. Exports, records and boundaries an earlier incarnation already
// delivered are dropped, so replay is idempotent and the merged trace
// stays bit-identical.
//
// Who owns a twin's bytes. A twin crossing workers is never copied
// into a buffer of its own: every cluster.Handover.Twin is a
// capacity-capped window of a buffer that outlives it, and is valid
// exactly as long as that buffer holds it.
//   - In a worker's plan, the planning engine's twin arena: valid until
//     the engine's next PlanHandovers. The worker copies the twins into
//     its exports frame (its one frame buffer, workerSession.out).
//   - In a worker's imports, the worker's read buffer (workerSession.buf)
//     they were decoded from: valid until the next frame is read, and
//     ApplyHandovers decodes them before that.
//   - In the supervisor's exports, the exports event's payload: a buffer
//     of the worker slot's pool, which the pump copied the frame into.
//     routeImports copies the twins into the imports frames, and the
//     next step hands the payload back to the pool (as it does a records
//     payload, once StepInterval has decoded it); a payload the
//     supervisor drops goes back at once.
//
// An imports frame is the replay log's until the worker ships its
// checkpoint. Then it becomes a spare that a later routeImports encodes
// over, unless the worker restarted since its last ship: a dead
// incarnation's sender may still hold a frame that was queued to it.
//
// A shipped checkpoint is a list of chunks, buffers of the worker
// slot's chunk pool that the pump read the ship's chunk frames into. It
// goes with the boundary frame's event, and once acked becomes the
// worker's lastCkpt: the base its restarts resume from, copied into
// each hello frame. The list it supersedes goes back to the pool, unless
// CheckpointBlobs handed that list out: then it goes back at the next
// CheckpointBlobs call, and until then the caller may read it. A ship
// that is not acked (a lost worker, a stale incarnation, a boundary
// frame that does not add up) goes back at once. Resume blobs that
// SetResume took are the caller's and never enter the pool.

package coord

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/faultinject"
	"dtmsvs/internal/obs"
)

// Config parameterizes a supervised distributed run.
type Config struct {
	// Cluster is the scenario, exactly as a single-process
	// cluster.New would take it. Faults here are cell faults and are
	// rejected (they live below the worker partition); process faults
	// go in Faults.
	Cluster cluster.Config
	// Workers is the number of worker processes, each owning a
	// contiguous block of cells. Must be in [1, NumBS].
	Workers int
	// Transport builds each worker's byte channel. nil = InProcess().
	Transport TransportFactory
	// Heartbeat is the worker beat period (default 100ms), rounded up
	// to a whole millisecond: the hello frame carries milliseconds.
	Heartbeat time.Duration
	// HeartbeatMiss is how many consecutive missed beats declare a
	// worker dead (default 10).
	HeartbeatMiss int
	// StepTimeout is the hard deadline for one boundary across all
	// workers, recoveries included (default 10 minutes).
	StepTimeout time.Duration
	// MaxRestarts is the per-worker restart budget (default 3); the
	// loss after it fails the run with ErrWorkerFailed. Negative
	// forbids restarts entirely, so the first loss fails the run.
	MaxRestarts int
	// Backoff is the first restart delay; it doubles per consecutive
	// restart of the same worker, capped at 1s (default 25ms).
	Backoff time.Duration
	// Faults schedules deterministic process-fault injection
	// (kill/hang/garbage) on workers, for tests and chaos runs.
	Faults []faultinject.ProcFault
	// HangDuration is how long a ProcHang fault stalls a worker
	// (default 30s; tests shrink it), rounded up to a whole
	// millisecond like Heartbeat.
	HangDuration time.Duration
	// Metrics receives restart/heartbeat/byte counters and per-worker
	// boundary timings. nil disables.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	c.Cluster = c.Cluster.Defaulted()
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Transport == nil {
		c.Transport = InProcess()
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 10
	}
	if c.StepTimeout <= 0 {
		c.StepTimeout = 10 * time.Minute
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.HangDuration <= 0 {
		c.HangDuration = 30 * time.Second
	}
	// The hello frame sends both as whole milliseconds. Truncating a
	// sub-millisecond beat to 0 would have the worker fall back to its
	// 100ms default while gather still times it against Heartbeat.
	c.Heartbeat = ceilMillis(c.Heartbeat)
	c.HangDuration = ceilMillis(c.HangDuration)
	return c
}

// ceilMillis rounds a positive duration up to a whole millisecond.
func ceilMillis(d time.Duration) time.Duration {
	return (d + time.Millisecond - 1).Truncate(time.Millisecond)
}

// replayMax bounds a worker's replay log: the supervisor asks for a
// checkpoint at any boundary that would otherwise be the replayMax-th
// logged one, so a restart replays at most replayMax-1 boundaries.
const replayMax = 8

// logEntry is one boundary a worker completed without shipping its
// checkpoint: the step and imports frames that drove it, encoded, and
// replayed verbatim into a restarted incarnation.
type logEntry struct {
	seq     int64
	ph      phase
	n       int
	step    []byte
	imports []byte
}

// workerEvent is one frame (or read failure) from one worker
// incarnation, pumped into the supervisor's event channel.
type workerEvent struct {
	idx     int
	inc     int
	typ     frameType
	payload []byte
	ship    [][]byte // a boundary's: the chunks of the checkpoint ahead of it
	err     error
}

// workerHandle is the supervisor's view of one worker slot across
// incarnations.
type workerHandle struct {
	idx      int
	inc      int // incarnation; events from older incarnations are stale
	restarts int
	// stripBelow drops scheduled faults with Interval < stripBelow
	// from restart hellos, so a fault fires once: it cannot re-fire
	// when its interval is replayed and crash-loop the worker.
	stripBelow int
	t          Transport
	conn       *conn
	sendq      chan []byte // ordered async frame sends of the live incarnation
	// lastCkpt is the last shipped checkpoint, as its chunks (the resume
	// blob before any, which resumeCkpt marks). It is read-only: a ship
	// replaces the list, never writes it. lent holds a superseded list
	// CheckpointBlobs handed out, and lastLent says it handed out
	// lastCkpt. See the file header.
	lastCkpt   [][]byte
	resumeCkpt bool
	lent       [][]byte
	lastLent   bool
	log        []logEntry // boundaries completed since lastCkpt, oldest first
	// pool carries records and exports payload buffers the supervisor
	// is done with back to the pumps, which copy the next such payloads
	// into them; chunks recycles the buffers ships arrive in; spare
	// holds imports frames no log or sender holds any more, for
	// routeImports to encode into; shipRestarts is restarts as of the
	// last ship. See the file header. ensureStarted makes the pool, with
	// the first pump.
	pool         chan []byte
	chunks       *chunkPool
	spare        [][]byte
	shipRestarts int
	// replayLo..replayHi are the seqs the live incarnation replays;
	// its frames for them were delivered by an earlier one.
	replayLo, replayHi int64
	lastBeat           time.Time // last frame of the live incarnation

	// Per-step state. got* flags survive recovery: a replayed worker
	// re-sends exports, records and its boundary, and the duplicates
	// are dropped.
	gotRecords   bool
	gotExports   bool
	gotBoundary  bool
	records      []byte
	exports      []cluster.Handover
	payloads     [2][]byte // the accepted records and exports payloads, freed at the next step
	importsFrame []byte    // this step's routed imports frame, kept for replay
	numUsers     int
	handovers    int
	churned      int
	stats        []byte
	stepStart    time.Time

	stage      *obs.Stage
	restartsC  *obs.Counter
	ckptsC     *obs.Counter
	shipBytesC *obs.Counter
	replayedC  *obs.Counter
}

// stepState is the boundary currently in flight.
type stepState struct {
	ph            phase
	n             int
	seq           int64
	ship          bool   // workers ship their checkpoints at this boundary
	frame         []byte // the step frame, encoded
	importsRouted bool
}

// Supervisor drives a distributed cluster run. It is not safe for
// concurrent use; the session layer calls it from one goroutine.
type Supervisor struct {
	cfg     Config
	handles []*workerHandle
	events  chan workerEvent // made by ensureStarted, with the pumps that send on it
	step    *stepState
	seq     int64
	started bool
	closed  bool
	err     error

	restartsTotal   int
	heartbeatMisses int
	// routed is routeImports' per-destination batches, kept across
	// boundaries (made by ensureStarted); their twins alias the exports
	// events' payloads.
	routed [][]cluster.Handover
	// records decodes the workers' records streams, and lastRecords is
	// the last interval's merged row count, which sizes the next merge.
	records     recordsReader
	lastRecords int

	tx, rx  *frameBytes
	hbMissC *obs.Counter
}

// New validates cfg and builds a supervisor. Workers are spawned
// lazily at the first step (so SetResume can run first).
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Cluster.Faults) > 0 {
		return nil, fmt.Errorf("%w: cell faults are not supported under a coordinator (workers own the cells)", ErrProtocol)
	}
	if cfg.Workers < 1 || cfg.Workers > cfg.Cluster.Sim.NumBS {
		return nil, fmt.Errorf("%w: %d workers for %d cells", ErrProtocol, cfg.Workers, cfg.Cluster.Sim.NumBS)
	}
	if cfg.Heartbeat > time.Hour || cfg.HangDuration > time.Hour {
		return nil, fmt.Errorf("%w: heartbeat %v or hang %v over the hello frame's 1h bound", ErrProtocol, cfg.Heartbeat, cfg.HangDuration)
	}
	for _, f := range cfg.Faults {
		if f.Worker < 0 || f.Worker >= cfg.Workers {
			return nil, fmt.Errorf("%w: fault for worker %d of %d", ErrProtocol, f.Worker, cfg.Workers)
		}
	}
	s := &Supervisor{cfg: cfg}
	reg := cfg.Metrics
	s.tx = newFrameBytes(reg, "dtmsvs_coord_tx_bytes_total", "Frame bytes written to workers, by frame type.")
	s.rx = newFrameBytes(reg, "dtmsvs_coord_rx_bytes_total", "Frame bytes read from workers, by frame type.")
	s.hbMissC = reg.Counter("dtmsvs_heartbeat_miss_total", "Workers declared dead by heartbeat deadline.")
	handles := make([]workerHandle, cfg.Workers)
	s.handles = make([]*workerHandle, cfg.Workers)
	for i := range handles {
		lbl := obs.Label{Name: "worker", Value: strconv.Itoa(i)}
		handles[i] = workerHandle{
			idx:        i,
			stage:      reg.Stage("coord_boundary", lbl),
			restartsC:  reg.Counter("dtmsvs_worker_restarts_total", "Worker restarts after crash, torn frame or missed heartbeat.", lbl),
			ckptsC:     reg.Counter("dtmsvs_coord_worker_checkpoints_total", "Boundaries at which a worker shipped its checkpoint.", lbl),
			replayedC:  reg.Counter("dtmsvs_coord_replayed_boundaries_total", "Completed boundaries replayed into restarted workers.", lbl),
			shipBytesC: reg.Counter("dtmsvs_coord_ship_bytes_total", "Checkpoint bytes of the ships the supervisor acked.", lbl),
			chunks: &chunkPool{allocs: reg.Counter("dtmsvs_coord_ship_chunks_allocated_total",
				"Chunk buffers the supervisor allocated to read ships into, its pool being empty.", lbl)},
		}
		s.handles[i] = &handles[i]
	}
	return s, nil
}

// SetResume seeds each worker with a boundary checkpoint (one per
// worker, as a previous run's CheckpointBlobs returned it: the blob's
// chunks in order, or the whole blob as one). The supervisor keeps the
// slices, only reads them and never recycles them; the caller must not
// change them afterwards. Must be called before the first step.
func (s *Supervisor) SetResume(blobs [][][]byte) error {
	if s.started {
		return fmt.Errorf("%w: resume after start", ErrProtocol)
	}
	if len(blobs) != len(s.handles) {
		return fmt.Errorf("%w: %d resume blobs for %d workers", ErrProtocol, len(blobs), len(s.handles))
	}
	for i, b := range blobs {
		s.handles[i].lastCkpt, s.handles[i].resumeCkpt = b, true
	}
	return nil
}

// Cluster returns the fully defaulted scenario the supervisor runs.
func (s *Supervisor) Cluster() cluster.Config { return s.cfg.Cluster }

// Restarts reports total worker restarts so far.
func (s *Supervisor) Restarts() int { return s.restartsTotal }

// HeartbeatMisses reports how many worker losses were declared by
// heartbeat deadline (as opposed to observed directly).
func (s *Supervisor) HeartbeatMisses() int { return s.heartbeatMisses }

// fail latches a fatal supervisor error.
func (s *Supervisor) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// startSender writes frames to one worker incarnation through an
// ordered queue, so the supervisor's event loop never blocks on a
// synchronous pipe (a restarted worker reads its next frame only
// after reconstructing the engine) and frames cannot reorder. The
// queue holds the most an incarnation can have outstanding — hello, a
// full log's step and imports pairs, the in-flight pair, shutdown —
// so enqueuing never blocks either. Frames arrive encoded and are
// written as they stand. Send failures latch the conn and surface
// through the pump's read error.
func startSender(c *conn) chan []byte {
	ch := make(chan []byte, 2*replayMax+2)
	go func() {
		for frame := range ch {
			_ = c.write(frame)
		}
	}()
	return ch
}

// pump reads frames from one worker incarnation into the event
// channel until the transport dies. The final event carries the read
// error. pool is the worker slot's pool of records and exports payload
// buffers, chunks its pool of ship chunks.
func (s *Supervisor) pump(idx, inc int, t Transport, pool chan []byte, chunks *chunkPool) {
	br := bufio.NewReaderSize(t.Reader(), 1<<16)
	// buf reads every frame but a chunk, each of which is read into a
	// chunk of the pool and joins ship, the checkpoint on its way; the
	// next boundary frame's event takes the list (see the file header).
	var buf []byte
	var ship [][]byte
	shipLen := 0
	for {
		typ, n, err := readFrameHeader(br)
		var payload []byte
		switch {
		case err != nil:
		case typ != fChunk:
			payload, buf, err = readFramePayload(br, typ, n, buf)
		case shipLen+n > maxFramePayload:
			err = fmt.Errorf("ship of over %d bytes: %w", maxFramePayload, ErrFrame)
		default:
			c := chunks.get()
			if payload, c, err = readFramePayload(br, typ, n, c); err != nil {
				chunks.put([][]byte{c})
			}
		}
		if err != nil {
			chunks.put(ship)
			s.events <- workerEvent{idx: idx, inc: inc, err: err}
			return
		}
		s.rx.add(typ, frameOverhead+len(payload))
		if typ == fChunk {
			ship = append(ship, payload)
			shipLen += len(payload)
			continue
		}
		ev := workerEvent{idx: idx, inc: inc, typ: typ}
		switch {
		case pooled(typ):
			var b []byte
			select {
			case b = <-pool:
			default:
			}
			ev.payload = append(b[:0], payload...)
		case len(payload) > 0:
			ev.payload = append([]byte(nil), payload...)
		}
		if typ == fBoundary {
			ev.ship, ship, shipLen = ship, nil, 0
		}
		s.events <- ev
	}
}

// pooled reports whether the payload of a frame of type typ is copied
// into a buffer of the pump's pool, which the supervisor frees once it
// is done with the frame: records and exports, the frames every
// boundary brings, and which the supervisor holds no longer than one
// step.
func pooled(typ frameType) bool { return typ == fRecords || typ == fExports }

// drop hands the payload of an event the supervisor does not keep back
// to the pump's pool, if it came from there, and its ship's chunks to
// the chunk pool.
func (h *workerHandle) drop(ev workerEvent) {
	if pooled(ev.typ) {
		h.release(ev.payload)
	}
	h.chunks.put(ev.ship)
}

// release returns one pooled payload buffer; a full pool drops it.
func (h *workerHandle) release(b []byte) {
	if cap(b) > 0 {
		select {
		case h.pool <- b:
		default:
		}
	}
}

// chunkPool recycles one worker slot's ship chunks, buffers of
// shipChunk bytes: the slot's pumps take them, and the supervisor gives
// back the lists it is done with (see the file header). It allocates
// only when empty, so it holds no more chunks than the most the slot
// ever held at once.
type chunkPool struct {
	mu     sync.Mutex
	free   [][]byte
	allocs *obs.Counter
}

// get returns an empty chunk.
func (p *chunkPool) get() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	p.allocs.Inc()
	return make([]byte, 0, shipChunk)
}

// put takes back every chunk of a list nothing reads any more.
func (p *chunkPool) put(chunks [][]byte) {
	if len(chunks) == 0 {
		return // the nil pool Close leaves is handed only empty lists
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range chunks {
		p.free = append(p.free, c[:0])
	}
}

// adopt makes an acked ship's chunks the worker's lastCkpt. The list it
// supersedes goes back to the pool, unless it is the caller's resume
// blob, or CheckpointBlobs handed it out, which waits in lent.
func (h *workerHandle) adopt(ship [][]byte) {
	switch {
	case h.lastLent:
		h.lent = h.lastCkpt
	case !h.resumeCkpt:
		h.chunks.put(h.lastCkpt)
	}
	h.lastCkpt, h.resumeCkpt, h.lastLent = ship, false, false
}

// helloFrame builds the hello frame for a worker: config + partition
// + its remaining faults, plus its resume checkpoint, encoded in one
// allocation — the chunks' one copy on their way to the worker.
func (s *Supervisor) helloFrame(h *workerHandle) ([]byte, error) {
	var faults []faultinject.ProcFault
	for _, f := range s.cfg.Faults {
		if f.Worker == h.idx && f.Interval >= h.stripBelow {
			faults = append(faults, f)
		}
	}
	hm := helloMsg{
		Proto:       protoVersion,
		Cluster:     s.cfg.Cluster,
		Index:       h.idx,
		Count:       len(s.handles),
		HeartbeatMS: int(s.cfg.Heartbeat / time.Millisecond),
		HangMS:      int(s.cfg.HangDuration / time.Millisecond),
		Faults:      faults,
	}
	jb, err := json.Marshal(hm)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range h.lastCkpt {
		n += len(c)
	}
	var e checkpoint.Enc
	e.Grow(5 + 4 + len(jb) + 4 + n + 4)
	at := beginFrame(&e, fHello)
	e.Blob(jb)
	blob := beginBlob(&e)
	for _, c := range h.lastCkpt {
		e.Write(c)
	}
	endBlob(&e, blob)
	endFrame(&e, at)
	return e.Bytes(), nil
}

// spawn starts a fresh incarnation of h and queues its hello, then —
// the recovery path — every logged boundary and the in-flight step
// (with its imports once routed). A worker lost after shipping the
// in-flight boundary's checkpoint restarts idle at it; one lost after
// acking it without a checkpoint replays it like a logged boundary,
// since its state must reach this boundary before the next step.
func (s *Supervisor) spawn(h *workerHandle) error {
	hello, err := s.helloFrame(h)
	if err != nil {
		return err
	}
	t, err := s.cfg.Transport(h.idx)
	if err != nil {
		return err
	}
	h.inc++
	h.t = t
	h.conn = newConn(t.Writer(), s.tx)
	if h.sendq != nil {
		close(h.sendq)
	}
	h.sendq = startSender(h.conn)
	h.lastBeat = time.Now()
	go s.pump(h.idx, h.inc, t, h.pool, h.chunks)

	h.sendq <- hello
	replay := h.log
	st := s.step
	if st != nil && h.gotBoundary && !st.ship {
		replay = append(replay[:len(replay):len(replay)], logEntry{seq: st.seq, ph: st.ph, n: st.n, step: st.frame, imports: h.importsFrame})
	}
	h.replayLo, h.replayHi = 1, 0
	if len(replay) > 0 {
		h.replayLo, h.replayHi = replay[0].seq, replay[len(replay)-1].seq
	}
	h.replayedC.Add(uint64(len(replay)))
	for _, e := range replay {
		h.sendq <- e.step
		h.sendq <- e.imports
	}
	if st != nil && !h.gotBoundary {
		h.sendq <- st.frame
		if st.importsRouted {
			h.sendq <- h.importsFrame
		}
	}
	return nil
}

func stepFrame(ph phase, n int, seq int64, ship bool) []byte {
	var e checkpoint.Enc
	at := beginFrame(&e, fStep)
	e.U8(uint8(ph))
	e.I64(int64(n))
	e.I64(seq)
	e.Bool(ship)
	endFrame(&e, at)
	return e.Bytes()
}

// importsFrame encodes the imports frame of step seq over dst, a frame
// nothing holds any more (or nil): the frame is the log's to keep for
// replay, so it must not share a buffer with any other. Room for the
// whole frame is reserved before the batch is encoded, so each routed
// twin is copied once and the frame grows at most once — by an eighth
// more than it needs, so that as a spare it holds the somewhat larger
// batches of later boundaries.
func importsFrame(dst []byte, seq int64, hs []cluster.Handover) []byte {
	var e checkpoint.Enc
	e.Reuse(dst)
	if n := frameOverhead + 8 + handoversSize(hs); n > cap(dst) {
		e.Grow(n + n/8)
	}
	at := beginFrame(&e, fImports)
	e.I64(seq)
	appendHandovers(&e, hs)
	endFrame(&e, at)
	return e.Bytes()
}

// ensureStarted spawns every worker on first use.
func (s *Supervisor) ensureStarted() error {
	if s.started {
		return nil
	}
	s.events = make(chan workerEvent, 64+16*s.cfg.Workers)
	s.routed = make([][]cluster.Handover, len(s.handles))
	for _, h := range s.handles {
		h.pool = make(chan []byte, 4)
		if err := s.spawn(h); err != nil {
			return s.fail(fmt.Errorf("spawn worker %d: %w", h.idx, err))
		}
	}
	s.started = true
	return nil
}

// recover handles the loss of worker h for any cause: kill whatever
// is left, and either restart it (replaying the logged and in-flight
// boundaries) or — budget exhausted — fail the run.
func (s *Supervisor) recover(h *workerHandle, cause error) error {
	if h.t != nil {
		h.t.Kill()
	}
	h.inc++ // orphan any event still in flight from the dead incarnation
	h.restarts++
	s.restartsTotal++
	h.restartsC.Inc()
	// Every fault up to the last interval the restart replays has had
	// its chance to fire.
	last := -1
	for _, e := range h.log {
		if e.ph == phaseInterval {
			last = e.n
		}
	}
	if s.step != nil && s.step.ph == phaseInterval {
		last = s.step.n
	}
	h.stripBelow = max(h.stripBelow, last+1)
	budget := s.cfg.MaxRestarts
	if budget < 0 {
		budget = 0
	}
	if h.restarts > budget {
		return s.fail(fmt.Errorf("worker %d lost %d times (budget %d), last cause: %v: %w",
			h.idx, h.restarts, budget, cause, ErrWorkerFailed))
	}
	backoff := s.cfg.Backoff
	for i := 1; i < h.restarts && backoff < time.Second; i++ {
		backoff *= 2
	}
	if backoff > time.Second {
		backoff = time.Second
	}
	time.Sleep(backoff)
	if err := s.spawn(h); err != nil {
		return s.fail(fmt.Errorf("respawn worker %d after %v: %v: %w", h.idx, cause, err, ErrWorkerFailed))
	}
	return nil
}

// runStep drives one boundary across all workers: step out, exports
// in, imports routed, boundaries in — recovering workers as they
// fall. Workers ship their checkpoints at the train boundary (too
// costly to replay), at checkpoint-only boundaries (the blobs are the
// product), and wherever the log would otherwise reach replayMax;
// any other completed boundary is logged.
func (s *Supervisor) runStep(ctx context.Context, ph phase, n int) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return fmt.Errorf("%w: supervisor closed", ErrProtocol)
	}
	if err := s.ensureStarted(); err != nil {
		return err
	}
	s.seq++
	ship := ph == phaseTrain || ph == phaseCkpt
	for _, h := range s.handles {
		ship = ship || len(h.log) >= replayMax-1
	}
	st := &stepState{ph: ph, n: n, seq: s.seq, ship: ship, frame: stepFrame(ph, n, s.seq, ship)}
	s.step = st
	defer func() { s.step = nil }()
	now := time.Now()
	for _, h := range s.handles {
		h.gotExports = false
		h.gotBoundary = false
		h.gotRecords = ph != phaseInterval
		for i, b := range h.payloads {
			h.release(b)
			h.payloads[i] = nil
		}
		h.records = nil
		h.exports = h.exports[:0]
		h.importsFrame = nil
		h.lastBeat = now
		h.stepStart = h.stage.Start()
	}
	for _, h := range s.handles {
		h.sendq <- st.frame
	}
	if err := s.gather(ctx); err != nil {
		return err
	}
	if !ship {
		for _, h := range s.handles {
			h.log = append(h.log, logEntry{seq: st.seq, ph: ph, n: n, step: st.frame, imports: h.importsFrame})
		}
	}
	return nil
}

// gather runs the event loop for the in-flight boundary until every
// worker has delivered it.
func (s *Supervisor) gather(ctx context.Context) error {
	deadline := time.Now().Add(s.cfg.StepTimeout)
	missAfter := s.cfg.Heartbeat * time.Duration(s.cfg.HeartbeatMiss)
	tick := s.cfg.Heartbeat / 2
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	// One timer, re-armed every turn, wakes the loop for the liveness
	// and deadline checks when no frame arrives.
	wake := time.NewTimer(tick)
	defer wake.Stop()
	for {
		if !s.step.importsRouted && s.allExports() {
			if err := s.routeImports(); err != nil {
				return err
			}
		}
		if s.allBoundaries() {
			return s.checkConservation()
		}
		select {
		case ev := <-s.events:
			if err := s.handleEvent(ev); err != nil {
				return err
			}
		case <-wake.C:
		}
		wake.Reset(tick)
		if err := ctx.Err(); err != nil {
			return s.fail(err)
		}
		if time.Now().After(deadline) {
			return s.fail(fmt.Errorf("%s %d: step deadline %v exceeded: %w",
				s.step.ph, s.step.n, s.cfg.StepTimeout, ErrWorkerFailed))
		}
		for _, h := range s.handles {
			if !h.gotBoundary && time.Since(h.lastBeat) > missAfter {
				s.heartbeatMisses++
				s.hbMissC.Inc()
				if err := s.recover(h, fmt.Errorf("missed %d heartbeats", s.cfg.HeartbeatMiss)); err != nil {
					return err
				}
			}
		}
	}
}

func (s *Supervisor) allExports() bool {
	for _, h := range s.handles {
		if !h.gotExports {
			return false
		}
	}
	return true
}

func (s *Supervisor) allBoundaries() bool {
	for _, h := range s.handles {
		if !h.gotBoundary || !h.gotRecords {
			return false
		}
	}
	return true
}

// routeImports fans every worker's exports out to their destination
// workers, then releases everyone with an imports frame — kept, since
// a restart may have to replay it.
func (s *Supervisor) routeImports() error {
	numCells := s.cfg.Cluster.Sim.NumBS
	workers := len(s.handles)
	imports := s.routed
	for i := range imports {
		imports[i] = imports[i][:0]
	}
	for _, h := range s.handles {
		for _, x := range h.exports {
			dst := cluster.WorkerForCell(x.To, numCells, workers)
			if dst == h.idx || dst < 0 || dst >= workers {
				return s.fail(fmt.Errorf("worker %d exported user %d to its own cell %d: %w",
					h.idx, x.ID, x.To, ErrProtocol))
			}
			imports[dst] = append(imports[dst], x)
		}
	}
	s.step.importsRouted = true
	for i, h := range s.handles {
		var dst []byte
		if n := len(h.spare); n > 0 {
			dst, h.spare = h.spare[n-1], h.spare[:n-1]
		}
		h.importsFrame = importsFrame(dst, s.step.seq, imports[i])
		h.sendq <- h.importsFrame
	}
	return nil
}

// handleEvent processes one frame (or loss) from a worker.
func (s *Supervisor) handleEvent(ev workerEvent) error {
	h := s.handles[ev.idx]
	if ev.inc != h.inc {
		h.drop(ev)
		return nil // stale incarnation
	}
	if ev.err != nil {
		return s.recover(h, fmt.Errorf("read: %w", ev.err))
	}
	h.lastBeat = time.Now()
	switch ev.typ {
	case fRecords, fExports, fBoundary:
		// Frames of a boundary this incarnation replays were delivered
		// by an earlier one. Each starts with its seq; a short payload
		// reads as 0, which no boundary has.
		if seq := checkpoint.NewDec(ev.payload).I64(); seq >= h.replayLo && seq <= h.replayHi {
			h.drop(ev)
			return nil
		}
	}
	switch ev.typ {
	case fHeartbeat, fReady:
		return nil
	case fError:
		// Worker-side engine errors are deterministic: a restart would
		// re-fail, so they are terminal.
		d := checkpoint.NewDec(ev.payload)
		msg := d.Blob()
		return s.fail(fmt.Errorf("worker %d: %s", ev.idx, msg))
	case fRecords:
		d := checkpoint.NewDec(ev.payload)
		seq := d.I64()
		blob := d.Blob()
		if err := d.Close(); err != nil || seq != s.step.seq {
			return s.recover(h, fmt.Errorf("records frame (seq %d, want %d): %w", seq, s.step.seq, ErrProtocol))
		}
		if h.gotRecords {
			h.drop(ev)
			return nil
		}
		h.records = blob // aliases the event's pooled payload
		h.payloads[0] = ev.payload
		h.gotRecords = true
		return nil
	case fExports:
		d := checkpoint.NewDec(ev.payload)
		seq := d.I64()
		var hs []cluster.Handover
		if !h.gotExports {
			hs = h.exports[:0]
		}
		hs, err := decodeHandovers(d, hs)
		if err == nil {
			err = d.Close()
		}
		if err != nil || seq != s.step.seq {
			return s.recover(h, fmt.Errorf("exports frame (seq %d, want %d): %w", seq, s.step.seq, ErrProtocol))
		}
		if h.gotExports {
			h.drop(ev)
			return nil
		}
		h.exports = hs // the twins alias the event's pooled payload
		h.payloads[1] = ev.payload
		h.gotExports = true
		return nil
	case fBoundary:
		d := checkpoint.NewDec(ev.payload)
		seq := d.I64()
		numUsers := int(d.I64())
		handovers := int(d.I64())
		churned := int(d.I64())
		ckptLen := d.I64()
		stats := d.Blob()
		if err := d.Close(); err != nil || seq != s.step.seq {
			h.drop(ev)
			return s.recover(h, fmt.Errorf("boundary frame (seq %d, want %d): %w", seq, s.step.seq, ErrProtocol))
		}
		shipped := 0
		for _, c := range ev.ship {
			shipped += len(c)
		}
		if int64(shipped) != ckptLen || (shipped > 0) != s.step.ship {
			h.drop(ev)
			return s.recover(h, fmt.Errorf("boundary frame (seq %d) announced a %d-byte checkpoint, %d bytes arrived, asked: %v: %w",
				seq, ckptLen, shipped, s.step.ship, ErrProtocol))
		}
		h.numUsers = numUsers
		h.handovers = handovers
		h.churned = churned
		if s.step.ship {
			h.adopt(ev.ship)
			h.shipped()
			h.ckptsC.Inc()
			h.shipBytesC.Add(uint64(shipped))
		}
		if len(stats) > 0 {
			h.stats = stats // aliases the event's private payload
		}
		h.gotBoundary = true
		h.stage.ObserveSince(h.stepStart)
		return nil
	default:
		return s.recover(h, fmt.Errorf("frame %d from worker: %w", ev.typ, ErrProtocol))
	}
}

// shipped drops the replay log once the worker has shipped its
// checkpoint. The worker has read every frame the log holds, and this
// step's imports, before acking the ship, so the live sender is done
// with them; if no incarnation died since the last ship, no other
// sender ever held them, and the imports frames become spares for
// routeImports to encode over.
func (h *workerHandle) shipped() {
	if h.restarts == h.shipRestarts {
		for _, e := range h.log {
			h.spare = append(h.spare, e.imports)
		}
		if h.importsFrame != nil {
			h.spare = append(h.spare, h.importsFrame)
		}
	}
	h.shipRestarts = h.restarts
	h.importsFrame = nil
	clear(h.log)
	h.log = h.log[:0]
}

// checkConservation asserts no user was lost or duplicated across the
// partition at this boundary.
func (s *Supervisor) checkConservation() error {
	total := 0
	for _, h := range s.handles {
		total += h.numUsers
	}
	if want := s.cfg.Cluster.Sim.NumUsers; total != want {
		return s.fail(fmt.Errorf("%s %d: %d users across workers, want %d: %w",
			s.step.ph, s.step.n, total, want, ErrProtocol))
	}
	return nil
}

// WarmupStep runs one warmup boundary across all workers.
func (s *Supervisor) WarmupStep(ctx context.Context) error {
	return s.runStep(ctx, phaseWarmup, 0)
}

// TrainAndBuild runs the training boundary.
func (s *Supervisor) TrainAndBuild(ctx context.Context) error {
	return s.runStep(ctx, phaseTrain, 0)
}

// StepInterval runs interval n and returns the merged records, in
// the same order the single-process cluster engine emits them
// (workers own contiguous cell blocks, so index order is cell order):
// each worker's records stream decoded — every frame length and CRC
// checked — and concatenated in worker order.
func (s *Supervisor) StepInterval(ctx context.Context, n int) ([]cluster.Record, error) {
	if err := s.runStep(ctx, phaseInterval, n); err != nil {
		return nil, err
	}
	recs := make([]cluster.Record, 0, s.lastRecords)
	for _, h := range s.handles {
		var err error
		if recs, err = s.records.read(recs, h.records); err != nil {
			return nil, s.fail(fmt.Errorf("decode worker %d records: %w", h.idx, err))
		}
	}
	s.lastRecords = len(recs)
	return recs, nil
}

// CheckpointBlobs runs a checkpoint-only boundary and returns one
// fresh state blob per worker, as the chunks it arrived in: the blob is
// their concatenation, and the resume payload for SetResume. The
// chunks are the supervisor's own, shared read-only: neither side may
// change them. They stay valid across later boundaries until the next
// CheckpointBlobs call, which recycles them once a later ship has
// superseded them; after Close they stay valid for good.
func (s *Supervisor) CheckpointBlobs(ctx context.Context) ([][][]byte, error) {
	for _, h := range s.handles {
		h.chunks.put(h.lent)
		h.lent, h.lastLent = nil, false
	}
	if err := s.runStep(ctx, phaseCkpt, -1); err != nil {
		return nil, err
	}
	blobs := make([][][]byte, len(s.handles))
	for i, h := range s.handles {
		blobs[i] = h.lastCkpt
		h.lastLent = true
	}
	return blobs, nil
}

// Handovers reports total cross-cell handovers so far (each counted
// once, at the source worker).
func (s *Supervisor) Handovers() int {
	total := 0
	for _, h := range s.handles {
		total += h.handovers
	}
	return total
}

// Churned reports total churned users so far.
func (s *Supervisor) Churned() int {
	total := 0
	for _, h := range s.handles {
		total += h.churned
	}
	return total
}

// Stats assembles the end-of-run per-cell stats the workers attached
// to their final boundary, in cell-id order, plus global cache
// hit/miss totals. Only valid after the last interval.
func (s *Supervisor) Stats() ([]cluster.CellStats, int, int, error) {
	var cells []cluster.CellStats
	hits, misses := 0, 0
	for _, h := range s.handles {
		if len(h.stats) == 0 {
			return nil, 0, 0, fmt.Errorf("%w: worker %d sent no final stats", ErrProtocol, h.idx)
		}
		ws, err := decodeWorkerStats(h.stats)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("worker %d stats: %w", h.idx, err)
		}
		cells = append(cells, ws.Cells...)
		hits += ws.Hits
		misses += ws.Misses
	}
	return cells, hits, misses, nil
}

// FinalStats is Stats, fetching missing stats with a checkpoint-only
// boundary first — a supervisor that restored into an
// already-finished run never saw the final interval's boundary, but
// its workers can still report.
func (s *Supervisor) FinalStats(ctx context.Context) ([]cluster.CellStats, int, int, error) {
	for _, h := range s.handles {
		if len(h.stats) == 0 {
			if _, err := s.CheckpointBlobs(ctx); err != nil {
				return nil, 0, 0, err
			}
			break
		}
	}
	return s.Stats()
}

// Close shuts every worker down: a shutdown frame each and a moment
// to exit cleanly, then whatever is left is killed and reaped. It lets
// go of the frames, batches and chunks the supervisor reuses across
// boundaries (the blobs CheckpointBlobs returned stay valid). Safe to
// call more than once.
func (s *Supervisor) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, h := range s.handles {
		if h.sendq != nil {
			h.sendq <- encodeFrame(fShutdown, nil)
			close(h.sendq)
			h.sendq = nil
		}
	}
	if !s.reap(2 * time.Second) {
		for _, h := range s.handles {
			if h.t != nil {
				h.t.Kill()
			}
		}
		s.reap(2 * time.Second)
	}
	for _, h := range s.handles {
		h.log, h.spare, h.pool, h.chunks = nil, nil, nil, nil
		h.lastCkpt, h.lent = nil, nil
		h.records, h.exports, h.payloads, h.importsFrame = nil, nil, [2][]byte{}, nil
	}
	s.routed = nil
	return nil
}

// reap waits up to d for every spawned worker to stop and reports
// whether all did. The event channel keeps draining meanwhile, so pump
// goroutines can deliver their final error and unwind.
func (s *Supervisor) reap(d time.Duration) bool {
	deadline := time.After(d)
	for _, h := range s.handles {
		for stopped := h.t == nil; !stopped; {
			select {
			case <-h.t.Done():
				stopped = true
			case <-s.events:
			case <-deadline:
				return false
			}
		}
	}
	return true
}
