// This file is the worker side of the frame protocol: decode hello,
// construct (or restore) the owned cell block, then serve step frames
// until shutdown — heartbeating the whole time, checkpointing at the
// boundaries the supervisor asks for, and injecting scheduled process
// faults on itself.

package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"syscall"
	"time"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/faultinject"
	"dtmsvs/internal/tracebin"
)

// WorkerKind is the checkpoint-container kind of a worker's boundary
// state blob.
const WorkerKind = "dtworker"

// WorkerFingerprint is the config fingerprint a worker checkpoint is
// stamped with: the defaulted cluster configuration, scheduling fields
// aside (cluster.Config.Unscheduled), plus the worker's slot in the
// partition, so a blob can never restore into the wrong worker.
func WorkerFingerprint(cfg cluster.Config, index, count int) (uint64, error) {
	return checkpoint.Fingerprint(struct {
		Cluster cluster.Config `json:"cluster"`
		Index   int            `json:"index"`
		Count   int            `json:"count"`
	}{cfg.Unscheduled(), index, count})
}

// helloMsg is the supervisor's opening frame, as JSON inside the
// hello payload (config structs already marshal as JSON elsewhere;
// the hot frames stay binary).
type helloMsg struct {
	Proto       int                     `json:"proto"`
	Cluster     cluster.Config          `json:"cluster"`
	Index       int                     `json:"index"`
	Count       int                     `json:"count"`
	HeartbeatMS int                     `json:"heartbeatMs"`
	HangMS      int                     `json:"hangMs"`
	Faults      []faultinject.ProcFault `json:"faults,omitempty"`
}

// maxHelloMS bounds the hello header's heartbeatMs and hangMs: one
// hour is far past any useful setting, and keeps the millisecond count
// far inside time.Duration, so the worker's ticker and hang timer
// always get a positive period.
const maxHelloMS = int(time.Hour / time.Millisecond)

// decodeHello parses a hello frame's payload into its header and the
// resume checkpoint blob (empty for a fresh worker; it aliases
// payload). The payload crossed a pipe, so every malformed or
// out-of-range field is an ErrProtocol error.
func decodeHello(payload []byte) (helloMsg, []byte, error) {
	d := checkpoint.NewDec(payload)
	header := d.Blob()
	resume := d.Blob()
	if err := d.Close(); err != nil {
		return helloMsg{}, nil, fmt.Errorf("hello payload: %w: %w", err, ErrProtocol)
	}
	var hello helloMsg
	if err := json.Unmarshal(header, &hello); err != nil {
		return helloMsg{}, nil, fmt.Errorf("hello header: %v: %w", err, ErrProtocol)
	}
	if hello.HeartbeatMS < 0 || hello.HeartbeatMS > maxHelloMS {
		return helloMsg{}, nil, fmt.Errorf("hello heartbeatMs %d outside [0, %d]: %w", hello.HeartbeatMS, maxHelloMS, ErrProtocol)
	}
	if hello.HangMS < 0 || hello.HangMS > maxHelloMS {
		return helloMsg{}, nil, fmt.Errorf("hello hangMs %d outside [0, %d]: %w", hello.HangMS, maxHelloMS, ErrProtocol)
	}
	return hello, resume, nil
}

// workerStats is the worker's end-of-run contribution to the merged
// trace, attached to the final interval's boundary frame as JSON.
type workerStats struct {
	Cells  []cluster.CellStats `json:"cells"`
	Hits   int                 `json:"hits"`
	Misses int                 `json:"misses"`
}

// decodeWorkerStats parses the stats blob of a worker's final
// boundary. It is untrusted input: malformed JSON and negative cache
// counts (which would skew the merged hit rate) fail with
// ErrProtocol.
func decodeWorkerStats(blob []byte) (workerStats, error) {
	var ws workerStats
	if err := json.Unmarshal(blob, &ws); err != nil {
		return workerStats{}, fmt.Errorf("%v: %w", err, ErrProtocol)
	}
	if ws.Hits < 0 || ws.Misses < 0 {
		return workerStats{}, fmt.Errorf("cache counts %d hits, %d misses: %w", ws.Hits, ws.Misses, ErrProtocol)
	}
	return ws, nil
}

// appendHandovers encodes a twin batch: a count, then per move its id,
// cells and length-prefixed twin.
func appendHandovers(e *checkpoint.Enc, hs []cluster.Handover) {
	e.U32(uint32(len(hs)))
	for _, h := range hs {
		e.Int(h.ID)
		e.Int(h.From)
		e.Int(h.To)
		e.Blob(h.Twin)
	}
}

// handoversSize is the number of bytes appendHandovers appends for hs.
func handoversSize(hs []cluster.Handover) int {
	n := 4
	for _, h := range hs {
		n += 3*8 + 4 + len(h.Twin)
	}
	return n
}

// decodeHandovers decodes a twin batch without copying a twin: each
// Twin is a capacity-capped window of d's payload (nil when empty), so
// the batch lives exactly as long as the payload does — the package
// header says whose buffer that is on either side of the wire. The
// moves are appended to hs, whose room a caller keeps across batches;
// growing it is bounded so a corrupt count cannot balloon.
func decodeHandovers(d *checkpoint.Dec, hs []cluster.Handover) ([]cluster.Handover, error) {
	n := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	hs = slices.Grow(hs, min(int(n), 1<<16))
	for i := uint32(0); i < n; i++ {
		h := cluster.Handover{ID: d.Int(), From: d.Int(), To: d.Int()}
		twin := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(twin) > 0 {
			h.Twin = twin[:len(twin):len(twin)]
		}
		hs = append(hs, h)
	}
	return hs, nil
}

// runWorker serves the worker protocol over r/w until shutdown or
// transport loss. kill abandons the worker abruptly when a ProcKill
// fault fires; nil means SIGKILL the own process — real, unhandleable
// death for a re-exec'ed worker. The in-process transport substitutes
// a pipe teardown.
func runWorker(r io.Reader, w io.Writer, kill func()) error {
	if kill == nil {
		kill = func() {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			os.Exit(137) // unreachable; belt and braces
		}
	}
	br := bufio.NewReaderSize(r, 1<<16)
	c := newConn(w, nil)

	typ, payload, buf, err := ReadFrame(br, nil)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if typ != fHello {
		return fmt.Errorf("first frame %d is not hello: %w", typ, ErrProtocol)
	}
	hello, resume, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if hello.Proto != protoVersion {
		return sendErrf(c, "protocol version %d, worker speaks %d", hello.Proto, protoVersion)
	}

	// Heartbeats flow on their own goroutine through the shared conn
	// from the moment the hello parses — construction and restore can
	// be slow, and the supervisor's liveness deadline must cover them
	// like any other phase.
	hb := hello.HeartbeatMS
	if hb <= 0 {
		hb = 100
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(time.Duration(hb) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if c.send(fHeartbeat, nil) != nil {
					return
				}
			}
		}
	}()

	// A worker that resumes builds no population of its own: its
	// checkpoint's users are built once each, as ReadState decodes them.
	newWorker := cluster.NewWorker
	if len(resume) > 0 {
		newWorker = cluster.NewWorkerUnplaced
	}
	wk, err := newWorker(hello.Cluster, hello.Index, hello.Count)
	if err != nil {
		return sendErrf(c, "construct worker %d/%d: %v", hello.Index, hello.Count, err)
	}
	defer wk.Close()
	fp, err := WorkerFingerprint(hello.Cluster, hello.Index, hello.Count)
	if err != nil {
		return sendErrf(c, "fingerprint: %v", err)
	}
	if len(resume) > 0 {
		cr, rerr := checkpoint.NewReader(bytes.NewReader(resume), WorkerKind, fp)
		if rerr == nil {
			rerr = wk.ReadState(cr)
		}
		if rerr == nil {
			rerr = cr.Finish()
		}
		if rerr != nil {
			return sendErrf(c, "restore worker %d: %v", hello.Index, rerr)
		}
	}

	if err := c.send(fReady, nil); err != nil {
		return err
	}

	ws := &workerSession{
		wk:    wk,
		c:     c,
		br:    br,
		buf:   buf,
		fp:    fp,
		hello: hello,
		kill:  kill,
	}
	for {
		typ, payload, nbuf, err := ReadFrame(ws.br, ws.buf)
		ws.buf = nbuf
		if err != nil {
			if err == io.EOF {
				return nil // supervisor went away cleanly
			}
			return err
		}
		switch typ {
		case fStep:
			if err := ws.handleStep(payload); err != nil {
				return err
			}
		case fShutdown:
			return nil
		default:
			return fmt.Errorf("frame %d outside a step: %w", typ, ErrProtocol)
		}
	}
}

// sendErrf reports a terminal worker-side failure to the supervisor
// and returns it locally too.
func sendErrf(c *conn, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	var e checkpoint.Enc
	e.Blob([]byte(err.Error()))
	_ = c.send(fError, e.Bytes())
	return err
}

// workerSession is the per-connection state of a running worker.
type workerSession struct {
	wk    *cluster.Worker
	c     *conn
	br    *bufio.Reader
	buf   []byte
	fp    uint64
	hello helloMsg
	// out holds each frame the step loop sends, encoded whole, and
	// conn writes it as it stands: an interval's records stream is
	// written into it, and ckptw encodes a shipped checkpoint into it
	// section by section, ahead of the boundary frame, for
	// conn.writeShip to send as chunk frames; neither is built apart and
	// copied in. It is the worker's one frame buffer, kept across
	// boundaries and so sized once.
	out   checkpoint.Enc
	ckptw checkpoint.Writer
	// exports, imports and moves are a boundary's twin batches — the
	// plan's moves leaving the worker, the batch routed into it (whose
	// twins alias buf), and the two together for ApplyHandovers — kept
	// across boundaries so a batch allocates nothing.
	exports, imports, moves []cluster.Handover
	kill                    func()
}

// handleStep runs one boundary: fault injection, the phase's engine
// work, the export/import twin exchange, then a fresh checkpoint if the
// step asked for one and the boundary frame (with final stats on the
// last interval).
func (ws *workerSession) handleStep(payload []byte) error {
	d := checkpoint.NewDec(payload)
	ph := phase(d.U8())
	n := int(d.I64())
	seq := d.I64()
	ship := d.Bool()
	if err := d.Close(); err != nil {
		return fmt.Errorf("step payload: %w", err)
	}

	if ph == phaseInterval {
		ws.injectFaults(n)
	}

	ctx := context.Background()
	var err error
	switch ph {
	case phaseWarmup:
		err = ws.wk.WarmupStep(ctx)
	case phaseTrain:
		err = ws.wk.TrainAndBuild(ctx)
	case phaseInterval:
		var recs []cluster.Record
		if recs, err = ws.wk.StepInterval(ctx, n); err == nil {
			err = ws.sendRecords(seq, recs)
		}
	case phaseCkpt:
		// Checkpoint-only boundary: no engine work.
	default:
		return fmt.Errorf("step phase %d: %w", ph, ErrProtocol)
	}
	if err != nil {
		return sendErrf(ws.c, "worker %d %s %d: %v", ws.hello.Index, ph, n, err)
	}

	migrating := ph == phaseWarmup || ph == phaseInterval
	var plan []cluster.Handover
	if migrating {
		if plan, err = ws.wk.PlanHandovers(); err != nil {
			return sendErrf(ws.c, "worker %d plan: %v", ws.hello.Index, err)
		}
	}
	exports := ws.exports[:0]
	for _, h := range plan {
		if h.Twin != nil {
			exports = append(exports, h)
		}
	}
	ws.exports = exports
	out := &ws.out
	out.Reset()
	at := beginFrame(out, fExports)
	out.I64(seq)
	appendHandovers(out, exports)
	endFrame(out, at)
	if err := ws.c.write(out.Bytes()); err != nil {
		return err
	}

	// The imports alias ws.buf: they are applied before the next frame
	// is read into it.
	imports, err := ws.awaitImports(seq)
	if err != nil {
		return err
	}
	if migrating {
		ws.moves = append(append(ws.moves[:0], plan...), imports...)
		if err := ws.wk.ApplyHandovers(ws.moves); err != nil {
			return sendErrf(ws.c, "worker %d apply: %v", ws.hello.Index, err)
		}
	} else if len(imports) > 0 {
		return fmt.Errorf("%d imports at a %s boundary: %w", len(imports), ph, ErrProtocol)
	}

	// The checkpoint, if asked, is encoded in place, and the boundary
	// frame after it: counters, the checkpoint's length and the stats.
	out.Reset()
	if ship {
		cw := &ws.ckptw
		cw.Reset(out, WorkerKind, ws.fp)
		err = ws.wk.WriteState(cw)
		if ferr := cw.Finish(); err == nil {
			err = ferr
		}
		if err != nil {
			return sendErrf(ws.c, "worker %d checkpoint: %v", ws.hello.Index, err)
		}
	}
	ckptLen := len(out.Bytes())
	at = beginFrame(out, fBoundary)
	out.I64(seq)
	out.I64(int64(ws.wk.NumUsers()))
	out.I64(int64(ws.wk.Handovers()))
	out.I64(int64(ws.wk.Churned()))
	out.I64(int64(ckptLen))
	// Stats ride the final interval's boundary — and every
	// checkpoint-only boundary, so a supervisor restoring into an
	// already-finished run can still assemble the trace summary.
	var stats []byte
	if ph == phaseCkpt || (ph == phaseInterval && n == ws.wk.Config().Sim.NumIntervals-1) {
		cells, hits, misses := ws.wk.FinishStats()
		if stats, err = json.Marshal(workerStats{Cells: cells, Hits: hits, Misses: misses}); err != nil {
			return sendErrf(ws.c, "worker %d stats: %v", ws.hello.Index, err)
		}
	}
	out.Blob(stats)
	endFrame(out, at)
	b := out.Bytes()
	return ws.c.writeShip(b[:ckptLen], b[ckptLen:])
}

// injectFaults fires any scheduled process fault for interval n.
// Faults arrive pre-filtered: the supervisor strips ones a previous
// incarnation already fired.
func (ws *workerSession) injectFaults(n int) {
	for _, f := range ws.hello.Faults {
		if f.Worker != ws.hello.Index || f.Interval != n {
			continue
		}
		switch f.Kind {
		case faultinject.ProcKill:
			ws.kill()
		case faultinject.ProcHang:
			hang := time.Duration(ws.hello.HangMS) * time.Millisecond
			if hang <= 0 {
				hang = 30 * time.Second
			}
			ws.c.hold(hang)
		case faultinject.ProcGarbage:
			_ = ws.c.sendGarbage()
		}
	}
}

// sendRecords ships one interval's records in the records frame, as a
// whole columnar trace stream, which the supervisor decodes.
func (ws *workerSession) sendRecords(seq int64, recs []cluster.Record) error {
	out := &ws.out
	out.Reset()
	at := beginFrame(out, fRecords)
	out.I64(seq)
	blob := beginBlob(out)
	if err := appendRecords(out, recs); err != nil {
		return err
	}
	endBlob(out, blob)
	endFrame(out, at)
	return ws.c.write(out.Bytes())
}

// appendRecords writes recs to e as one columnar trace stream, which
// recordsReader decodes.
func appendRecords(e *checkpoint.Enc, recs []cluster.Record) error {
	bw, err := tracebin.NewWriter(e, tracebin.WriterOptions{})
	if err != nil {
		return err
	}
	if err := bw.Flush(recs); err != nil {
		return err
	}
	return bw.Close()
}

// recordsReader decodes records streams, keeping its reader state —
// the byte source and the tracebin reader's buffers — from one stream
// to the next, so a boundary's decode allocates only the rows it
// appends.
type recordsReader struct {
	src bytes.Reader
	tr  tracebin.Reader
}

// read decodes one records stream — every frame length and CRC
// checked — appending its rows straight to recs.
func (rr *recordsReader) read(recs []cluster.Record, stream []byte) ([]cluster.Record, error) {
	rr.src.Reset(stream)
	if err := rr.tr.Reset(&rr.src); err != nil {
		return recs, err
	}
	return rr.tr.AppendAll(recs)
}

// awaitImports blocks on the routed twin batch for seq, decoded into
// ws.imports: each twin a window of ws.buf, valid until the next frame
// is read. Shutdown while waiting ends the worker cleanly (the
// supervisor abandoned the step).
func (ws *workerSession) awaitImports(seq int64) ([]cluster.Handover, error) {
	for {
		typ, payload, nbuf, err := ReadFrame(ws.br, ws.buf)
		ws.buf = nbuf
		if err != nil {
			return nil, err
		}
		switch typ {
		case fImports:
			d := checkpoint.NewDec(payload)
			gotSeq := d.I64()
			hs, herr := decodeHandovers(d, ws.imports[:0])
			if herr == nil {
				herr = d.Close()
			}
			if herr != nil {
				return nil, fmt.Errorf("imports payload: %w", herr)
			}
			if gotSeq != seq {
				return nil, fmt.Errorf("imports for step %d during step %d: %w", gotSeq, seq, ErrProtocol)
			}
			ws.imports = hs
			return hs, nil
		case fShutdown:
			return nil, io.ErrClosedPipe
		default:
			return nil, fmt.Errorf("frame %d while awaiting imports: %w", typ, ErrProtocol)
		}
	}
}
