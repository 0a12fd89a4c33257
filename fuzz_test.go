package dtmsvs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/sim"
	"dtmsvs/internal/tracebin"
	"dtmsvs/internal/video"
)

// fuzzCheckpointConfig is the scenario every FuzzReadCheckpoint input
// is resumed against. Tiny on purpose: the fuzzer calls Resume
// thousands of times per second and only the reader is under test.
func fuzzCheckpointConfig() Config {
	return Config{
		Seed:             41,
		NumUsers:         8,
		NumBS:            2,
		NumIntervals:     2,
		TicksPerInterval: 4,
		WarmupIntervals:  1,
		CompressorEpochs: 1,
		AgentEpisodes:    4,
		PrefetchDepth:    -1,
	}
}

// fuzzResumeConfig is the scenario the checkpoint fuzzers resume: the
// fuzz scenario run to four intervals, so a checkpoint taken after the
// training boundary holds groups and still has an interval to step.
func fuzzResumeConfig() Config {
	cfg := fuzzCheckpointConfig()
	cfg.NumIntervals = 4
	return cfg
}

// fuzzSeedCheckpoint produces a real checkpoint of the resume scenario
// after the given number of steps, so the corpus starts from a valid
// stream and the fuzzer mutates real section framing, payloads and
// CRCs instead of rediscovering the container format from zero.
func fuzzSeedCheckpoint(tb testing.TB, steps int) []byte {
	tb.Helper()
	s, err := Open(fuzzResumeConfig())
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < steps; i++ {
		if _, serr := s.Step(context.Background()); serr != nil {
			tb.Fatal(serr)
		}
	}
	var ckpt bytes.Buffer
	if cerr := s.Checkpoint(&ckpt); cerr != nil {
		tb.Fatal(cerr)
	}
	return ckpt.Bytes()
}

// fuzzSeedTrace produces a real binary trace of the fuzz scenario —
// one plain, one compressed — so the corpus starts from valid block
// framing and the fuzzer mutates real frames, bodies and CRCs.
func fuzzSeedTrace(tb testing.TB, opts ...BinarySinkOption) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sink, err := NewBinarySink(&buf, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Open(fuzzCheckpointConfig(), WithSink(sink))
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			tb.Fatal(serr)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTraceBin hammers the binary trace reader with mutated
// streams: decoding must never panic, every rejection must be one of
// the two typed trace errors, and any records returned alongside an
// error must have decoded before the damage (the readable-prefix
// contract).
func FuzzReadTraceBin(f *testing.F) {
	plain := fuzzSeedTrace(f)
	comp := fuzzSeedTrace(f, WithBinaryCompression())
	f.Add(plain)
	f.Add(comp)
	f.Add(plain[:len(plain)/2])
	f.Add(plain[:11]) // header magic+version+flags only
	f.Add([]byte{})
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := tracebin.ReadAll(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrTraceCorrupt) && !errors.Is(err, ErrTraceVersion) {
				t.Fatalf("untyped trace rejection: %v", err)
			}
		}
	})
}

// fuzzSeedTextTraces produces the fuzz scenario's trace in the three
// text formats: NDJSON and CSV from the sinks, and the indented JSON
// array dtsim -format json writes.
func fuzzSeedTextTraces(tb testing.TB) (ndjson, csv, array []byte) {
	tb.Helper()
	var nd, cs bytes.Buffer
	var retained []TraceRecord
	// The nil sink is dtsim -format json's run: the session retains the
	// rows.
	for _, sink := range []TraceSink{NewNDJSONSink(&nd), NewCSVSink(&cs), nil} {
		var opts []SessionOption
		if sink != nil {
			opts = append(opts, WithSink(sink))
		}
		s, err := Open(fuzzCheckpointConfig(), opts...)
		if err != nil {
			tb.Fatal(err)
		}
		for !s.Done() {
			if _, serr := s.Step(context.Background()); serr != nil {
				tb.Fatal(serr)
			}
		}
		if sink == nil {
			retained = s.Trace().Records
		}
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	var js bytes.Buffer
	enc := json.NewEncoder(&js)
	enc.SetIndent("", "  ")
	if err := enc.Encode(retained); err != nil {
		tb.Fatal(err)
	}
	return nd.Bytes(), cs.Bytes(), js.Bytes()
}

// FuzzReadTraceRecords hammers the auto-detecting reader — and so the
// JSON array, NDJSON and CSV decoders behind it, as well as the binary
// one — with mutated streams seeded from a real trace in each of the
// four formats and their truncations. Decoding must never panic.
func FuzzReadTraceRecords(f *testing.F) {
	nd, cs, js := fuzzSeedTextTraces(f)
	for _, seed := range [][]byte{nd, cs, js, fuzzSeedTrace(f)} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte{})
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any error is an acceptable answer to damaged bytes; a panic is not.
		_, _ = ReadTraceRecords(bytes.NewReader(data))
	})
}

// FuzzReadCheckpoint hammers the checkpoint container reader with
// mutated streams: Resume must never panic, every rejection must be
// one of the three typed checkpoint errors — the contract the
// damage-matrix test asserts at sampled offsets, here over arbitrary
// corruption — and a session it accepts must step. The corpus includes
// checkpoints whose groups name users outside the population, repeat
// a member or stand at the wrong position.
func FuzzReadCheckpoint(f *testing.F) {
	seed := fuzzSeedCheckpoint(f, 1)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	grouped := fuzzSeedCheckpoint(f, 3)
	f.Add(grouped)
	for _, bad := range corruptGroupsCheckpoints(f, grouped) {
		f.Add(bad.data)
	}
	cfg := fuzzResumeConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Resume(cfg, bytes.NewReader(data))
		if err == nil {
			stepAndClose(t, s)
			return
		}
		if !errors.Is(err, ErrCheckpointCorrupt) &&
			!errors.Is(err, ErrCheckpointVersion) &&
			!errors.Is(err, ErrCheckpointConfig) {
			t.Fatalf("untyped checkpoint rejection: %v", err)
		}
	})
}

// stepAndClose steps a resumed session once, unless it is done — a
// state the decoders accepted must not panic the engine — and closes
// it. A step may fail; a resumed session must still close cleanly.
func stepAndClose(t *testing.T, s Session) {
	t.Helper()
	if !s.Done() {
		s.Step(context.Background())
	}
	if cerr := s.Close(); cerr != nil {
		t.Fatalf("resumed session failed to close: %v", cerr)
	}
}

// corruptCheckpoint is one rewrite of corruptGroupsCheckpoints or
// damagedUsersCheckpoints.
type corruptCheckpoint struct {
	name string
	data []byte
}

// corruptGroupsCheckpoints rewrites the first "groups" section of a
// checkpoint of the resume scenario, every CRC intact: group 0 given
// the id 7 or −1, or its members replaced by the id 999, by −5, or by
// the cell's first user listed twice. Each must be refused as corrupt:
// before they were, Resume accepted all five and the next Step
// panicked on the first four. Group 0's profile given one float more
// than a swipe CDF or a preference holds must be refused too: the
// decoder reads the profile's floats into one fixed array. So must the
// first cell's builder draw count set to 2⁴⁰, which an unbounded skip
// would replay for hours.
func corruptGroupsCheckpoints(tb testing.TB, pristine []byte) []corruptCheckpoint {
	tb.Helper()
	const (
		groupID = 4               // after the group count
		count   = groupID + 8 + 8 // after the id and the stream word
	)
	le := binary.LittleEndian
	user0 := int64(-1)
	rewriteSections(pristine, func(name string, payload []byte) []byte {
		if name == "users" && user0 < 0 && le.Uint32(payload) > 0 {
			user0 = int64(le.Uint64(payload[4:]))
		}
		return payload
	})
	rewrite := func(edit func(groups []byte) []byte) []byte {
		first := true
		return rewriteSections(pristine, func(name string, payload []byte) []byte {
			if name != "groups" || !first {
				return payload
			}
			first = false
			if user0 < 0 || le.Uint32(payload) == 0 {
				tb.Fatal("the checkpoint's first cell has no user or no group")
			}
			return edit(bytes.Clone(payload))
		})
	}
	id := func(v int64) []byte {
		return rewrite(func(g []byte) []byte {
			le.PutUint64(g[groupID:], uint64(v))
			return g
		})
	}
	members := func(ids ...int64) []byte {
		return rewrite(func(g []byte) []byte {
			rest := g[count+4+8*int(le.Uint32(g[count:])):]
			out := le.AppendUint32(g[:count:count], uint32(len(ids)))
			for _, m := range ids {
				out = le.AppendUint64(out, uint64(m))
			}
			return append(out, rest...)
		})
	}
	// longRun lengthens group 0's profile float run at position run
	// (0–4 a category's swipe CDF, 5 the preference) by one float.
	longRun := func(run int) []byte {
		return rewrite(func(g []byte) []byte {
			off := count + 4 + 8*int(le.Uint32(g[count:])) // past the members
			nCentroids := int(le.Uint32(g[off:]))
			off += 4
			for range nCentroids {
				off += 4 + 8*int(le.Uint32(g[off:]))
			}
			if g[off] != 1 {
				tb.Fatal("the checkpoint's first group has no profile")
			}
			off += 1 + 4 // the profile flag, the category count
			for range run {
				off += 4 + 8*int(le.Uint32(g[off:])) + 8 // a CDF, its sample count
			}
			n := le.Uint32(g[off:])
			le.PutUint32(g[off:], n+1)
			at := off + 4 + 8*int(n)
			return append(g[:at:at], append(le.AppendUint64(nil, math.Float64bits(1)), g[at:]...)...)
		})
	}
	return []corruptCheckpoint{
		{"group id 7", id(7)},
		{"group id -1", id(-1)},
		{"member 999", members(999)},
		{"member -5", members(-5)},
		{"member twice", members(user0, user0)},
		{"swipe CDF one float long", longRun(0)},
		{"preference one float long", longRun(video.NumCategories)},
		{"builder draws 2^40", builderSkipCheckpoint(pristine, 1<<40)},
	}
}

// fuzzSeedClusterCheckpoint produces a real cluster checkpoint of the
// resume scenario over its two cells, after the warm-up and training
// boundaries, so cells hold trained weights, groups and handed-over
// twins.
func fuzzSeedClusterCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	s, err := OpenCluster(ClusterConfig{Sim: fuzzResumeConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, serr := s.Step(context.Background()); serr != nil {
			tb.Fatal(serr)
		}
	}
	var ckpt bytes.Buffer
	if cerr := s.Checkpoint(&ckpt); cerr != nil {
		tb.Fatal(cerr)
	}
	return ckpt.Bytes()
}

// rewriteSections re-frames a well-formed checkpoint stream, passing
// each section's name and payload through edit and writing back what
// it returns under a fresh CRC.
func rewriteSections(data []byte, edit func(name string, payload []byte) []byte) []byte {
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(data[off:])) }
	off := len("DTCKPT0\n") + 2 // magic, format version
	off += 4 + u32(off) + 8     // engine kind, fingerprint
	out := append([]byte(nil), data[:off]...)
	for off < len(data) {
		name := data[off+4 : off+4+u32(off)]
		off += 4 + len(name)
		payload := edit(string(name), data[off+4:off+4+u32(off)])
		off += 4 + u32(off) + 4
		out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	return out
}

// scratchCell is an empty cell of the resume scenario, which decodes
// and encodes any of its twins.
func scratchCell(tb testing.TB) *sim.Simulation {
	tb.Helper()
	cfg := fuzzResumeConfig().Defaulted()
	sub, err := sim.NewSubstrate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	server, err := sub.NewServer(cfg.CacheBytes)
	if err != nil {
		tb.Fatal(err)
	}
	scratch, err := sim.NewCell(cfg, sim.CellOptions{Substrate: sub, Server: server, BS: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return scratch
}

// damagedUsersCheckpoints rewrites the first "users" section of a
// checkpoint of the resume scenario, every CRC intact: its twins listed
// as they are (the control, which must resume), one twin listed twice
// in place of the next, the first two out of order, and a count that
// claims one twin more than the section holds and the owner map gives
// the cell, or 2³² − 1 of them. Each damaged one must be refused as
// corrupt before any twin it lists is built; the count must not size
// an allocation.
func damagedUsersCheckpoints(tb testing.TB, pristine []byte) (control []byte, bad []corruptCheckpoint) {
	tb.Helper()
	scratch := scratchCell(tb)
	first := func(edit func(payload []byte) []byte) []byte {
		done := false
		return rewriteSections(pristine, func(name string, payload []byte) []byte {
			if name != "users" || done {
				return payload
			}
			done = true
			return edit(payload)
		})
	}
	first(func(payload []byte) []byte {
		d := checkpoint.NewDec(payload)
		for n := d.U32(); n > 0; n-- {
			mu, err := scratch.DecodeUser(d)
			if err != nil {
				tb.Fatal(err)
			}
			if err := scratch.AttachUser(mu); err != nil {
				tb.Fatal(err)
			}
		}
		return payload
	})
	ids := scratch.UserIDs()
	if len(ids) < 2 {
		tb.Fatalf("the checkpoint's first cell holds %d twins, want at least 2", len(ids))
	}
	users := func(count uint32, order ...int) []byte {
		return first(func([]byte) []byte {
			var e checkpoint.Enc
			e.U32(count)
			for _, id := range order {
				if err := scratch.EncodeUser(&e, id); err != nil {
					tb.Fatal(err)
				}
			}
			return e.Bytes()
		})
	}
	n := uint32(len(ids))
	twice := append([]int{ids[0], ids[0]}, ids[2:]...)
	swapped := append([]int{ids[1], ids[0]}, ids[2:]...)
	return users(n, ids...), []corruptCheckpoint{
		{"twin listed twice", users(n, twice...)},
		{"twins out of order", users(n, swapped...)},
		{"one twin more than the owner map gives", users(n+1, ids...)},
		{"2^32-1 twins", users(math.MaxUint32, ids...)},
	}
}

// builderSkipCheckpoint rewrites the first "engine" section of a
// checkpoint, every CRC intact, to put the cell's builder source at
// draw count.
func builderSkipCheckpoint(pristine []byte, count uint64) []byte {
	done := false
	return rewriteSections(pristine, func(name string, payload []byte) []byte {
		if name != "engine" || done {
			return payload
		}
		done = true
		out := bytes.Clone(payload)
		binary.LittleEndian.PutUint64(out, count) // the count leads the section
		return out
	})
}

// duplicateTwinCheckpoint rewrites a cluster checkpoint of the resume
// scenario so that cell 1 also lists the first twin of cell 0: one
// twin in two cells, every CRC intact. ResumeCluster must refuse it.
func duplicateTwinCheckpoint(tb testing.TB, pristine []byte) []byte {
	tb.Helper()
	scratch := scratchCell(tb)
	// decode attaches the first n twins of a "users" payload to scratch.
	decode := func(payload []byte, n uint32) {
		d := checkpoint.NewDec(payload)
		n = min(n, d.U32())
		for i := uint32(0); i < n; i++ {
			mu, err := scratch.DecodeUser(d)
			if err != nil {
				tb.Fatal(err)
			}
			if err := scratch.AttachUser(mu); err != nil {
				tb.Fatal(err)
			}
		}
	}
	cell := 0
	return rewriteSections(pristine, func(name string, payload []byte) []byte {
		if name != "users" {
			return payload
		}
		if cell++; cell == 1 {
			decode(payload, 1)
			if scratch.NumUsers() != 1 {
				tb.Fatal("cell 0 holds no twin to duplicate")
			}
			return payload
		}
		decode(payload, math.MaxUint32)
		var e checkpoint.Enc
		e.U32(uint32(scratch.NumUsers()))
		for _, id := range scratch.UserIDs() {
			if err := scratch.EncodeUser(&e, id); err != nil {
				tb.Fatal(err)
			}
		}
		return e.Bytes()
	})
}

// FuzzReadClusterCheckpoint is FuzzReadCheckpoint for ResumeCluster
// over two cells: it must never panic, every rejection must be typed,
// and a resume that succeeds must hold every twin exactly once and
// step. The corpus includes a checkpoint listing one twin in two cells,
// the corrupt groups of FuzzReadCheckpoint in cell 0, and cell 0's
// twins listed twice, out of order or over-counted.
func FuzzReadClusterCheckpoint(f *testing.F) {
	seed := fuzzSeedClusterCheckpoint(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add(duplicateTwinCheckpoint(f, seed))
	for _, bad := range corruptGroupsCheckpoints(f, seed) {
		f.Add(bad.data)
	}
	_, damaged := damagedUsersCheckpoints(f, seed)
	for _, bad := range damaged {
		f.Add(bad.data)
	}
	cfg := ClusterConfig{Sim: fuzzResumeConfig()}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ResumeCluster(cfg, bytes.NewReader(data))
		if err == nil {
			if n := s.st.eng.NumUsers(); n != cfg.Sim.NumUsers {
				s.Close()
				t.Fatalf("resumed %d twins for %d users", n, cfg.Sim.NumUsers)
			}
			stepAndClose(t, s)
			return
		}
		if !errors.Is(err, ErrCheckpointCorrupt) &&
			!errors.Is(err, ErrCheckpointVersion) &&
			!errors.Is(err, ErrCheckpointConfig) {
			t.Fatalf("untyped checkpoint rejection: %v", err)
		}
	})
}

// TestResumeRejectsDamagedUsers: a checkpoint whose first cell lists a
// twin twice, its twins out of order, or more twins than the owner map
// gives the cell fails Resume and ResumeCluster as corrupt, while the
// same section rewritten as it was resumes. At the open boundary there
// are no groups, whose members would otherwise also give a misplaced
// twin away.
func TestResumeRejectsDamagedUsers(t *testing.T) {
	cfg := fuzzResumeConfig()
	mono := func(b []byte) (Session, error) { return Resume(cfg, bytes.NewReader(b)) }
	for _, tc := range []struct {
		name     string
		pristine []byte
		resume   func([]byte) (Session, error)
	}{
		{"mono/open", fuzzSeedCheckpoint(t, 0), mono},
		{"mono", fuzzSeedCheckpoint(t, 3), mono},
		{"cluster", fuzzSeedClusterCheckpoint(t), func(b []byte) (Session, error) {
			return ResumeCluster(ClusterConfig{Sim: cfg}, bytes.NewReader(b))
		}},
	} {
		control, damaged := damagedUsersCheckpoints(t, tc.pristine)
		t.Run(tc.name+"/control", func(t *testing.T) {
			s, err := tc.resume(control)
			if err != nil {
				t.Fatalf("the undamaged rewrite does not resume: %v", err)
			}
			stepAndClose(t, s)
		})
		for _, bad := range damaged {
			t.Run(tc.name+"/"+bad.name, func(t *testing.T) {
				s, err := tc.resume(bad.data)
				if err == nil {
					s.Close()
					t.Fatal("damaged users resumed")
				}
				if !errors.Is(err, ErrCheckpointCorrupt) {
					t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
				}
			})
		}
	}
}

// TestResumeRejectsCorruptGroups: a checkpoint whose groups stand at
// the wrong position, name a user outside the population or list one
// twice fails Resume and ResumeCluster as corrupt, rather than
// resuming into a session whose next Step panics; one whose builder
// count is 2⁴⁰ fails at once, rather than stalling the resume.
func TestResumeRejectsCorruptGroups(t *testing.T) {
	cfg := fuzzResumeConfig()
	for _, tc := range []struct {
		name     string
		pristine []byte
		resume   func([]byte) (Session, error)
	}{
		{"mono", fuzzSeedCheckpoint(t, 3), func(b []byte) (Session, error) { return Resume(cfg, bytes.NewReader(b)) }},
		{"cluster", fuzzSeedClusterCheckpoint(t), func(b []byte) (Session, error) {
			return ResumeCluster(ClusterConfig{Sim: cfg}, bytes.NewReader(b))
		}},
	} {
		for _, bad := range corruptGroupsCheckpoints(t, tc.pristine) {
			t.Run(tc.name+"/"+bad.name, func(t *testing.T) {
				s, err := tc.resume(bad.data)
				if err == nil {
					s.Step(context.Background())
					s.Close()
					t.Fatal("corrupt groups resumed")
				}
				if !errors.Is(err, ErrCheckpointCorrupt) {
					t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
				}
			})
		}
	}
}
