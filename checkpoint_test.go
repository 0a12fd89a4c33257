package dtmsvs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"dtmsvs/internal/faultinject"
)

// checkpointCase wires one engine shape — monolithic, or cluster at a
// shard width — into the generic kill-and-resume harness.
type checkpointCase struct {
	name   string
	open   func(opts ...SessionOption) (Session, error)
	resume func(r io.Reader, opts ...SessionOption) (Session, error)
}

func checkpointCases(seed int64, workers int) []checkpointCase {
	simCfg := sessionTestConfig(seed, workers)
	oneShard := ClusterConfig{Sim: simCfg, Shards: 1}
	allShards := ClusterConfig{Sim: simCfg}
	return []checkpointCase{
		{
			name:   "sim",
			open:   func(opts ...SessionOption) (Session, error) { return Open(simCfg, opts...) },
			resume: func(r io.Reader, opts ...SessionOption) (Session, error) { return Resume(simCfg, r, opts...) },
		},
		{
			name: "cluster/shards=1",
			open: func(opts ...SessionOption) (Session, error) { return OpenCluster(oneShard, opts...) },
			resume: func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeCluster(oneShard, r, opts...)
			},
		},
		{
			name: "cluster/shards=all",
			open: func(opts ...SessionOption) (Session, error) { return OpenCluster(allShards, opts...) },
			resume: func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeCluster(allShards, r, opts...)
			},
		},
	}
}

// referenceRun executes the scenario uninterrupted and returns the
// NDJSON stream, per-interval line counts, and the checkpoint taken
// at the final boundary.
func referenceRun(t *testing.T, open func(opts ...SessionOption) (Session, error)) (string, []int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	var perInterval []int
	s, err := open(
		WithSink(NewNDJSONSink(&buf)),
		WithObserver(func(rep IntervalReport) { perInterval = append(perInterval, len(rep.Records)) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
	}
	var ckpt bytes.Buffer
	if cerr := s.Checkpoint(&ckpt); cerr != nil {
		t.Fatalf("final checkpoint: %v", cerr)
	}
	if cerr := s.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return buf.String(), perInterval, ckpt.Bytes()
}

// TestSessionCheckpointResumeAtEveryBoundary is the determinism
// contract of the tentpole: for both engines, at Parallelism 1/4/8
// and shard widths 1/NumBS, a run checkpointed after k intervals and
// resumed into a fresh process produces (a) a trace suffix that makes
// prefix+suffix bit-identical to the uninterrupted run and (b) a
// final-boundary checkpoint bit-identical to the uninterrupted run's.
func TestSessionCheckpointResumeAtEveryBoundary(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		for _, tc := range checkpointCases(11, workers) {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				full, perInterval, finalCkpt := referenceRun(t, tc.open)
				intervals := len(perInterval)
				if intervals == 0 {
					t.Fatal("no intervals ran")
				}
				for k := 0; k <= intervals; k++ {
					var pre bytes.Buffer
					s, err := tc.open(WithSink(NewNDJSONSink(&pre)))
					if err != nil {
						t.Fatal(err)
					}
					for step := 0; step < k; step++ {
						if _, serr := s.Step(context.Background()); serr != nil {
							t.Fatalf("boundary %d step %d: %v", k, step, serr)
						}
					}
					var ckpt bytes.Buffer
					if cerr := s.Checkpoint(&ckpt); cerr != nil {
						t.Fatalf("checkpoint at boundary %d: %v", k, cerr)
					}
					if cerr := s.Close(); cerr != nil {
						t.Fatal(cerr)
					}
					var lines int
					for _, n := range perInterval[:k] {
						lines += n
					}
					if pre.String() != linePrefix(full, lines) {
						t.Fatalf("boundary %d: flushed prefix diverged", k)
					}
					var post bytes.Buffer
					rs, err := tc.resume(bytes.NewReader(ckpt.Bytes()), WithSink(NewNDJSONSink(&post)))
					if err != nil {
						t.Fatalf("resume at boundary %d: %v", k, err)
					}
					if got := rs.Interval(); got != k {
						t.Fatalf("resumed at interval %d, want %d", got, k)
					}
					for !rs.Done() {
						if _, serr := rs.Step(context.Background()); serr != nil {
							t.Fatalf("resumed step at boundary %d: %v", k, serr)
						}
					}
					var reCkpt bytes.Buffer
					if cerr := rs.Checkpoint(&reCkpt); cerr != nil {
						t.Fatalf("final checkpoint of resumed run at boundary %d: %v", k, cerr)
					}
					if cerr := rs.Close(); cerr != nil {
						t.Fatal(cerr)
					}
					if pre.String()+post.String() != full {
						t.Fatalf("boundary %d: resumed suffix diverged from uninterrupted run", k)
					}
					if !bytes.Equal(reCkpt.Bytes(), finalCkpt) {
						t.Fatalf("boundary %d: final checkpoint of resumed run diverged", k)
					}
				}
			})
		}
	}
}

// TestSessionCheckpointMidPrologue: checkpoints taken between warm-up
// intervals — before training has run — restore exactly. The harness
// drives the prologue's internal boundary white-box, since Step runs
// the whole prologue in one call.
func TestSessionCheckpointMidPrologue(t *testing.T) {
	cfg := sessionTestConfig(13, 2)
	cfg.WarmupIntervals = 2

	for _, tc := range []struct {
		name   string
		open   func(opts ...SessionOption) (*session, Session, error)
		resume func(r io.Reader, opts ...SessionOption) (Session, error)
	}{
		{
			"sim",
			func(opts ...SessionOption) (*session, Session, error) {
				s, err := Open(cfg, opts...)
				if err != nil {
					return nil, nil, err
				}
				return &s.session, s, nil
			},
			func(r io.Reader, opts ...SessionOption) (Session, error) { return Resume(cfg, r, opts...) },
		},
		{
			"cluster",
			func(opts ...SessionOption) (*session, Session, error) {
				s, err := OpenCluster(ClusterConfig{Sim: cfg}, opts...)
				if err != nil {
					return nil, nil, err
				}
				return &s.session, s, nil
			},
			func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeCluster(ClusterConfig{Sim: cfg}, r, opts...)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refBuf bytes.Buffer
			ref, refSess, err := tc.open(WithSink(NewNDJSONSink(&refBuf)))
			if err != nil {
				t.Fatal(err)
			}
			_ = ref
			for !refSess.Done() {
				if _, serr := refSess.Step(context.Background()); serr != nil {
					t.Fatal(serr)
				}
			}
			refSess.Close()
			full := refBuf.String()

			inner, sess, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			// One warm-up interval done, one to go: an internal prologue
			// boundary no Step call ever pauses at.
			if werr := inner.eng.warmupStep(context.Background()); werr != nil {
				t.Fatal(werr)
			}
			inner.warmupDone++
			var ckpt bytes.Buffer
			if cerr := sess.Checkpoint(&ckpt); cerr != nil {
				t.Fatalf("mid-prologue checkpoint: %v", cerr)
			}
			sess.Close()

			var buf bytes.Buffer
			rs, err := tc.resume(bytes.NewReader(ckpt.Bytes()), WithSink(NewNDJSONSink(&buf)))
			if err != nil {
				t.Fatalf("mid-prologue resume: %v", err)
			}
			for !rs.Done() {
				if _, serr := rs.Step(context.Background()); serr != nil {
					t.Fatal(serr)
				}
			}
			rs.Close()
			if buf.String() != full {
				t.Fatal("mid-prologue resume diverged from uninterrupted run")
			}
		})
	}
}

// TestSessionCheckpointAfterMidIntervalFault is the kill-and-resume
// path for crashes that land inside an interval: a permanently
// failing sink aborts Step with ErrSink, the failed session refuses
// further checkpoints, and resuming from the last boundary checkpoint
// replays the killed interval bit-identically.
func TestSessionCheckpointAfterMidIntervalFault(t *testing.T) {
	for _, tc := range checkpointCases(17, 4) {
		t.Run(tc.name, func(t *testing.T) {
			full, perInterval, _ := referenceRun(t, tc.open)
			const k = 1 // crash during interval 1
			if len(perInterval) <= k {
				t.Fatalf("scenario too short: %d intervals", len(perInterval))
			}
			prefixLines := perInterval[0]
			// Fail partway through interval k's records, mid-interval.
			fault := faultinject.Fault{Mode: faultinject.FailWrite, N: prefixLines + 1 + perInterval[k]/2}

			var buf bytes.Buffer
			sink := faultinject.Wrap[TraceRecord](NewNDJSONSink(&buf), fault)
			s, err := tc.open(WithSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			if _, serr := s.Step(context.Background()); serr != nil {
				t.Fatal(serr)
			}
			var ckpt bytes.Buffer
			if cerr := s.Checkpoint(&ckpt); cerr != nil {
				t.Fatal(cerr)
			}
			_, serr := s.Step(context.Background())
			if !errors.Is(serr, ErrSink) || !errors.Is(serr, faultinject.ErrInjected) {
				t.Fatalf("want ErrSink wrapping the injected fault, got %v", serr)
			}
			// The failed session refuses checkpoints (its engine has
			// advanced past the session counters)...
			if cerr := s.Checkpoint(io.Discard); !errors.Is(cerr, ErrSink) {
				t.Fatalf("checkpoint of failed session: want the Step failure, got %v", cerr)
			}
			// ...and Close after the failure is clean: the broken sink is
			// not flushed again.
			if cerr := s.Close(); cerr != nil {
				t.Fatalf("close after failed step: %v", cerr)
			}
			if buf.String() != linePrefix(full, prefixLines) {
				t.Fatal("failed run leaked bytes past the last whole-interval flush")
			}

			var post bytes.Buffer
			rs, err := tc.resume(bytes.NewReader(ckpt.Bytes()), WithSink(NewNDJSONSink(&post)))
			if err != nil {
				t.Fatal(err)
			}
			for !rs.Done() {
				if _, serr := rs.Step(context.Background()); serr != nil {
					t.Fatal(serr)
				}
			}
			rs.Close()
			if buf.String()+post.String() != full {
				t.Fatal("resume after mid-interval fault diverged from uninterrupted run")
			}
		})
	}
}

// TestSessionCheckpointRejectsDamage: truncations and bit flips at
// every region of the stream surface as typed checkpoint errors —
// never a panic, never a silently wrong resume.
func TestSessionCheckpointRejectsDamage(t *testing.T) {
	cfg := sessionTestConfig(5, 2)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := s.Step(context.Background()); serr != nil {
		t.Fatal(serr)
	}
	var ckpt bytes.Buffer
	if cerr := s.Checkpoint(&ckpt); cerr != nil {
		t.Fatal(cerr)
	}
	s.Close()
	raw := ckpt.Bytes()

	isTyped := func(err error) bool {
		return errors.Is(err, ErrCheckpointCorrupt) ||
			errors.Is(err, ErrCheckpointVersion) ||
			errors.Is(err, ErrCheckpointConfig)
	}
	// Every truncation length (sampled past the header region).
	for n := 0; n < len(raw); n += max(1, min(n/64, 97)) {
		if _, rerr := Resume(cfg, bytes.NewReader(raw[:n])); !isTyped(rerr) {
			t.Fatalf("truncation at %d/%d: want typed checkpoint error, got %v", n, len(raw), rerr)
		}
	}
	// Bit flips across the stream: header, section framing, payloads,
	// CRCs.
	for i := 0; i < len(raw); i += max(1, len(raw)/512) {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x40
		if _, rerr := Resume(cfg, bytes.NewReader(mut)); !isTyped(rerr) {
			t.Fatalf("bit flip at %d/%d: want typed checkpoint error, got %v", i, len(raw), rerr)
		}
	}
	// A future format version is ErrCheckpointVersion specifically,
	// and so is the superseded v1 (JSON twin blobs): there is no dual
	// reader.
	mut := bytes.Clone(raw)
	mut[8] = 0xFE
	mut[9] = 0x7F
	if _, rerr := Resume(cfg, bytes.NewReader(mut)); !errors.Is(rerr, ErrCheckpointVersion) {
		t.Fatalf("version bump: want ErrCheckpointVersion, got %v", rerr)
	}
	if raw[8] != 2 || raw[9] != 0 {
		t.Fatalf("checkpoint header carries format version %d, want 2", int(raw[8])|int(raw[9])<<8)
	}
	mut[8], mut[9] = 1, 0
	if _, rerr := Resume(cfg, bytes.NewReader(mut)); !errors.Is(rerr, ErrCheckpointVersion) {
		t.Fatalf("v1 header: want ErrCheckpointVersion, got %v", rerr)
	}
	// The wrong engine kind and the wrong configuration are both
	// ErrCheckpointConfig.
	if _, rerr := ResumeCluster(ClusterConfig{Sim: cfg}, bytes.NewReader(raw)); !errors.Is(rerr, ErrCheckpointConfig) {
		t.Fatalf("sim checkpoint into cluster session: want ErrCheckpointConfig, got %v", rerr)
	}
	other := cfg
	other.Seed++
	if _, rerr := Resume(other, bytes.NewReader(raw)); !errors.Is(rerr, ErrCheckpointConfig) {
		t.Fatalf("different config: want ErrCheckpointConfig, got %v", rerr)
	}
	// Counters no run can reach: a trained engine with warm-up
	// intervals still to run, at interval 0. Every section is well
	// formed, so only the counter check can refuse it.
	fresh, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh.trained = true
	var impossible bytes.Buffer
	if cerr := fresh.Checkpoint(&impossible); cerr != nil {
		t.Fatal(cerr)
	}
	fresh.Close()
	if _, rerr := Resume(cfg, bytes.NewReader(impossible.Bytes())); !errors.Is(rerr, ErrCheckpointCorrupt) {
		t.Fatalf("trained before warm-up: want ErrCheckpointCorrupt, got %v", rerr)
	}
}

// TestCheckpointDigestPinned pins the exact bytes of one tiny
// monolithic and one tiny cluster checkpoint, so the next change to
// the format — or to anything the format carries — shows up as a
// failing digest to review, not as silent drift. Parallelism and
// kernel dispatch do not reach the bytes (the determinism suites
// assert that); floating-point contraction does, so the pin holds
// where the compiler does not fuse multiply-adds: amd64 at the default
// GOAMD64 level.
func TestCheckpointDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating-point evaluation")
	}
	cfg := fuzzCheckpointConfig()
	for _, tc := range []struct {
		name string
		open func() (Session, error)
		want string
	}{
		{"mono", func() (Session, error) { return Open(cfg) },
			"b6a026a29193054b03e946a2de258561c5a897809fcecfd7e9a19b75e55b61d4"},
		{"cluster", func() (Session, error) { return OpenCluster(ClusterConfig{Sim: cfg}) },
			"45ca0584e47025d9ceff14f7ad914ecc35e24a82458f4fbaf55c9003a50cd436"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 2; i++ {
				if _, serr := s.Step(context.Background()); serr != nil {
					t.Fatal(serr)
				}
			}
			var ckpt bytes.Buffer
			if cerr := s.Checkpoint(&ckpt); cerr != nil {
				t.Fatal(cerr)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(ckpt.Bytes())); got != tc.want {
				t.Fatalf("v2 checkpoint (%d bytes) digest\n got %s\nwant %s\n"+
					"update the pin only for a deliberate format or engine change", ckpt.Len(), got, tc.want)
			}
		})
	}
}

// traceDigestConfig is the scenario of the pinned trace digests: the
// CNN is on and every engine holds more users than KMax, so the digest
// covers the compressor fit, the DDQN's K-means and silhouette rewards
// and the group build, as well as the simulation around them.
func traceDigestConfig(seed int64, users int) ClusterConfig {
	c := Config{
		Seed:             seed,
		NumUsers:         users,
		NumBS:            4,
		NumIntervals:     4,
		TicksPerInterval: 6,
		WarmupIntervals:  1,
		RegroupEvery:     2,
		CompressorEpochs: 2,
		AgentEpisodes:    6,
		ChurnPerInterval: 0.1,
		PrefetchDepth:    -1,
	}
	c.Grouping.UseCNN = true
	return ClusterConfig{Sim: c}
}

// TestTraceDigestPinned pins the SHA-256 of the binary trace of four
// tiny runs — monolithic with DDQN training, cluster, degraded cluster
// and two in-process distributed workers — at two seeds, so a change
// that claims to be bit-identical is checked against the bytes the
// previous revision wrote, not only against itself. The final
// checkpoint is pinned beside the trace: it carries the trained CNN and
// DDQN weights, which move with any bit of a silhouette reward or an
// optimizer step even when the selected K, and so the trace, does not.
// Every run uses all cores and the dispatched kernels; the determinism
// suites show neither reaches the bytes, and the digests hold under the
// purego tag. Like TestCheckpointDigestPinned the pin holds where the
// compiler does not fuse multiply-adds: amd64 at the default GOAMD64
// level.
func TestTraceDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating-point evaluation")
	}
	mono := func(seed int64, opts ...SessionOption) (Session, error) {
		return Open(traceDigestConfig(seed, 300).Sim, opts...)
	}
	cluster := func(seed int64, opts ...SessionOption) (Session, error) {
		return OpenCluster(traceDigestConfig(seed, 64), opts...)
	}
	degraded := func(seed int64, opts ...SessionOption) (Session, error) {
		cfg := traceDigestConfig(seed, 64)
		cfg.Faults = []CellFault{{Cell: 1, FailAt: 1, ReviveAt: 3}}
		return OpenCluster(cfg, append(opts, WithCellFailurePolicy(CellDegradeWithRevival))...)
	}
	distributed := func(seed int64, opts ...SessionOption) (Session, error) {
		return OpenDistributed(traceDigestConfig(seed, 64), 2, opts...)
	}
	for _, tc := range []struct {
		name        string
		seed        int64
		open        func(seed int64, opts ...SessionOption) (Session, error)
		trace, ckpt string
	}{
		{"mono", 42, mono,
			"7bd93ed0f5bb1e8fc841212a2ec75689649b980ad317dbd749e1de49bf368f5d",
			"42baae52582042fb49b9231bfb29480ca6d273241972b10cd3651dd30a59ee78"},
		{"mono", 7, mono,
			"41b59b8d17534657b13d67e178381e124ae19ccdd555efc47060fb7a27db7daa",
			"56a6c353dcab6346dd3955fc9bc9ffc321f1898b4465efd35527d813aefae001"},
		{"cluster", 42, cluster,
			"2aac56ac7f06bb8b8f247cce53d5de445cc53a23c662776275167a6aa937f6d2",
			"de9d76acd9fc95ce31d96f6cae3c99360ed4ea216afeb1e42229fdcf31e4b744"},
		{"cluster", 7, cluster,
			"8993a0e02a41a0e6784bd4dae3fc6dec2d37924864230a3db47b72d4ccf0037f",
			"f036bae3e7deab8d3a2cb1d58ee2a4d01045cbfd2edb4ac69c6ea5b15ef66fc3"},
		{"degraded", 42, degraded,
			"77cfdbca579233e404a566c15e4e0af2839dac43c1bbce0858b6168d679f7d0e",
			"5f2d51c26c1d06b75d884c5d9a7cff85f99af1380022547d36c16f4589eeda39"},
		{"degraded", 7, degraded,
			"b1c7953c2034506ae3af6b5de11fd013cb3e04abfda6ce7271a76d65654a0dff",
			"75a7eacd85b13c4e203d79a88633055f230a653cdde5f1a1d3e52d964ab341d8"},
		{"distributed", 42, distributed,
			"2aac56ac7f06bb8b8f247cce53d5de445cc53a23c662776275167a6aa937f6d2",
			"319a63825475706248e32dcffe1f3b81dee8413457b9e4249e6276475ab3612d"},
		{"distributed", 7, distributed,
			"8993a0e02a41a0e6784bd4dae3fc6dec2d37924864230a3db47b72d4ccf0037f",
			"93a6902fd32768148aa1ef50a9d4e97c46200de5950d157b78b4ee861635e39d"},
	} {
		t.Run(fmt.Sprintf("%s/seed%d", tc.name, tc.seed), func(t *testing.T) {
			var trace, ckpt bytes.Buffer
			sink, err := NewBinarySink(&trace)
			if err != nil {
				t.Fatal(err)
			}
			s, err := tc.open(tc.seed, WithSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for !s.Done() {
				if _, serr := s.Step(context.Background()); serr != nil {
					t.Fatal(serr)
				}
			}
			if err := s.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			for _, pin := range []struct {
				what string
				raw  []byte
				want string
			}{{"binary trace", trace.Bytes(), tc.trace}, {"final checkpoint", ckpt.Bytes(), tc.ckpt}} {
				if got := fmt.Sprintf("%x", sha256.Sum256(pin.raw)); got != pin.want {
					t.Errorf("%s (%d bytes) digest\n got %s\nwant %s\n"+
						"update the pin only for a deliberate engine change, and say so in CHANGES.md",
						pin.what, len(pin.raw), got, pin.want)
				}
			}
		})
	}
}

// TestCheckpointKeepsItsBuffer: the session encodes every checkpoint
// after its first into the buffer the first one grew. Growing a new
// buffer to the size of the state each call cost more than encoding
// it, and the cost varied call to call. The bytes do not change.
func TestCheckpointKeepsItsBuffer(t *testing.T) {
	cfg := fuzzCheckpointConfig()
	cfg.NumUsers = 400 // state well above the fixed per-call allocations
	for _, tc := range []struct {
		name string
		open func() (Session, error)
	}{
		{"mono", func() (Session, error) { return Open(cfg) }},
		{"cluster", func() (Session, error) { return OpenCluster(ClusterConfig{Sim: cfg}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
			var first, again bytes.Buffer
			if err := s.Checkpoint(&first); err != nil {
				t.Fatal(err)
			}
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			before := mem.TotalAlloc
			if err := s.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&mem)
			// A writer per call allocated two to three times the state.
			if got := mem.TotalAlloc - before; got > uint64(first.Len())/2 {
				t.Fatalf("second checkpoint of %d bytes allocated %d", first.Len(), got)
			}
			if err := s.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), again.Bytes()) {
				t.Fatal("checkpoint bytes differ between calls at one boundary")
			}
		})
	}
}
