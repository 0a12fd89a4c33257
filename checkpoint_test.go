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

	"dtmsvs/internal/checkpoint"
)

// checkpointCase wires one engine shape — monolithic, or one cell per
// station — into the generic kill-and-resume harness.
type checkpointCase struct {
	name   string
	open   func(opts ...SessionOption) (Session, error)
	resume func(r io.Reader, opts ...SessionOption) (Session, error)
}

func checkpointCases(seed int64, workers int) []checkpointCase {
	simCfg := sessionTestConfig(seed, workers)
	clusterCfg := ClusterConfig{Sim: simCfg}
	return []checkpointCase{
		{
			name:   "sim",
			open:   func(opts ...SessionOption) (Session, error) { return Open(simCfg, opts...) },
			resume: func(r io.Reader, opts ...SessionOption) (Session, error) { return Resume(simCfg, r, opts...) },
		},
		{
			name: "cluster",
			open: func(opts ...SessionOption) (Session, error) { return OpenCluster(clusterCfg, opts...) },
			resume: func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeCluster(clusterCfg, r, opts...)
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
// contract of the tentpole: for both engines, at Parallelism 1/4/8,
// a run checkpointed after k intervals and
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

// TestResumeCheckpointsItsOwnBytes: a resumed session checkpointed
// again before any Step writes exactly the bytes it resumed from, for
// the monolithic engine, the cluster engine with churned twins in the
// checkpoint, and the distributed engine, whose workers restore their
// blobs and ship them again — at Parallelism 1 and on every core. A
// resume builds each twin afresh from its stream, so every byte of a
// twin that a replay does not reproduce must come from the decode.
func TestResumeCheckpointsItsOwnBytes(t *testing.T) {
	for _, workers := range []int{1, 0} {
		cfg := ClusterConfig{Sim: sessionTestConfig(11, workers)}
		cases := append(checkpointCases(11, workers), checkpointCase{
			name: "distributed",
			open: func(opts ...SessionOption) (Session, error) { return OpenDistributed(cfg, 2, opts...) },
			resume: func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeDistributed(cfg, 2, r, opts...)
			},
		})
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				s, err := tc.open(WithSink(DiscardSink{}))
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 3; step++ {
					if _, serr := s.Step(context.Background()); serr != nil {
						t.Fatal(serr)
					}
				}
				var ckpt bytes.Buffer
				if cerr := s.Checkpoint(&ckpt); cerr != nil {
					t.Fatal(cerr)
				}
				if cerr := s.Close(); cerr != nil {
					t.Fatal(cerr)
				}
				rs, err := tc.resume(bytes.NewReader(ckpt.Bytes()), WithSink(DiscardSink{}))
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				if cs, ok := rs.(*ClusterSession); ok {
					if n := cs.st.eng.Churned(); n < 1 {
						t.Fatalf("%d users churned before the checkpoint; the scenario must churn", n)
					}
				}
				var again bytes.Buffer
				if cerr := rs.Checkpoint(&again); cerr != nil {
					t.Fatal(cerr)
				}
				if !bytes.Equal(again.Bytes(), ckpt.Bytes()) {
					t.Fatalf("resumed session checkpoints %d bytes unlike the %d it resumed from", again.Len(), ckpt.Len())
				}
			})
		}
	}
}

// TestResumeAtAnotherSchedule: Parallelism only schedules a run, so a
// checkpoint taken at Parallelism 4 resumes at Parallelism 1, at every
// boundary, into the uninterrupted run's trace suffix.
func TestResumeAtAnotherSchedule(t *testing.T) {
	wide, narrow := sessionTestConfig(11, 4), sessionTestConfig(11, 1)
	for _, tc := range []struct {
		name   string
		open   func(opts ...SessionOption) (Session, error)
		resume func(r io.Reader, opts ...SessionOption) (Session, error)
	}{
		{"sim",
			func(opts ...SessionOption) (Session, error) { return Open(wide, opts...) },
			func(r io.Reader, opts ...SessionOption) (Session, error) { return Resume(narrow, r, opts...) }},
		{"cluster",
			func(opts ...SessionOption) (Session, error) {
				return OpenCluster(ClusterConfig{Sim: wide}, opts...)
			},
			func(r io.Reader, opts ...SessionOption) (Session, error) {
				return ResumeCluster(ClusterConfig{Sim: narrow}, r, opts...)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, perInterval, _ := referenceRun(t, tc.open)
			for k := 0; k <= len(perInterval); k++ {
				var pre, post bytes.Buffer
				s, err := tc.open(WithSink(NewNDJSONSink(&pre)))
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < k; step++ {
					if _, serr := s.Step(context.Background()); serr != nil {
						t.Fatal(serr)
					}
				}
				var ckpt bytes.Buffer
				if cerr := s.Checkpoint(&ckpt); cerr != nil {
					t.Fatal(cerr)
				}
				if cerr := s.Close(); cerr != nil {
					t.Fatal(cerr)
				}
				rs, err := tc.resume(bytes.NewReader(ckpt.Bytes()), WithSink(NewNDJSONSink(&post)))
				if err != nil {
					t.Fatalf("resume at boundary %d: %v", k, err)
				}
				for !rs.Done() {
					if _, serr := rs.Step(context.Background()); serr != nil {
						t.Fatalf("resumed step at boundary %d: %v", k, serr)
					}
				}
				if cerr := rs.Close(); cerr != nil {
					t.Fatal(cerr)
				}
				if pre.String()+post.String() != full {
					t.Fatalf("boundary %d: resumed suffix diverged from uninterrupted run", k)
				}
			}
		})
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
			fault := ioFault{Mode: failWrite, N: prefixLines + 1 + perInterval[k]/2}

			var buf bytes.Buffer
			sink := wrapFaults(NewNDJSONSink(&buf), fault)
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
			if !errors.Is(serr, ErrSink) || !errors.Is(serr, errInjected) {
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
	// and so are the superseded v1 (JSON twin blobs), v2 (the
	// monolithic engine's shared construction stream, whose catalog a
	// later engine would not rebuild), v3 (a cell-failure policy byte
	// in the "cluster" section and a worst-SNR forecast per group) and
	// v4 (an AR(1) fading tap in every user's link state): there is no
	// dual reader.
	mut := bytes.Clone(raw)
	mut[8] = 0xFE
	mut[9] = 0x7F
	if _, rerr := Resume(cfg, bytes.NewReader(mut)); !errors.Is(rerr, ErrCheckpointVersion) {
		t.Fatalf("version bump: want ErrCheckpointVersion, got %v", rerr)
	}
	if raw[8] != 5 || raw[9] != 0 {
		t.Fatalf("checkpoint header carries format version %d, want 5", int(raw[8])|int(raw[9])<<8)
	}
	for _, old := range []byte{1, 2, 3, 4} {
		mut[8], mut[9] = old, 0
		if _, rerr := Resume(cfg, bytes.NewReader(mut)); !errors.Is(rerr, ErrCheckpointVersion) {
			t.Fatalf("v%d header: want ErrCheckpointVersion, got %v", old, rerr)
		}
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

	// Both in-process kinds write the cluster layout under one kind, and
	// over one station both are one cell: only the fingerprint — the
	// scenario for Open, the cluster configuration for OpenCluster —
	// keeps them apart, in both directions.
	steppedCheckpoint := func(s Session, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, serr := s.Step(context.Background()); serr != nil {
			t.Fatal(serr)
		}
		var b bytes.Buffer
		if cerr := s.Checkpoint(&b); cerr != nil {
			t.Fatal(cerr)
		}
		return b.Bytes()
	}
	oneBS := cfg
	oneBS.NumBS = 1
	for _, sc := range []Config{cfg, oneBS} {
		clusterRaw := steppedCheckpoint(OpenCluster(ClusterConfig{Sim: sc}))
		if _, rerr := Resume(sc, bytes.NewReader(clusterRaw)); !errors.Is(rerr, ErrCheckpointConfig) {
			t.Fatalf("%d-station cluster checkpoint into monolithic session: want ErrCheckpointConfig, got %v", sc.NumBS, rerr)
		}
		monoRaw := steppedCheckpoint(Open(sc))
		if _, rerr := ResumeCluster(ClusterConfig{Sim: sc}, bytes.NewReader(monoRaw)); !errors.Is(rerr, ErrCheckpointConfig) {
			t.Fatalf("%d-station monolithic checkpoint into cluster session: want ErrCheckpointConfig, got %v", sc.NumBS, rerr)
		}
	}
	// A monolithic stream written before Open ran the cluster engine:
	// the header of today's stream, whose fingerprint is still the
	// scenario with Parallelism at its default, under the old kind.
	unscheduled := cfg.Defaulted()
	unscheduled.Parallelism = 0
	fp, err := checkpoint.Fingerprint(unscheduled)
	if err != nil {
		t.Fatal(err)
	}
	var header, simKind bytes.Buffer
	checkpoint.NewWriter(&header, "cluster", fp)
	if !bytes.HasPrefix(raw, header.Bytes()) {
		t.Fatal("monolithic checkpoint header is not kind \"cluster\" over the scenario's fingerprint")
	}
	checkpoint.NewWriter(&simKind, "sim", fp)
	simKind.Write(raw[header.Len():])
	if _, rerr := Resume(cfg, &simKind); !errors.Is(rerr, ErrCheckpointConfig) {
		t.Fatalf("\"sim\" kind checkpoint: want ErrCheckpointConfig, got %v", rerr)
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
			"a55f8661df3299948f7bf3e9e2389332cf547f5813854e7e1d17ba88c8b9f8b6"},
		{"cluster", func() (Session, error) { return OpenCluster(ClusterConfig{Sim: cfg}) },
			"9ac8d7f627f3cf2270bfe0a482dd54c8e58d8de9b7c13659f78d0bb6d22f0c82"},
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
				t.Fatalf("v5 checkpoint (%d bytes) digest\n got %s\nwant %s\n"+
					"update the pin only for a deliberate format or engine change", ckpt.Len(), got, tc.want)
			}
		})
	}
}

// traceDigestConfig is the scenario of the pinned trace digests: the
// CNN is on and every engine holds more users than KMax, so the digest
// covers the compressor fit, the DDQN's K-means and silhouette rewards
// and the group build, as well as the simulation around them. The fit
// keeps the default cap of 20 epochs, so the digest also covers its
// plateau stop: the cluster cells' fits stop after 12 to 19 epochs.
func traceDigestConfig(seed int64, users int) ClusterConfig {
	c := Config{
		Seed:             seed,
		NumUsers:         users,
		NumBS:            4,
		NumIntervals:     4,
		TicksPerInterval: 6,
		WarmupIntervals:  1,
		RegroupEvery:     2,
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
		return OpenCluster(cfg, opts...)
	}
	distributed := func(seed int64, opts ...SessionOption) (Session, error) {
		return OpenDistributed(traceDigestConfig(seed, 64), 2, opts...)
	}
	// textPins pins the {NDJSON, CSV} bytes of the seed-42 mono and
	// cluster traces: the binary trace's records decoded and re-encoded
	// through NewNDJSONSink and NewCSVSink, so the text encoders are
	// held to the same absolute contract as the binary one.
	textPins := map[string][2]string{
		"mono/seed42": {
			"0004ad3bad4781362b8ee32407dd81906e84150ade78ee27b132ce3f4966a80e",
			"047cd6f7cd89b556898e76a97a2c812a0ff86dbdd1e69b90cdc49de28b2f54f0"},
		"cluster/seed42": {
			"338dafeef084e841b6eb366fc867fbf2ec34971d5d0580819e048905c5b4d694",
			"560484a45e287c86ae8ec0d40b37d7ef07c506c653611142a00bf448a3f8fcae"},
	}
	for _, tc := range []struct {
		name        string
		seed        int64
		open        func(seed int64, opts ...SessionOption) (Session, error)
		trace, ckpt string
	}{
		{"mono", 42, mono,
			"01915b1efeb7ca22cb2afa138d8c4ffd543222a8a3d8aaf0ce9ab7a04ea963f2",
			"5098471f5220fb00838dfa68f1d3e87ec5447159deecb47d0d731415ec94e0bb"},
		{"mono", 7, mono,
			"7709066924d3d450237422ca70ab89dd465a8efb2bf5bcb92560566a5b0696c2",
			"d9622204c4e61cc1250b1ea0b458a2ea649e9a37aa503ce56a41af7d1757ca6b"},
		{"cluster", 42, cluster,
			"455ad0920db0fdfd1556c0a75299ff554e875a7bfdeacb3508641fde2fd09948",
			"0332e245e78a5f7f9e3748c904c4af6cf378a281bafac1cdac0ecb72e0139977"},
		{"cluster", 7, cluster,
			"30b4162e74e63697fb1d59d53d1f18d7a4113303f467afa2c9c19fb6af57e28f",
			"dbf0f70c6600f3ca490842843842077e409d35e0ccf950366f91d4d152f52f58"},
		{"degraded", 42, degraded,
			"0cdfce35a11c60cae13aba69bee3e5bd271d89e1794865e78a775f575014f2cf",
			"4a8520d0cb41b7afbabacf7d9c58c773e46d32dd345bef8448c8f9d8fc753f08"},
		{"degraded", 7, degraded,
			"5d20decc24e3da222300fc9b81a58123d92abc67a05a7ffd9a87cd8c3f5b970e",
			"ae130aa74ac6f94c216563cd42a4bade13ccf6d45ed989a6fabd1691b8c64a22"},
		{"distributed", 42, distributed,
			"455ad0920db0fdfd1556c0a75299ff554e875a7bfdeacb3508641fde2fd09948",
			"32a15952f316e9ca84d7c4cdb3ed0fc87e4e1c86df1d995d6582720e737f3172"},
		{"distributed", 7, distributed,
			"30b4162e74e63697fb1d59d53d1f18d7a4113303f467afa2c9c19fb6af57e28f",
			"d0c51f30da29b20efd73dfb51784b63c8b67ad9bcc7f9a96936490a505c524e2"},
	} {
		name := fmt.Sprintf("%s/seed%d", tc.name, tc.seed)
		t.Run(name, func(t *testing.T) {
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
			type pinned struct {
				what string
				raw  []byte
				want string
			}
			pins := []pinned{{"binary trace", trace.Bytes(), tc.trace}, {"final checkpoint", ckpt.Bytes(), tc.ckpt}}
			if text, ok := textPins[name]; ok {
				nd, csv := reencodeTrace(t, trace.Bytes())
				pins = append(pins, pinned{"ndjson trace", nd, text[0]}, pinned{"csv trace", csv, text[1]})
			}
			for _, pin := range pins {
				if got := fmt.Sprintf("%x", sha256.Sum256(pin.raw)); got != pin.want {
					t.Errorf("%s (%d bytes) digest\n got %s\nwant %s\n"+
						"update the pin only for a deliberate engine change, and say so in CHANGES.md",
						pin.what, len(pin.raw), got, pin.want)
				}
			}
		})
	}
}

// reencodeTrace decodes a trace and re-encodes its records through an
// NDJSONSink and a CSVSink, returning both encodings.
func reencodeTrace(t *testing.T, trace []byte) (ndjson, csv []byte) {
	t.Helper()
	recs, err := ReadTraceRecords(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	var nd, cs bytes.Buffer
	for _, sink := range []TraceSink{NewNDJSONSink(&nd), NewCSVSink(&cs)} {
		for _, r := range recs {
			if err := sink.WriteRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return nd.Bytes(), cs.Bytes()
}

// TestClusterCheckpointBytesPerUser bounds a default-config cluster
// checkpoint at 1.6 KB per user, models and caches of its four cells
// included, so state nothing reads cannot creep back into every twin
// unnoticed: rings of 4·TicksPerInterval = 120 samples, where only the
// 16-sample grouping window is read, put it at 3.4 KB. Training
// lengths are cut to keep the test fast; no state is sized by them.
func TestClusterCheckpointBytesPerUser(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.NumUsers = 1000
	cfg.NumIntervals = 2
	cfg.CompressorEpochs = 2
	cfg.AgentEpisodes = 6
	s, err := OpenCluster(ClusterConfig{Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := s.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if perUser := ckpt.Len() / cfg.NumUsers; perUser > 1600 {
		t.Fatalf("cluster checkpoint of %d users is %d bytes, %d per user, want at most 1600", cfg.NumUsers, ckpt.Len(), perUser)
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

// TestClusterCheckpointBytesAcrossParallelism: a cluster session
// encodes its cells concurrently, each into its own buffer, and writes
// them in id order (a distributed worker frames its cells in place),
// so the pool's width never reaches the bytes. The checkpoint at every
// boundary of a churning, migrating run — a cluster session and a
// two-worker distributed one — is the same at Parallelism 1, 4 and 8,
// headers included: a header fingerprints the configuration with
// Parallelism at its default.
func TestClusterCheckpointBytesAcrossParallelism(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(ClusterConfig) (Session, error)
	}{
		{"cluster", func(cfg ClusterConfig) (Session, error) { return OpenCluster(cfg) }},
		{"distributed", func(cfg ClusterConfig) (Session, error) { return OpenDistributed(cfg, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base [][]byte
			for _, workers := range []int{1, 4, 8} {
				s, err := tc.open(clusterTestConfig(7, workers))
				if err != nil {
					t.Fatal(err)
				}
				var ckpts [][]byte
				for {
					var buf bytes.Buffer
					if err := s.Checkpoint(&buf); err != nil {
						t.Fatal(err)
					}
					ckpts = append(ckpts, buf.Bytes())
					if s.Done() {
						break
					}
					if _, err := s.Step(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = ckpts
					continue
				}
				if len(ckpts) != len(base) {
					t.Fatalf("workers %d: %d boundaries, want %d", workers, len(ckpts), len(base))
				}
				for i := range ckpts {
					if !bytes.Equal(ckpts[i], base[i]) {
						t.Fatalf("workers %d: checkpoint at boundary %d differs from Parallelism 1", workers, i)
					}
				}
			}
		})
	}
}

// TestFirstClusterCheckpointAllocation: the cells of a session's first
// cluster checkpoint grow their kept encoders from empty, and the
// users section reserves its room after the first twin, so that
// checkpoint allocates at most 1.5× its own bytes. Growing each
// encoder a quarter at a time through its twins put it near 5×.
func TestFirstClusterCheckpointAllocation(t *testing.T) {
	if raceEnabled {
		// Instrumented, slices.Grow heap-allocates the slice it appends,
		// so each reserve costs twice its room (2.3× here).
		t.Skip("allocation under the race detector is not the program's")
	}
	cfg := DefaultConfig(42)
	cfg.NumUsers = 1000
	cfg.NumIntervals = 2
	cfg.CompressorEpochs = 2
	cfg.AgentEpisodes = 6
	s, err := OpenCluster(ClusterConfig{Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for !s.Done() {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	ckpt.Grow(4 << 20) // the destination's growth is the caller's, not the checkpoint's
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(ckpt.Len())
	t.Logf("first checkpoint of %d B allocated %d B (%.2f×)", ckpt.Len(), alloc, ratio)
	if ratio > 1.5 {
		t.Fatalf("first checkpoint of %d B allocated %d B (%.2f×, bound 1.5×)", ckpt.Len(), alloc, ratio)
	}
}

// TestResumeBuildsEachTwinOnce: ResumeCluster builds each twin once,
// straight into its cell's slab, so a resume allocates about what the
// open does: at most 1.25× its objects, and at most one object per
// user more — the ratio alone is dominated by the resume's fixed
// decode costs (sections, groups, profiles). Building every twin a
// second time, by replaying its constructor into storage of its own,
// adds several objects per twin. The churned arm holds a checkpoint in
// which churn arrivals have replaced users, each of which a resume
// builds on its own stream, under both bounds.
func TestResumeBuildsEachTwinOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		churn float64
	}{{"churn-free", 0}, {"churned", 0.1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ClusterConfig{Sim: DefaultConfig(42)}
			cfg.Sim.NumUsers = 1000
			cfg.Sim.NumIntervals = 4
			cfg.Sim.FixedK = 4
			cfg.Sim.CompressorEpochs = 1
			cfg.Sim.AgentEpisodes = 1
			cfg.Sim.ChurnPerInterval = tc.churn
			s, err := OpenCluster(cfg, WithSink(DiscardSink{}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 4; i++ {
				if _, err := s.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if n := s.st.eng.Churned(); (n == 0) != (tc.churn == 0) {
				t.Fatalf("%d users churned at churn %v", n, tc.churn)
			}
			var ckpt bytes.Buffer
			if err := s.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			open := testing.AllocsPerRun(3, func() {
				o, err := OpenCluster(cfg, WithSink(DiscardSink{}))
				if err != nil {
					t.Fatal(err)
				}
				o.Close()
			})
			resume := testing.AllocsPerRun(3, func() {
				r, err := ResumeCluster(cfg, bytes.NewReader(ckpt.Bytes()), WithSink(DiscardSink{}))
				if err != nil {
					t.Fatal(err)
				}
				r.Close()
			})
			perUser := (resume - open) / float64(cfg.Sim.NumUsers)
			t.Logf("OpenCluster %.0f objects, ResumeCluster %.0f (%.2fx, %+.2f per user)", open, resume, resume/open, perUser)
			if resume > 1.25*open {
				t.Fatalf("ResumeCluster allocated %.0f objects, OpenCluster %.0f: %.2fx, want at most 1.25x", resume, open, resume/open)
			}
			if perUser > 1 {
				t.Fatalf("ResumeCluster allocated %.0f objects, OpenCluster %.0f: %.2f more per user, want at most 1", resume, open, perUser)
			}
		})
	}
}
