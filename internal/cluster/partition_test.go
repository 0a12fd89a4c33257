package cluster

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/sim"
	"dtmsvs/internal/udt"
)

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// stillHeap empties the heap's pools — sim keeps one, which a collector
// cycle clears — and stops the collector until the returned func runs,
// so that what a window allocates does not depend on when a cycle
// lands in it.
func stillHeap() (restart func()) {
	runtime.GC()
	runtime.GC()
	pct := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(pct) }
}

// stateBytes is the engine's boundary state as WriteState emits it.
func stateBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := checkpoint.NewWriter(&buf, "dtworker", 0)
	if err := e.WriteState(cw); err != nil {
		t.Fatalf("write state: %v", err)
	}
	if err := cw.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return buf.Bytes()
}

// exchange is the supervisor's boundary without the wire: every
// worker plans, moves that carry a twin are routed to the worker owning
// the destination cell, and every worker applies its plan plus imports.
func exchange(t *testing.T, ws []*Worker) {
	t.Helper()
	numCells := ws[0].Config().Sim.NumBS
	apply := make([][]Handover, len(ws))
	for i, w := range ws {
		plan, err := w.PlanHandovers()
		if err != nil {
			t.Fatalf("worker %d plan: %v", i, err)
		}
		apply[i] = append(apply[i], plan...)
		for _, h := range plan {
			if dst := WorkerForCell(h.To, numCells, len(ws)); dst != i {
				apply[dst] = append(apply[dst], h)
			}
		}
	}
	for i, w := range ws {
		if err := w.ApplyHandovers(apply[i]); err != nil {
			t.Fatalf("worker %d apply: %v", i, err)
		}
	}
}

// TestEngineIsThePartitionOfOne pins the equivalence the engine rests
// on: New(cfg) and NewWorker(cfg, 0, 1) are the same engine. Driven
// side by side — the engine through its own steps, the worker through
// the cell work plus PlanHandovers/ApplyHandovers — they hold
// byte-identical boundary state after every warm-up, the train
// boundary and every interval, and emit identical records.
func TestEngineIsThePartitionOfOne(t *testing.T) {
	sc := testSimConfig(19, 2)
	sc.WarmupIntervals = 2
	sc.NumIntervals = 5
	cfg := Config{Sim: sc}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w, err := NewWorker(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	same := func(at string) {
		t.Helper()
		if !bytes.Equal(stateBytes(t, e), stateBytes(t, w.Engine)) {
			t.Fatalf("%s: engine and one-worker partition diverged", at)
		}
	}
	same("construction")
	for i := 0; i < sc.WarmupIntervals; i++ {
		if err := e.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
		if err := w.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
		exchange(t, []*Worker{w})
		same("warm-up")
	}
	if err := e.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAndBuild(ctx); err != nil {
		t.Fatal(err)
	}
	same("train")
	for n := 0; n < sc.NumIntervals; n++ {
		want, err := e.StepInterval(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.StepInterval(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		exchange(t, []*Worker{w})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: records diverged", n)
		}
		same("interval")
	}
	if e.Handovers() == 0 || e.Handovers() != w.Handovers() {
		t.Fatalf("handovers %d vs %d (want equal and non-zero)", e.Handovers(), w.Handovers())
	}
}

// TestApplyHandoversRejects: every malformed move is refused with a
// typed error before anything moves — the engine's boundary state
// after the refusal is byte-identical to the state before it, even
// when the bad move sits behind valid ones in the batch.
func TestApplyHandoversRejects(t *testing.T) {
	cfg := Config{Sim: testSimConfig(3, 1)}
	ws := make([]*Worker, 2)
	for i := range ws {
		w, err := NewWorker(cfg, i, len(ws))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws[i] = w
	}
	ctx := context.Background()
	// Step until worker 0 plans an export into worker 1.
	var plan []Handover
	var export Handover
	for round := 0; export.Twin == nil; round++ {
		if round == 8 {
			t.Fatal("scenario produced no cross-worker handover")
		}
		if round > 0 {
			exchange(t, ws)
		}
		for _, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatal(err)
			}
		}
		p, err := ws[0].PlanHandovers()
		if err != nil {
			t.Fatal(err)
		}
		plan = append([]Handover(nil), p...)
		for _, h := range plan {
			if h.Twin != nil {
				export = h
			}
		}
	}
	// A twin that stays on worker 0 this boundary: worker 1 has never
	// seen it, so a move naming it passes every check but the decode.
	stay := -1
	for id, c := range ws[0].owner {
		if ws[0].mask[c] && ws[0].cells[c].eng.ServingBSOf(id) == c {
			stay = id
			break
		}
	}
	if stay < 0 {
		t.Fatal("no stationary twin on worker 0")
	}
	own, err := ws[1].PlanHandovers()
	if err != nil {
		t.Fatal(err)
	}
	own = append([]Handover(nil), own...)

	noTwin, wrongTwin, badCell := export, export, export
	noTwin.Twin = nil
	wrongTwin.ID = stay
	badCell.To = 99
	cases := []struct {
		name string
		w    *Worker
		move Handover
		want error
	}{
		{"neither endpoint owned", ws[1], Handover{ID: export.ID, From: 0, To: 1, Twin: export.Twin}, ErrConfig},
		{"import without a twin", ws[1], noTwin, ErrConfig},
		{"twin of another user", ws[1], wrongTwin, ErrConfig},
		{"cell out of range", ws[1], badCell, ErrConfig},
		{"unknown user", ws[1], Handover{ID: cfg.Sim.NumUsers, From: export.From, To: export.To, Twin: export.Twin}, ErrConfig},
		{"corrupt twin", ws[1], Handover{ID: export.ID, From: export.From, To: export.To, Twin: export.Twin[:len(export.Twin)/2]}, checkpoint.ErrCorrupt},
	}
	for _, tc := range cases {
		before := stateBytes(t, tc.w.Engine)
		users := tc.w.NumUsers()
		err := tc.w.ApplyHandovers(append(append([]Handover(nil), own...), tc.move))
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if tc.w.NumUsers() != users || !bytes.Equal(stateBytes(t, tc.w.Engine), before) {
			t.Fatalf("%s: rejected batch mutated the engine", tc.name)
		}
	}

	// A move into a quarantined cell is the failure model's invariant
	// breaking, typed as such.
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.warmupCells(ctx); err != nil {
		t.Fatal(err)
	}
	moves, err := e.PlanHandovers()
	if err != nil || len(moves) == 0 {
		t.Fatalf("single-process plan: %d moves, %v", len(moves), err)
	}
	e.cells[moves[len(moves)-1].To].down = true
	before := stateBytes(t, e)
	if err := e.ApplyHandovers(moves); !errors.Is(err, ErrCellFailure) {
		t.Fatalf("move into quarantined cell: %v", err)
	}
	if !bytes.Equal(stateBytes(t, e), before) {
		t.Fatal("rejected quarantine move mutated the engine")
	}

	// The untouched batch still applies: nothing above consumed it.
	if err := ws[0].ApplyHandovers(plan); err != nil {
		t.Fatal(err)
	}
	if err := ws[1].ApplyHandovers(append(own, export)); err != nil {
		t.Fatal(err)
	}
}

// TestPlanHandoversArena: a worker's plan encodes the twins that leave
// its partition into the engine's arena, so once the arena is warm,
// planning them allocates nothing, every twin is a window of it that
// cannot grow into the next, and each decodes as its user.
func TestPlanHandoversArena(t *testing.T) {
	sc := testSimConfig(9, 1)
	sc.NumUsers = 256
	sc.WarmupIntervals = 6
	ws := make([]*Worker, 2)
	for i := range ws {
		w, err := NewWorker(Config{Sim: sc}, i, len(ws))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws[i] = w
	}
	ctx := context.Background()
	for round := 0; ; round++ {
		if round == sc.WarmupIntervals {
			t.Fatal("no boundary exported twins")
		}
		for _, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := ws[0].PlanHandovers()
		if err != nil {
			t.Fatal(err)
		}
		exports := 0
		for _, h := range plan {
			if h.Twin == nil {
				continue
			}
			exports++
			if cap(h.Twin) != len(h.Twin) {
				t.Fatalf("user %d: twin of %d B has room for %d", h.ID, len(h.Twin), cap(h.Twin))
			}
			u, err := ws[0].cells[h.From].eng.DecodeUser(checkpoint.NewDec(h.Twin))
			if err != nil || u.ID() != h.ID {
				t.Fatalf("user %d: twin decodes as user %d: %v", h.ID, u.ID(), err)
			}
		}
		if exports > 0 {
			if n := testing.AllocsPerRun(5, func() { _, _ = ws[0].PlanHandovers() }); n != 0 {
				t.Fatalf("planning %d exported twins allocates %.0f times per pass", exports, n)
			}
			return
		}
		exchange(t, ws)
	}
}

// TestHandoverPassAllocations pins the single-process handover pass:
// once the plan buffer is warm, planning allocates nothing at all, and
// applying an id-ordered plan allocates per move (the detached handle,
// the destination's population slice growing), never per user.
func TestHandoverPassAllocations(t *testing.T) {
	for _, users := range []int{64, 1024} {
		sc := testSimConfig(5, 1)
		sc.NumUsers = users
		sc.WarmupIntervals = 3
		e, err := New(Config{Sim: sc})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ctx := context.Background()
		for round := 0; round < sc.WarmupIntervals; round++ {
			if err := e.warmupCells(ctx); err != nil {
				t.Fatal(err)
			}
			plan, err := e.PlanHandovers()
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				// The first boundary sizes the buffer.
				if err := e.ApplyHandovers(plan); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if len(plan) == 0 {
				t.Fatalf("%d users round %d: nothing to hand over", users, round)
			}
			if n := testing.AllocsPerRun(5, func() { _, _ = e.PlanHandovers() }); n != 0 {
				t.Fatalf("%d users: PlanHandovers allocates %.0f times per pass", users, n)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err = e.ApplyHandovers(plan)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if got, limit := m1.Mallocs-m0.Mallocs, uint64(4*len(plan)+8); got > limit {
				t.Fatalf("%d users: applying %d moves allocated %d times (limit %d)", users, len(plan), got, limit)
			}
		}
	}
}

// TestApplyHandoversRejectsTrainedBatch: after training, a batch whose
// moves land in cells with groups — so the batched group pick has work
// — and whose last import is bad is refused typed with the engine's
// boundary state byte-identical to before; the same batch without the
// bad import then applies, picks and all.
func TestApplyHandoversRejectsTrainedBatch(t *testing.T) {
	sc := testSimConfig(13, 2)
	sc.ChurnPerInterval = 0
	sc.NumIntervals = 8
	sc.Grouping.UseCNN = true
	cfg := Config{Sim: sc}
	ws := make([]*Worker, 2)
	for i := range ws {
		w, err := NewWorker(cfg, i, len(ws))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws[i] = w
	}
	ctx := context.Background()
	for _, w := range ws {
		if err := w.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
	}
	exchange(t, ws)
	for _, w := range ws {
		if err := w.TrainAndBuild(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Step until worker 1's batch holds an import into a cell with
	// groups; its own plan rides along.
	into := func(h Handover) bool { return ws[1].mask[h.To] && ws[1].cells[h.To].eng.NumGroups() > 0 }
	var batch []Handover
	for n := 0; ; n++ {
		if n == sc.NumIntervals {
			t.Fatal("scenario produced no import into a grouped cell")
		}
		if n > 0 {
			exchange(t, ws)
		}
		for _, w := range ws {
			if _, err := w.StepInterval(ctx, n); err != nil {
				t.Fatal(err)
			}
		}
		own, err := ws[1].PlanHandovers()
		if err != nil {
			t.Fatal(err)
		}
		batch = append([]Handover(nil), own...)
		exports, err := ws[0].PlanHandovers()
		if err != nil {
			t.Fatal(err)
		}
		imported := false
		for _, h := range exports {
			if h.Twin != nil && into(h) {
				batch = append(batch, h)
				imported = true
			}
		}
		if imported {
			break
		}
	}
	// The bad import names a twin worker 0 keeps this boundary (the
	// highest such id, so it sorts after most of the batch) and carries
	// a real export's bytes.
	var good Handover
	for _, h := range batch {
		if h.Twin != nil {
			good = h
		}
	}
	last := -1
	for id, c := range ws[0].owner {
		if ws[0].mask[c] && ws[0].cells[c].eng.ServingBSOf(id) == c {
			last = id
		}
	}
	if last < 0 {
		t.Fatal("no stationary twin on worker 0")
	}
	for _, bad := range []struct {
		name string
		move Handover
		want error
	}{
		{"corrupt twin", Handover{ID: last, From: good.From, To: good.To, Twin: good.Twin[:len(good.Twin)/2]}, checkpoint.ErrCorrupt},
		{"twin of another user", Handover{ID: last, From: good.From, To: good.To, Twin: good.Twin}, ErrConfig},
	} {
		before := stateBytes(t, ws[1].Engine)
		err := ws[1].ApplyHandovers(append(append([]Handover(nil), batch...), bad.move))
		if !errors.Is(err, bad.want) {
			t.Fatalf("%s: got %v, want %v", bad.name, err, bad.want)
		}
		if !bytes.Equal(stateBytes(t, ws[1].Engine), before) {
			t.Fatalf("%s: rejected batch mutated the engine", bad.name)
		}
	}
	attached := func() (n int) {
		for _, ci := range ws[1].owned {
			n += ws[1].cells[ci].migratedIn
		}
		return n
	}
	want := attached()
	for _, h := range batch {
		if ws[1].mask[h.To] {
			want++
		}
	}
	if err := ws[1].ApplyHandovers(batch); err != nil {
		t.Fatal(err)
	}
	if got := attached(); got != want {
		t.Fatalf("%d twins attached in all, want %d", got, want)
	}
}

// TestImportsReuseExports: a worker decodes each import into the
// storage of a spare, a user an earlier pass exported — one no cell
// holds any more — so a warm pass whose imports do not outnumber its
// spares builds no new user and no new twin: every import is one of
// them, and the pass allocates less per import than one twin's ring
// slab. Spares a pass leaves unused stay, so that also holds for a
// pass that imports more users than the last one exported. After every
// pass a worker's spares end with the users that pass exported, none
// of them in a cell, and number at most the larger of that pass's
// exports and the largest import batch so far.
func TestImportsReuseExports(t *testing.T) {
	sc := testSimConfig(9, 1)
	sc.NumUsers = 400
	sc.WarmupIntervals = 10
	ws := make([]*Worker, 2)
	for i := range ws {
		w, err := NewWorker(Config{Sim: sc}, i, len(ws))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws[i] = w
	}
	// A twin's ring slab at this scenario's ring capacity, the grouping
	// window of 16 samples (under 4·TicksPerInterval).
	slab := float64(udt.NumFeatureChannels * 16 * 8)
	ctx := context.Background()
	gated, leftover := 0, 0
	lastExports := make([]int, len(ws))
	maxImports := make([]int, len(ws))
	for round := 0; round < sc.WarmupIntervals; round++ {
		apply := make([][]Handover, len(ws))
		for i, w := range ws {
			if err := w.WarmupStep(ctx); err != nil {
				t.Fatal(err)
			}
			plan, err := w.PlanHandovers()
			if err != nil {
				t.Fatal(err)
			}
			apply[i] = append(apply[i], plan...)
			for _, h := range plan {
				if dst := WorkerForCell(h.To, sc.NumBS, len(ws)); dst != i {
					apply[dst] = append(apply[dst], h)
				}
			}
		}
		for i, w := range ws {
			spares := make(map[sim.User]bool, len(w.spares))
			for _, mu := range w.spares {
				spares[mu] = true
			}
			var imports, exports []int
			for _, h := range apply[i] {
				switch {
				case !w.mask[h.From]:
					imports = append(imports, h.ID)
				case !w.mask[h.To]:
					exports = append(exports, h.ID)
				}
			}
			stop := stillHeap()
			a0 := totalAlloc()
			err := w.ApplyHandovers(apply[i])
			alloc := totalAlloc() - a0
			stop()
			if err != nil {
				t.Fatal(err)
			}
			if len(imports) > 0 && len(imports) <= len(spares) {
				gated++
				if len(imports) > lastExports[i] {
					leftover++
				}
				for _, id := range imports {
					mu, ok := w.cells[w.owner[id]].eng.Member(id)
					if !ok || !spares[mu] {
						t.Fatalf("round %d worker %d: import %d is not one of the %d spares", round, i, id, len(spares))
					}
				}
				if per := float64(alloc) / float64(len(imports)); per >= slab {
					t.Fatalf("round %d worker %d: %d imports allocate %.0f B each, a twin's slab is %.0f B", round, i, len(imports), per, slab)
				}
			}
			lastExports[i] = len(exports)
			maxImports[i] = max(maxImports[i], len(imports))
			if n := len(w.spares); n < len(exports) || n > max(len(exports), maxImports[i]) {
				t.Fatalf("round %d worker %d: %d spares after a pass exporting %d users, largest import batch %d", round, i, n, len(exports), maxImports[i])
			}
			// An older spare's id is the one it left with: that user may
			// have come back since, into other storage.
			older := len(w.spares) - len(exports)
			for k, mu := range w.spares {
				id := mu.ID()
				inCell := false
				if c := w.owner[id]; w.mask[c] {
					in, ok := w.cells[c].eng.Member(id)
					inCell = ok && in == mu
				}
				if inCell || (k >= older && id != exports[k-older]) {
					t.Fatalf("round %d worker %d: spare %d is user %d (owner cell %d)", round, i, k, id, w.owner[id])
				}
			}
		}
	}
	if gated == 0 || leftover == 0 {
		t.Fatalf("%d passes decoded every import into a spare, %d of them importing more users than the last pass exported: scenario too quiet", gated, leftover)
	}
	t.Logf("%d passes decoded every import into a spare, %d of them importing more users than the last pass exported", gated, leftover)
}
