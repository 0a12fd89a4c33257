package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dtmsvs/internal/checkpoint"
)

// TestReadStateChecksOwnership feeds ReadState checkpoints whose cell
// populations disagree with their owner map — a twin listed in two
// cells, in none, or in a cell the map does not give it. Each must
// fail typed instead of resuming with a population the map does not
// describe.
func TestReadStateChecksOwnership(t *testing.T) {
	cfg := Config{Sim: testSimConfig(7, 1)}
	const id = 1
	cases := []struct {
		name  string
		twins int // twins the damaged checkpoint lists
		edit  func(t *testing.T, e *Engine, src, dst int)
	}{
		{"twin in two cells", 33, func(t *testing.T, e *Engine, src, dst int) {
			var enc checkpoint.Enc
			if err := e.cells[src].eng.EncodeUser(&enc, id); err != nil {
				t.Fatal(err)
			}
			mu, err := e.cells[dst].eng.DecodeUser(checkpoint.NewDec(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.cells[dst].eng.AttachUser(mu); err != nil {
				t.Fatal(err)
			}
		}},
		{"twin in no cell", 31, func(t *testing.T, e *Engine, src, _ int) {
			if _, ok := e.cells[src].eng.DetachUser(id); !ok {
				t.Fatalf("user %d not in cell %d", id, src)
			}
		}},
		{"twin in the wrong cell", 32, func(t *testing.T, e *Engine, src, dst int) {
			mu, ok := e.cells[src].eng.DetachUser(id)
			if !ok {
				t.Fatalf("user %d not in cell %d", id, src)
			}
			if err := e.cells[dst].eng.AttachUser(mu); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := e.owner[id]
			tc.edit(t, e, src, (src+1)%len(e.cells))
			listed := 0
			for _, c := range e.cells {
				listed += c.eng.NumUsers()
			}
			if listed != tc.twins {
				t.Fatalf("damaged checkpoint lists %d twins, want %d", listed, tc.twins)
			}
			blob := stateBytes(t, e)

			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := checkpoint.NewReader(bytes.NewReader(blob), "dtworker", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.ReadState(cr); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("ReadState = %v with %d twins for %d users, want ErrCorrupt",
					err, fresh.NumUsers(), cfg.Sim.NumUsers)
			}
		})
	}
}

// TestWriteStateInPlaceMatchesFanOut: WriteState frames the cells
// concurrently into the encoders they keep, or, for a writer that
// builds in place, one after another into its destination. Both write
// the same stream, for a whole cluster and for a worker's partition,
// and a second fan-out reuses what the first grew.
func TestWriteStateInPlaceMatchesFanOut(t *testing.T) {
	cfg := Config{Sim: testSimConfig(7, 4)}
	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewWorker(cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, e := range []*Engine{whole, worker.Engine} {
		if err := e.WarmupStep(ctx); err != nil {
			t.Fatal(err)
		}
		if err := e.TrainAndBuild(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // churn and regroups reach the cells' state
		if _, err := whole.StepInterval(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	for name, e := range map[string]*Engine{"cluster": whole, "worker": worker.Engine} {
		fanOut := stateBytes(t, e)
		grown := cap(e.cells[e.owned[0]].ckpt.Bytes())
		if grown == 0 {
			t.Fatalf("%s: the fan-out kept no encoder", name)
		}
		var frame checkpoint.Enc
		frame.U32(0xF00D) // a frame header the checkpoint rides behind
		cw := checkpoint.NewWriter(&frame, "dtworker", 0)
		if cw.InPlace() != &frame {
			t.Fatal("a writer into an Enc does not build in place")
		}
		if err := e.WriteState(cw); err != nil {
			t.Fatal(err)
		}
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame.Bytes()[4:], fanOut) {
			t.Fatalf("%s: in-place stream differs from the fan-out's", name)
		}
		if again := stateBytes(t, e); !bytes.Equal(again, fanOut) {
			t.Fatalf("%s: second fan-out differs from the first", name)
		}
		if c := cap(e.cells[e.owned[0]].ckpt.Bytes()); c != grown {
			t.Fatalf("%s: cell encoder regrown from %d to %d at one boundary", name, grown, c)
		}
	}
}
