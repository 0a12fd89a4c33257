package cluster

import (
	"bytes"
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
