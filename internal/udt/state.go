package udt

import (
	"fmt"

	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/video"
)

// identity is what a twin is constructed from: state encoded by one
// twin decodes only into a twin built from the same values.
func (t *Twin) identity() [6]int {
	c := t.cfg
	return [...]int{t.UserID, c.HistoryLen, c.ChannelEvery, c.LocationEvery, c.WatchEvery, c.PreferenceEvery}
}

// EncodeState appends the twin's full state — what the edge persists
// across restarts and ships between sites when the user moves: the
// construction identity, the collection clock, each series
// oldest-first as raw IEEE-754 words, the preference snapshot, the
// per-category interval counters and the staleness counts.
func (t *Twin) EncodeState(e *checkpoint.Enc) {
	for _, v := range t.identity() {
		e.Int(v)
	}
	e.Int(t.ticks)
	for _, r := range t.rings() {
		if r.full {
			e.F64s(r.buf[r.next:], r.buf[:r.next])
		} else {
			e.F64s(r.buf[:r.next])
		}
	}
	e.F64s(t.pref)
	e.F64s(t.watchByCat[:])
	e.F64s(t.engageByCat[:])
	e.Ints(t.viewsByCat[:])
	e.Int(t.swipes)
	e.Int(t.views)
	for _, at := range t.lastAt[AttrChannel:] {
		e.Int(t.ticks - at)
	}
}

// DecodeState overwrites the twin's state in place with bytes written
// by EncodeState on a twin of the same user id and configuration.
// Nothing is allocated: every length in the input is checked against
// what this twin already holds. A mismatched identity, a series longer
// than the ring, counters of the wrong arity or an invalid preference
// is checkpoint.ErrCorrupt, and leaves the twin partly overwritten.
func (t *Twin) DecodeState(d *checkpoint.Dec) error {
	want := t.identity()
	var got [len(want)]int
	for i := range got {
		got[i] = d.Int()
	}
	if d.Err() == nil && got != want {
		return fmt.Errorf("twin state of user/config %v, twin is %v: %w", got, want, checkpoint.ErrCorrupt)
	}
	t.ticks = d.Int()
	for _, r := range t.rings() {
		n := d.F64sInto(r.buf)
		r.full = n == len(r.buf)
		r.next = n % len(r.buf)
	}
	arity := d.F64sInto(t.pref) == video.NumCategories &&
		d.F64sInto(t.watchByCat[:]) == video.NumCategories &&
		d.F64sInto(t.engageByCat[:]) == video.NumCategories &&
		d.U32() == video.NumCategories
	if err := d.Err(); err != nil {
		return err
	}
	if !arity {
		return fmt.Errorf("twin %d counters of wrong arity: %w", t.UserID, checkpoint.ErrCorrupt)
	}
	if err := t.pref.Validate(); err != nil {
		return fmt.Errorf("twin %d preference: %v: %w", t.UserID, err, checkpoint.ErrCorrupt)
	}
	for i := range t.viewsByCat {
		t.viewsByCat[i] = d.Int()
	}
	t.swipes = d.Int()
	t.views = d.Int()
	for a := AttrChannel; a <= AttrPreference; a++ {
		t.lastAt[a] = t.ticks - d.Int()
	}
	return d.Err()
}
