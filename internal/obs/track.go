package obs

import "context"

// Track is the stage cursor of one unit of work on one goroutine: exactly
// one span is open at a time, To closes it and opens the next back to
// back, and moving to the stage already open is free. A trace recorded
// through a Track therefore decomposes its unit of work with no gap, no
// overlap and one span per real stage change — which is what lets the
// stage spans of a micro-batch sum to its batch span.
//
// A Track is not safe for concurrent use. A caller may hand its track to a
// callee that runs on the same goroutine (WithTrack / Enter), so the two
// sides of a call boundary share one cursor instead of each recording
// spans the other cannot see.
type Track struct {
	id     uint64
	stage  Stage
	open   bool
	callee bool // opened by Enter, so Leave ends it
	sp     Span
}

// ContinueTrack starts a track from an already open span of the given
// stage.
func ContinueTrack(sp Span, stage Stage, id uint64) *Track {
	return &Track{id: id, stage: stage, open: true, sp: sp}
}

// To moves the track to stage: the open span ends and a span of the new
// stage begins. A track already in stage is left alone.
func (t *Track) To(stage Stage) {
	if t.open && t.stage == stage {
		return
	}
	t.End()
	t.stage, t.open, t.sp = stage, true, Begin(stage, t.id)
}

// End closes the open span, if any. The next To reopens the track; until
// then the time is somebody else's to record (a callee that begins its
// own spans, such as kernels.RunModelLayerRows).
func (t *Track) End() {
	if t.open {
		t.sp.End()
		t.open = false
	}
}

type trackKey struct{}

// WithTrack returns a context that hands t to a callee on the same
// goroutine. A nil t withholds the caller's track — what a caller does
// before it moves the call to another goroutine.
func WithTrack(ctx context.Context, t *Track) context.Context {
	return context.WithValue(ctx, trackKey{}, t)
}

// Enter returns the track the caller handed over in ctx, moved to stage;
// without one — a remote or concurrent caller — it starts a track of the
// callee's own under id. Pair it with Leave.
func Enter(ctx context.Context, stage Stage, id uint64) *Track {
	if t, _ := ctx.Value(trackKey{}).(*Track); t != nil {
		t.To(stage)
		return t
	}
	return &Track{id: id, stage: stage, open: true, callee: true, sp: Begin(stage, id)}
}

// Leave ends a track Enter started and leaves a borrowed one open, in
// whatever stage the callee last moved it to, for the caller to carry on.
func (t *Track) Leave() {
	if t.callee {
		t.End()
	}
}
