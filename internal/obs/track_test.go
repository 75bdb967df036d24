package obs

import (
	"context"
	"testing"
)

// stagesOf returns the stages recorded under id, oldest first.
func stagesOf(id uint64) []Stage {
	var out []Stage
	for _, r := range Spans() {
		if r.ID == id {
			out = append(out, r.Stage)
		}
	}
	return out
}

func sameStages(a, b []Stage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTrackOneSpanPerStageChange: moving to the open stage records
// nothing, every real change closes exactly one span, End is idempotent
// and To reopens an ended track.
func TestTrackOneSpanPerStageChange(t *testing.T) {
	Enable(64)
	defer Disable()
	id := NewID()
	tr := ContinueTrack(Begin(StageSample, id), StageSample, id)
	tr.To(StageSample)
	tr.To(StageCache)
	tr.To(StageCache)
	tr.To(StageSample)
	tr.End()
	tr.End()
	tr.To(StageCollective)
	tr.End()
	want := []Stage{StageSample, StageCache, StageSample, StageCollective}
	if got := stagesOf(id); !sameStages(got, want) {
		t.Fatalf("recorded stages %v, want %v", got, want)
	}
}

// TestTrackHandOff: a callee that Enters under a context carrying the
// caller's track continues that track — no span of its own, and Leave
// keeps it open in the callee's last stage — while a callee without one,
// or with the track withheld, records and closes its own.
func TestTrackHandOff(t *testing.T) {
	Enable(64)
	defer Disable()
	callee := func(ctx context.Context, id uint64) {
		tr := Enter(ctx, StagePartition, id)
		defer tr.Leave()
		tr.To(StageCollective)
	}

	id := NewID()
	tr := ContinueTrack(Begin(StageSample, id), StageSample, id)
	callee(WithTrack(context.Background(), tr), id)
	if got := stagesOf(id); !sameStages(got, []Stage{StageSample, StagePartition}) {
		t.Fatalf("after a borrowed call: %v, want [sample partition] with collective still open", got)
	}
	tr.To(StageCollective) // the stage the callee left open: free
	tr.End()
	if got := stagesOf(id); !sameStages(got, []Stage{StageSample, StagePartition, StageCollective}) {
		t.Fatalf("borrowed track recorded %v", got)
	}

	for _, ctx := range []context.Context{
		context.Background(),
		WithTrack(WithTrack(context.Background(), tr), nil),
	} {
		own := NewID()
		callee(ctx, own)
		if got := stagesOf(own); !sameStages(got, []Stage{StagePartition, StageCollective}) {
			t.Fatalf("callee-owned track recorded %v, want [partition collective]", got)
		}
	}
}
