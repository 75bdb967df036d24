package main

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisegraph/internal/serve"
)

// The same seed yields the same ids and schedule; another seed does not.
func TestLoadDeterministic(t *testing.T) {
	w, _ := workloadByName("fleet-tcp-zipf")
	sz := sizesFor(true)
	a := genLoad(1, 2000, w, sz, 2*time.Second)
	b := genLoad(1, 2000, w, sz, 2*time.Second)
	c := genLoad(2, 2000, w, sz, 2*time.Second)
	same := func(x, y *load) bool {
		eq := slices.Equal(x.probe, y.probe) && slices.Equal(x.warm, y.warm) &&
			slices.Equal(x.paced, y.paced) && slices.Equal(x.due, y.due)
		for i := range x.sat {
			eq = eq && slices.Equal(x.sat[i], y.sat[i])
		}
		return eq
	}
	if !same(a, b) {
		t.Fatal("two loads from seed 1 differ")
	}
	if slices.Equal(a.paced, c.paced) || slices.Equal(a.due, c.due) || slices.Equal(a.probe, c.probe) ||
		slices.Equal(a.warm, c.warm) || slices.Equal(a.sat[0], c.sat[0]) {
		t.Fatal("seed 2 repeats part of seed 1's load")
	}
	if slices.Equal(a.sat[0], a.sat[1]) {
		t.Fatal("two clients share one id stream")
	}
	if !slices.IsSorted(a.due) || len(a.due) != len(a.paced) {
		t.Fatalf("schedule: %d due times for %d ids, sorted=%v", len(a.due), len(a.paced), slices.IsSorted(a.due))
	}
	// A Poisson count within five sigma of its mean.
	mean := w.rate * 2
	if n := float64(len(a.due)); n < mean-5*math.Sqrt(mean) || n > mean+5*math.Sqrt(mean) {
		t.Fatalf("%v arrivals in 2 s at %v/s", n, w.rate)
	}
}

// A stalled server must inflate the latency of the requests that were due
// while it stalled: latency runs from the due time, not the send time.
func TestPacedLatencyTimedFromDue(t *testing.T) {
	const stall = 80 * time.Millisecond
	var mu sync.Mutex // a server that answers one request at a time
	var calls atomic.Int32
	do := func(int32) error {
		mu.Lock()
		defer mu.Unlock()
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	res := runPaced(make([]int32, len(due)), due, 100*time.Millisecond, 2, 8, time.Second, do)
	if res.completed != 4 {
		t.Fatalf("completed %d of 4", res.completed)
	}
	for i, d := range due {
		// Nothing completes before the stall ends, so request i waited at
		// least stall - due[i]; sleeping only ever overshoots.
		if min := float64(stall-d) / 1e6; res.latMs[i] < min {
			t.Errorf("request due at %v: latency %.1f ms hides the stall (want >= %.0f ms)", d, res.latMs[i], min)
		}
	}
}

// Shed, errored and over-limit requests all count as failures.
func TestPacedFailureAccounting(t *testing.T) {
	do := func(node int32) error {
		switch node {
		case 1:
			return serve.ErrOverloaded
		case 2:
			return errors.New("deadline exceeded")
		case 3:
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	}
	ids := []int32{0, 1, 2, 3, 0}
	res := runPaced(ids, make([]time.Duration, len(ids)), 50*time.Millisecond, 2, 8, 20*time.Millisecond, do)
	if res.completed != 3 || res.shed != 1 || res.errs != 1 || res.over != 1 {
		t.Fatalf("completed %d shed %d errs %d over %d, want 3 1 1 1", res.completed, res.shed, res.errs, res.over)
	}
	var ta tally
	ta.add(res.attempted(), res.shed+res.errs)
	ta.add(0, res.over)
	if ta.attempted != 5 || ta.failed != 3 {
		t.Fatalf("tally %+v, want attempted 5 failed 3", ta)
	}
	if len(res.latMs) != 3 {
		t.Fatalf("%d latency samples, want the 3 completed", len(res.latMs))
	}
}
