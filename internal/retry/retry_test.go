package retry

import (
	"errors"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

func always(error) bool { return true }

// TestDoExhaustion: a persistently failing op runs exactly Attempts times,
// sees attempt indices 0..Attempts-1, and the surfaced error still
// unwraps to the last one; an op that recovers stops the ladder there.
func TestDoExhaustion(t *testing.T) {
	var seen []int
	err := Do(1, always, func(n int) error { seen = append(seen, n); return errFlaky })
	if !errors.Is(err, errFlaky) {
		t.Fatalf("exhausted error = %v, want it to wrap %v", err, errFlaky)
	}
	if len(seen) != Attempts {
		t.Fatalf("op ran %d times, want %d", len(seen), Attempts)
	}
	for i, n := range seen {
		if n != i {
			t.Fatalf("attempt indices %v, want 0..%d", seen, Attempts-1)
		}
	}

	runs := 0
	if err := Do(1, always, func(n int) error {
		runs++
		if n < 2 {
			return errFlaky
		}
		return nil
	}); err != nil || runs != 3 {
		t.Fatalf("recovering op: err=%v after %d runs, want nil after 3", err, runs)
	}
}

// TestDoNonRetryableReturnsAtOnce: an error the predicate rejects comes
// back bare after one attempt.
func TestDoNonRetryableReturnsAtOnce(t *testing.T) {
	permanent := errors.New("permanent")
	runs := 0
	err := Do(1, func(err error) bool { return err != permanent }, func(int) error { runs++; return permanent })
	if err != permanent || runs != 1 {
		t.Fatalf("err=%v after %d runs, want the bare error after 1", err, runs)
	}
}

// TestBackoffJitter: the pause doubles per re-issue, the jitter keeps it inside
// [½, 1) of the nominal step, it is a pure function of (n, key), and a
// whole exhausted ladder really sleeps at least the sum of its pauses.
func TestBackoffJitter(t *testing.T) {
	for _, key := range []uint64{0, 1, 77, 127, 128, 1<<63 + 5} {
		for n := 1; n < Attempts; n++ {
			nominal := Base << (n - 1)
			got := Backoff(n, key)
			if got < nominal/2 || got >= nominal {
				t.Fatalf("Backoff(%d, %d) = %v outside [%v, %v)", n, key, got, nominal/2, nominal)
			}
			if again := Backoff(n, key); again != got {
				t.Fatalf("Backoff(%d, %d) = %v then %v — not a pure function", n, key, got, again)
			}
			// Doubling, up to the nanosecond the integer scaling truncates.
			if n == 1 {
				continue
			}
			if d := got - 2*Backoff(n-1, key); d < 0 || d > 1 {
				t.Fatalf("Backoff(%d, %d) = %v, want double Backoff(%d) = %v", n, key, got, n-1, Backoff(n-1, key))
			}
		}
	}
	if Backoff(1, 0) == Backoff(1, 64) {
		t.Fatal("keys 0 and 64 jitter identically — the key does not reach the pause")
	}

	const key = 127
	var want time.Duration
	for n := 1; n < Attempts; n++ {
		want += Backoff(n, key)
	}
	start := time.Now()
	Do(key, always, func(int) error { return errFlaky })
	if elapsed := time.Since(start); elapsed < want {
		t.Fatalf("exhausted ladder took %v, want at least the %v its pauses sum to", elapsed, want)
	}
}
