// Package retry is the repository's one retry ladder: bounded attempts,
// exponential backoff, deterministic jitter and a retryable-error
// predicate. The router→shard RPC path (internal/shard) and the halo
// exchange (internal/dist) both run through Do; the policy is constants,
// so the sites cannot drift apart.
package retry

import (
	"fmt"
	"time"
)

const (
	// Attempts bounds the tries one Do makes, the first included.
	Attempts = 5
	// Base is the pause before the first re-issue; each later one doubles.
	Base = 100 * time.Microsecond
)

// Backoff is the pause before re-issue n (1 ≤ n < Attempts): Base·2ⁿ⁻¹
// scaled into [½, 1) by key's low seven bits — a pure function, so runs
// replay. Callers pass a key that differs between concurrent operations
// (a call sequence number, a device pair) to de-correlate their retries.
func Backoff(n int, key uint64) time.Duration {
	return time.Duration(uint64(Base<<(n-1)) * (key%128 + 128) / 256)
}

// Do runs op(0), op(1), … until one returns nil, returns an error that
// retryable rejects (surfaced at once, as is), or Attempts are spent (the
// last error, wrapped with the count). It sleeps Backoff(n, key) before
// op(n). op must be idempotent.
func Do(key uint64, retryable func(error) bool, op func(attempt int) error) error {
	for n := 0; ; n++ {
		err := op(n)
		if err == nil || !retryable(err) {
			return err
		}
		if n == Attempts-1 {
			return fmt.Errorf("failed after %d attempts: %w", Attempts, err)
		}
		time.Sleep(Backoff(n+1, key))
	}
}
