// Package hotcache is the serving tier's per-layer hot-vertex embedding
// cache: a memory-bounded, sharded map from (layer level, vertex id) to
// one computed embedding row — the post-activation output of layer
// level-1, so levels start at 1 — with popularity-aware admission instead
// of plain LRU. There is no level 0: an input feature row already sits in
// its shard's feature matrix, a cached copy would prune nothing and would
// only crowd out the rows that do (CaPGNN never caches what a partition
// already holds, for the same reason). Under Zipf-skewed serving traffic a
// small set of vertices accounts for most fan-out work, and reusing their
// rows across requests removes whole subtrees from sampling, partitioning
// and the gTask forward (CaPGNN's embedding caching; BGL's hot-data
// admission).
//
// Admission is scored, not recency-ordered: a candidate enters only if
// score = (1+frequency) · (1+log2(1+degree)) · (1+level) beats a sampled
// resident victim. Frequency comes from a small count-min sketch fed by
// misses (so a row must prove popularity before it can displace another),
// degree because high-in-degree vertices amortize more sampled edges, and
// level because a deep row stands in for an entire fan-out subtree.
//
// The cache is versioned for checkpoint reloads: Get and Put both carry
// the caller's model version and are rejected on mismatch, and
// InvalidateTo flushes every shard when the served parameters change.
// Correctness never depends on cache policy — the serving forward is a
// pure function per vertex, so a hit returns exactly the bytes a miss
// would recompute; eviction and admission shape performance only.
package hotcache

import (
	"math"
	"sync"
	"sync/atomic"
)

// entryOverhead approximates the fixed per-entry cost (map bucket share,
// key, slice header, counters) charged against the byte budget on top of
// the row payload.
const entryOverhead = 96

// evictSample is how many resident entries an over-budget Put samples
// (via randomized map iteration) when looking for a victim.
const evictSample = 5

// Config sizes a Cache.
type Config struct {
	// Budget caps resident bytes across all shards (rows + per-entry
	// overhead). Zero or negative disables the cache (New returns nil).
	Budget int64
	// Shards is the lock-stripe count (default 8, rounded up to a power
	// of two). More shards cut contention across serving workers.
	Shards int
}

type entry struct {
	row  []float32
	hits uint32
	deg  int32
}

type shard struct {
	mu    sync.RWMutex
	m     map[uint64]*entry
	bytes int64
}

// Cache is a sharded, versioned, byte-budgeted embedding-row cache. All
// methods are safe for concurrent use and nil-safe: a nil *Cache behaves
// as an always-miss cache so callers need no enabled checks on hot paths.
type Cache struct {
	shards  []shard
	perCap  int64 // per-shard byte budget (budget/len(shards), truncated)
	budget  int64 // configured byte budget, reported as Snapshot.Capacity
	version atomic.Uint64
	sketch  sketch

	hits     atomic.Uint64
	misses   atomic.Uint64
	admitted atomic.Uint64
	evicted  atomic.Uint64
	rejected atomic.Uint64
	flushes  atomic.Uint64
}

// New builds a cache with the given byte budget; a non-positive budget
// returns nil (the always-miss cache).
func New(cfg Config) *Cache {
	if cfg.Budget <= 0 {
		return nil
	}
	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	for n&(n-1) != 0 {
		n++
	}
	c := &Cache{shards: make([]shard, n), perCap: cfg.Budget / int64(n), budget: cfg.Budget}
	if c.perCap < 1 {
		c.perCap = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*entry)
	}
	c.sketch.init()
	return c
}

// key packs (level, vertex) into the map key.
func key(level int, v int32) uint64 {
	return uint64(level)<<32 | uint64(uint32(v))
}

func (c *Cache) shardOf(k uint64) *shard {
	h := k * 0x9e3779b97f4a7c15
	return &c.shards[h>>32&uint64(len(c.shards)-1)]
}

// score ranks an entry for admission and eviction: observed or estimated
// popularity, amplified by in-degree (more sampled edges saved per hit)
// and by level (a deep row replaces a whole fan-out subtree).
func score(freq uint32, deg int32, level int) float64 {
	return float64(1+freq) * (1 + math.Log2(float64(1+deg))) * float64(1+level)
}

// Get copies the cached row for (level, v) into dst and reports a hit.
// ver must be the model version the caller's replica is synced to: a
// mismatch (reload in flight) is a miss. Misses feed the frequency
// sketch, which is what later earns the vertex admission.
func (c *Cache) Get(ver uint64, level int, v int32, dst []float32) bool {
	if c == nil {
		return false
	}
	k := key(level, v)
	if c.version.Load() == ver {
		s := c.shardOf(k)
		s.mu.RLock()
		e := s.m[k]
		if e != nil && len(e.row) == len(dst) {
			copy(dst, e.row)
			atomic.AddUint32(&e.hits, 1)
			s.mu.RUnlock()
			c.hits.Add(1)
			return true
		}
		s.mu.RUnlock()
	}
	c.misses.Add(1)
	if c.sketch.add(k) {
		c.decayResidents()
	}
	return false
}

// decayResidents halves every resident entry's hit counter. It runs on
// the same cadence as the sketch's TinyLFU aging so resident scores stay
// comparable to candidate estimates; without it a once-hot long-resident
// row's ever-growing count would make it unevictable after traffic
// shifts, pinning a stale working set. Halving races with concurrent hit
// increments exactly like the sketch's own aging; a lost increment only
// perturbs an approximate policy, never correctness.
func (c *Cache) decayResidents() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.m {
			atomic.StoreUint32(&e.hits, atomic.LoadUint32(&e.hits)/2)
		}
		s.mu.RUnlock()
	}
}

// Put offers a freshly computed row for admission. ver is the model
// version the row was computed under; a stale version is rejected so a
// checkpoint reload can never be poisoned by an in-flight batch. The row
// is copied, never retained.
func (c *Cache) Put(ver uint64, level int, v int32, deg int32, row []float32) bool {
	if c == nil {
		return false
	}
	k := key(level, v)
	size := int64(len(row))*4 + entryOverhead
	if size > c.perCap {
		c.rejected.Add(1)
		return false
	}
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Version re-check under the shard lock: InvalidateTo bumps the
	// version before sweeping shards, so a stale Put that raced past the
	// first check is caught here and can never land after the sweep.
	if c.version.Load() != ver {
		c.rejected.Add(1)
		return false
	}
	if _, ok := s.m[k]; ok {
		// Same version ⇒ identical bytes; nothing to refresh.
		return true
	}
	cand := score(c.sketch.estimate(k)+1, deg, level)
	for s.bytes+size > c.perCap {
		vk, victim := s.weakest()
		if victim == nil || score(atomic.LoadUint32(&victim.hits)+1, victim.deg, int(vk>>32)) >= cand {
			c.rejected.Add(1)
			return false
		}
		s.bytes -= int64(len(victim.row))*4 + entryOverhead
		delete(s.m, vk)
		c.evicted.Add(1)
	}
	s.m[k] = &entry{row: append([]float32(nil), row...), deg: deg}
	s.bytes += size
	c.admitted.Add(1)
	return true
}

// weakest samples up to evictSample resident entries (randomized map
// iteration) and returns the lowest-scored one. Called with s.mu held.
func (s *shard) weakest() (uint64, *entry) {
	var (
		bk    uint64
		best  *entry
		bestS float64
		n     int
	)
	for k, e := range s.m {
		sc := score(atomic.LoadUint32(&e.hits)+1, e.deg, int(k>>32))
		if best == nil || sc < bestS {
			bk, best, bestS = k, e, sc
		}
		if n++; n >= evictSample {
			break
		}
	}
	return bk, best
}

// Version returns the cache's current model version.
func (c *Cache) Version() uint64 {
	if c == nil {
		return 0
	}
	return c.version.Load()
}

// InvalidateTo flushes every resident row and moves the cache to model
// version ver — the wholesale invalidation a checkpoint reload performs.
// The version is published before the sweep, so concurrent Gets and Puts
// carrying the old version are rejected from the first moment any new
// parameters could be in use.
func (c *Cache) InvalidateTo(ver uint64) {
	if c == nil {
		return
	}
	c.version.Store(ver)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.bytes = 0
		s.mu.Unlock()
	}
	c.sketch.reset()
	c.flushes.Add(1)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits, Misses      uint64
	Admitted, Evicted uint64
	Rejected, Flushes uint64
	Bytes             int64 // resident bytes (rows + per-entry overhead)
	Entries           int
	Capacity          int64 // configured byte budget
}

// Snapshot returns the current counters; nil-safe (all zeros).
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Admitted: c.admitted.Load(),
		Evicted:  c.evicted.Load(),
		Rejected: c.rejected.Load(),
		Flushes:  c.flushes.Load(),
		Capacity: c.budget,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Bytes += s.bytes
		st.Entries += len(s.m)
		s.mu.RUnlock()
	}
	return st
}

// sketch is a small count-min sketch over candidate keys: four rows of
// atomic counters with independent hash salts. It only has to separate
// the popular head from the one-shot tail, so it is deliberately tiny
// (4 × 2048 × 4 bytes) and approximate; over-estimates merely admit a
// borderline row the exact policy would have skipped.
type sketch struct {
	rows [4][]uint32
	adds atomic.Uint64
}

const sketchWidth = 2048

func (t *sketch) init() {
	for i := range t.rows {
		t.rows[i] = make([]uint32, sketchWidth)
	}
}

var sketchSalts = [4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d}

func (t *sketch) slot(row int, k uint64) *uint32 {
	h := (k ^ sketchSalts[row]) * 0x9e3779b97f4a7c15
	return &t.rows[row][h>>48&(sketchWidth-1)]
}

// add feeds one miss into the sketch and reports whether this call
// performed the periodic aging sweep, so the cache can decay resident
// hit counters on the same cadence.
func (t *sketch) add(k uint64) bool {
	for i := range t.rows {
		atomic.AddUint32(t.slot(i, k), 1)
	}
	// TinyLFU-style aging: periodically halve every counter so stale
	// popularity decays. The halving races with concurrent adds; the
	// sketch is approximate by construction, so a lost increment is fine.
	if t.adds.Add(1)%(sketchWidth*8) != 0 {
		return false
	}
	for i := range t.rows {
		for j := range t.rows[i] {
			v := atomic.LoadUint32(&t.rows[i][j])
			atomic.StoreUint32(&t.rows[i][j], v/2)
		}
	}
	return true
}

func (t *sketch) estimate(k uint64) uint32 {
	min := atomic.LoadUint32(t.slot(0, k))
	for i := 1; i < len(t.rows); i++ {
		if v := atomic.LoadUint32(t.slot(i, k)); v < min {
			min = v
		}
	}
	return min
}

func (t *sketch) reset() {
	for i := range t.rows {
		for j := range t.rows[i] {
			atomic.StoreUint32(&t.rows[i][j], 0)
		}
	}
}
