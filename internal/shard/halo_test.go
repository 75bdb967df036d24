package shard

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"wisegraph/internal/graph"
)

// Feature rows stay home: level 0 is not expanded, cached or shipped for
// the shard that holds it. These tests watch the requests themselves.

// haloRecord is what a fleet's replicas were asked, as far as the contract
// constrains it.
type haloRecord struct {
	mu          sync.Mutex
	level0Calls int
	level0Verts []int32 // the vertices of every level-0 Expand
	level1      []level1Call
}

type level1Call struct {
	shard int
	in    []int32
	rows  int // len(ComputeArgs.Rows)
}

// recordConn notes every request on its way to a replica, the way
// faultConn sits in front of one.
type recordConn struct {
	Conn
	shard int
	rec   *haloRecord
}

func (c *recordConn) Expand(ctx context.Context, a *ExpandArgs) (*ExpandReply, error) {
	if a.Level == 0 {
		c.rec.mu.Lock()
		c.rec.level0Calls++
		c.rec.level0Verts = append(c.rec.level0Verts, a.Verts...)
		c.rec.mu.Unlock()
	}
	return c.Conn.Expand(ctx, a)
}

func (c *recordConn) Compute(ctx context.Context, a *ComputeArgs) (*ComputeReply, error) {
	if a.Level == 1 {
		c.rec.mu.Lock()
		c.rec.level1 = append(c.rec.level1, level1Call{c.shard, slices.Clone(a.In), len(a.Rows)})
		c.rec.mu.Unlock()
	}
	return c.Conn.Compute(ctx, a)
}

// haloByDefinition derives, from the sampler alone, the vertices whose
// feature row an uncached forward for seeds must move between shards: u is
// one when some level-1 target owned by another shard is u's sampled
// destination.
func haloByDefinition(f *Fleet, seeds []int32) map[int32]bool {
	L := len(f.cfg.Fanouts)
	owner := func(v int32) int {
		s, _ := slices.BinarySearch(f.bounds[1:], v+1)
		return s
	}
	reads := func(v int32, level int) []int32 {
		out := []int32{v}
		for _, slot := range graph.DetSample(nil, f.csr, v, f.cfg.Fanouts[L-level], f.cfg.Seed) {
			out = append(out, f.csr.Col[slot])
		}
		return out
	}
	cur := map[int32]bool{}
	for _, v := range seeds {
		cur[v] = true
	}
	for l := L; l >= 2; l-- {
		next := map[int32]bool{}
		for v := range cur {
			for _, u := range reads(v, l) {
				next[u] = true
			}
		}
		cur = next
	}
	halo := map[int32]bool{}
	for v := range cur {
		for _, u := range reads(v, 1) {
			if owner(u) != owner(v) {
				halo[u] = true
			}
		}
	}
	return halo
}

// TestLevel1GathersOwnedFeatures: at any shard count, cache on or off, the
// logits are the single node's bit for bit; a one-shard fleet issues no
// level-0 Expand at all and one RPC fewer per batch; at N shards the
// level-0 Expands name exactly the halo, each vertex once, every level-1
// Compute carries exactly its own halo's rows, and nothing of level 0 is
// ever resident in a cache.
func TestLevel1GathersOwnedFeatures(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	// Overlapping batches, so a cached fleet serves later ones partly from
	// hits and its level-1 blocks shrink.
	batches := [][]int32{{0, 13, 50, 99}, {0, 1, 2, 13, 97}, {13, 50}, {0, 13, 50, 99}}
	single := testFleet(t, g, 1, 1, 0)
	var want [][]float32
	for _, seeds := range batches {
		want = append(want, forwardData(t, single, seeds))
	}
	const dim, layers = 8, 2

	for _, shards := range []int{1, 2, 3} {
		for _, budget := range []int64{0, 1 << 20} {
			f := testFleet(t, g, shards, 2, budget)
			rec := &haloRecord{}
			for s := range f.conns {
				f.conns[s][0] = &recordConn{Conn: f.conns[s][0], shard: s, rec: rec}
			}
			rpcs := func() (n uint64) {
				for _, st := range f.Stats() {
					n += st.RPCs
				}
				return n
			}
			sawHalo := false
			for bi, seeds := range batches {
				*rec = haloRecord{}
				before := rpcs()
				got := forwardData(t, f, seeds)
				if !slices.Equal(got, want[bi]) {
					t.Fatalf("shards=%d budget=%d batch %d: logits differ from the single node", shards, budget, bi)
				}

				// What the requests say the halo is.
				halo := map[int32]bool{}
				for _, c := range rec.level1 {
					lo, hi := f.bounds[c.shard], f.bounds[c.shard+1]
					n := 0
					for _, v := range c.in {
						if v < lo || v >= hi {
							halo[v] = true
							n++
						}
					}
					if c.rows != n*dim {
						t.Fatalf("shards=%d budget=%d batch %d: level-1 Compute to shard %d carries %d row elements for a halo of %d × dim %d (input set %d)",
							shards, budget, bi, c.shard, c.rows, n, dim, len(c.in))
					}
				}
				fetched := map[int32]bool{}
				for _, v := range rec.level0Verts {
					if fetched[v] || !halo[v] {
						t.Fatalf("shards=%d budget=%d batch %d: level-0 Expand of vertex %d, which is fetched twice or in no job's halo", shards, budget, bi, v)
					}
					fetched[v] = true
				}
				if len(fetched) != len(halo) {
					t.Fatalf("shards=%d budget=%d batch %d: %d vertices fetched at level 0, halo is %d", shards, budget, bi, len(fetched), len(halo))
				}
				sawHalo = sawHalo || len(halo) > 0

				if budget == 0 {
					if def := haloByDefinition(f, seeds); !maps.Equal(def, halo) {
						t.Fatalf("shards=%d batch %d: halo of %d vertices on the wire, %d by the sampler's definition", shards, bi, len(halo), len(def))
					}
				}
				if shards == 1 {
					if rec.level0Calls != 0 {
						t.Fatalf("budget=%d batch %d: %d level-0 Expands at one shard", budget, bi, rec.level0Calls)
					}
					// Uncached: one Expand and one Compute per layer, nothing for level 0.
					if n := rpcs() - before; budget == 0 && n != 2*layers {
						t.Fatalf("batch %d: %d RPCs at one shard, want %d", bi, n, 2*layers)
					}
				}
			}
			if shards > 1 && !sawHalo {
				t.Fatalf("shards=%d: no batch read across a shard boundary — the halo path never ran", shards)
			}
			// The cache holds computed rows only.
			row := make([]float32, dim)
			for _, group := range f.shards {
				for _, s := range group {
					if budget > 0 && s.cache.Snapshot().Entries == 0 {
						t.Fatalf("shards=%d: shard %d cached nothing", shards, s.id)
					}
					for v := int32(0); int(v) < g.NumVertices; v++ {
						if s.cache.Get(0, 0, v, row) {
							t.Fatalf("shards=%d: shard %d holds vertex %d's feature row as a level-0 cache entry", shards, s.id, v)
						}
					}
				}
			}
		}
	}
}

// TestComputeRejectsWrongHaloRows: a level-1 request must carry rows for
// exactly the input ids the shard does not own. Too few, none, or every
// row of the input set (what protocol 2 sent) is an application error —
// in-process and over a TCP daemon — the connection stays healthy, and the
// next valid reply is unchanged.
func TestComputeRejectsWrongHaloRows(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig(),
		[]string{startDaemon(t, n, n.model), startDaemon(t, n, n.model)})
	if err != nil {
		t.Fatalf("NewRemoteFleet: %v", err)
	}
	t.Cleanup(remote.Close)
	cfg := fleetConfig()
	cfg.Shards = 2
	local, err := NewFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(local.Close)

	// A level-1 request to span 0: its first two vertices and their sampled
	// sources, some of which span 1 owns.
	lo, hi := local.bounds[0], local.bounds[1]
	verts := []int32{lo, lo + 1}
	in := slices.Clone(verts)
	for _, v := range verts {
		for _, slot := range graph.DetSample(nil, n.csr, v, cfg.Fanouts[1], cfg.Seed) {
			in = append(in, n.csr.Col[slot])
		}
	}
	slices.Sort(in)
	in = slices.Compact(in)
	var halo, whole []float32
	for _, v := range in {
		whole = append(whole, n.feats.Row(int(v))...)
		if v < lo || v >= hi {
			halo = append(halo, n.feats.Row(int(v))...)
		}
	}
	if len(halo) < 2*8 || len(halo) == len(whole) {
		t.Fatalf("input set %v has %d halo rows outside [%d,%d); the test needs some owned and at least two not", in, len(halo)/8, lo, hi)
	}
	args := func(rows []float32) *ComputeArgs {
		return &ComputeArgs{Level: 1, InDim: 8, OutDim: 8, Verts: verts, In: in, Rows: rows}
	}

	ctx := context.Background()
	var first []float32
	for _, c := range []struct {
		name string
		conn Conn
	}{{"in-process", local.conns[0][0]}, {"tcp", remote.conns[0][0]}} {
		want, err := c.conn.Compute(ctx, args(halo))
		if err != nil {
			t.Fatalf("%s: valid request: %v", c.name, err)
		}
		if first == nil {
			first = want.Rows
		} else if !slices.Equal(want.Rows, first) {
			t.Fatalf("%s: reply differs from the in-process shard's", c.name)
		}
		for _, bad := range []struct {
			name string
			rows []float32
		}{
			{"one row short", halo[:len(halo)-8]},
			{"no rows", nil},
			{"one row over", append(slices.Clone(halo), make([]float32, 8)...)},
			{"every input row", whole},
		} {
			_, err := c.conn.Compute(ctx, args(bad.rows))
			if err == nil || !strings.Contains(err.Error(), "halo row elements") {
				t.Fatalf("%s: %s: err = %v, want a halo-size rejection", c.name, bad.name, err)
			}
			var te *TransportError
			if errors.As(err, &te) {
				t.Fatalf("%s: %s: rejection surfaced as a transport error: %v", c.name, bad.name, err)
			}
		}
		got, err := c.conn.Compute(ctx, args(halo))
		if err != nil {
			t.Fatalf("%s: valid request after rejections: %v", c.name, err)
		}
		if !slices.Equal(got.Rows, want.Rows) {
			t.Fatalf("%s: reply changed after rejected requests", c.name)
		}
	}
}
