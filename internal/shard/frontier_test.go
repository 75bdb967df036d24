package shard

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// The router's frontier union and the request path's sorted blocks: the
// bitmap drains exactly sort(dedup(ids)) and goes back to the pool empty,
// concurrent and failed forwards leave no trace in the next one, every
// Compute block already arrives in a dst-keyed plan's order, and an
// Expand reply's source lists share one buffer.

// frontierZero reports whether every word of fr is zero.
func frontierZero(fr *frontier) bool {
	for _, w := range fr.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestFrontierUnionParity: marking any id list and draining it equals
// sorting and compacting the list, at the word edges too, and leaves the
// bitmap zero for the next taker.
func TestFrontierUnionParity(t *testing.T) {
	const v = 200 // four words, the last one partial
	f := testFleet(t, testGraph(t, v, 800, 9), 1, 1, 0)
	rng := tensor.NewRNG(17)
	lists := [][]int32{
		nil,
		{0},
		{v - 1},
		{63, 64, 0, 63, v - 1, 64, 127, 128},
		{5, 5, 5, 5},
	}
	for n := 1; n <= 400; n *= 3 {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(rng.Intn(v / 4)) // dense, so duplicates are common
		}
		lists = append(lists, ids)
	}
	for _, ids := range lists {
		want := slices.Clone(ids)
		slices.Sort(want)
		want = slices.Compact(want)
		fr := f.frontier()
		if !frontierZero(fr) {
			t.Fatalf("pool handed out a non-empty frontier before %v", ids)
		}
		for _, id := range ids {
			fr.mark(id)
		}
		got := fr.drain(nil)
		if !slices.Equal(got, want) {
			t.Fatalf("drain of %v = %v, want %v", ids, got, want)
		}
		if !frontierZero(fr) {
			t.Fatalf("frontier not zero after draining %v", ids)
		}
		f.frontiers.Put(fr)
	}
}

// forwardOrErr runs one Forward and returns a copy of its logits.
func forwardOrErr(f *Fleet, seeds []int32) ([]float32, error) {
	id := obs.NewID()
	out, _, err := f.Forward(id, 0, seeds, obs.Begin(obs.StageSample, id))
	if err != nil {
		return nil, err
	}
	defer tensor.Put(out)
	return slices.Clone(out.Data()), nil
}

// TestConcurrentForwardParity: forwards racing over one 2-shard, 2-worker
// fleet — overlapping seeds, so their frontiers share vertices and pooled
// bitmaps pass between them — return the serial logits bit for bit.
func TestConcurrentForwardParity(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	batches := [][]int32{
		{0, 13, 50, 99}, {13, 14, 50, 51}, {1, 2, 3, 99}, {50, 60, 70, 80},
		{0, 1, 13, 14}, {99, 98, 97, 0}, {7, 50, 13, 21}, {3, 60, 98, 1},
	}
	serial := testFleet(t, g, 2, 2, 0)
	want := make([][]float32, len(batches))
	for i, seeds := range batches {
		var err error
		if want[i], err = forwardOrErr(serial, seeds); err != nil {
			t.Fatalf("serial batch %d: %v", i, err)
		}
	}
	f := testFleet(t, g, 2, 2, 0)
	const rounds = 3
	errs := make(chan error, rounds*len(batches))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, seeds := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := forwardOrErr(f, seeds)
				switch {
				case err != nil:
					errs <- err
				case !slices.Equal(got, want[i]):
					errs <- fmt.Errorf("batch %d: concurrent logits differ from serial", i)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// bytesBooked sums the router's request and reply bytes over every span.
func bytesBooked(f *Fleet) (in, out uint64) {
	for _, st := range f.Stats() {
		in += st.BytesIn
		out += st.BytesOut
	}
	return in, out
}

// TestForwardAfterBadReplyParity: a forward that fails at its deepest
// union — a malformed halo reply, after every level's frontier has been
// drained — leaves nothing behind: the next forward on the same fleet
// returns the reference logits and ships exactly the reference bytes, so
// no stale vertex rode along in a level set.
func TestForwardAfterBadReplyParity(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}
	ref := testFleet(t, g, 2, 1, 0)
	want, err := forwardOrErr(ref, seeds)
	if err != nil {
		t.Fatalf("reference Forward: %v", err)
	}
	wantIn, wantOut := bytesBooked(ref)

	f := testFleet(t, g, 2, 1, 0)
	var mangle atomic.Bool
	mangle.Store(true)
	f.conns[0][0] = &mangleConn{Conn: f.conns[0][0], expand: func(a *ExpandArgs, r *ExpandReply) {
		if mangle.Load() && a.Level == 0 {
			r.Rows = append(r.Rows, 0)
		}
	}}
	if _, err := forwardOrErr(f, seeds); err == nil || !strings.Contains(err.Error(), "malformed reply") {
		t.Fatalf("mangled Forward error = %v, want a malformed-reply error", err)
	}
	mangle.Store(false)
	in0, out0 := bytesBooked(f)
	got, err := forwardOrErr(f, seeds)
	if err != nil {
		t.Fatalf("Forward after the failed one: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("logits after a failed Forward differ from the reference")
	}
	if in1, out1 := bytesBooked(f); in1-in0 != wantIn || out1-out0 != wantOut {
		t.Fatalf("Forward after a failed one booked %d/%d bytes in/out, reference %d/%d",
			in1-in0, out1-out0, wantIn, wantOut)
	}
}

// computeLog records every Compute request on its way to a replica.
type computeLog struct {
	Conn
	shard int
	mu    *sync.Mutex
	args  *[]shardArgs
}

type shardArgs struct {
	shard int
	args  *ComputeArgs
}

func (c *computeLog) Compute(ctx context.Context, a *ComputeArgs) (*ComputeReply, error) {
	c.mu.Lock()
	*c.args = append(*c.args, shardArgs{c.shard, a})
	c.mu.Unlock()
	return c.Conn.Compute(ctx, a)
}

// TestComputeBlocksArriveInDstOrder counts how often a Compute block is
// already in a dst-keyed plan's order — every time: handleCompute emits
// targets ascending with each one's edges contiguous, so the partitioner
// reuses the identity order without sorting, at every level and shard.
// And the partition handleCompute reads off the block's row pointers under
// a destination-batch plan is core.PartitionGraph's, field for field.
func TestComputeBlocksArriveInDstOrder(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	f := testFleet(t, g, 2, 1, 0)
	var mu sync.Mutex
	var seen []shardArgs
	for s := range f.conns {
		f.conns[s][0] = &computeLog{Conn: f.conns[s][0], shard: s, mu: &mu, args: &seen}
	}
	for _, seeds := range [][]int32{{0, 13, 50, 99}, {1, 2, 3, 4, 5, 6, 7, 8}, {60, 70, 80, 90}} {
		if _, err := forwardOrErr(f, seeds); err != nil {
			t.Fatalf("Forward %v: %v", seeds, err)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no Compute request recorded")
	}
	plans := []core.GraphPlan{
		core.VertexCentric(),
		{Name: "dst-batch-32", Restrictions: []core.Restriction{{Attr: core.AttrDstID, Kind: core.Exact, Limit: 32}}},
		{Name: "dst-batch-2", Restrictions: []core.Restriction{{Attr: core.AttrDstID, Kind: core.Exact, Limit: 2}}},
	}
	stat := []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}
	for _, rec := range seen {
		s := f.shards[rec.shard][0]
		w := <-s.free
		if err := w.index(rec.args.In); err != nil {
			t.Fatalf("index: %v", err)
		}
		blk, err := s.block(w, rec.args)
		if err != nil {
			s.free <- w
			t.Fatalf("block: %v", err)
		}
		var borns []*core.Partition
		for _, plan := range plans {
			borns = append(borns, w.pt.PartitionRows(blk, plan, stat, w.rowPtr))
		}
		s.free <- w
		if !slices.IsSorted(blk.Dst) {
			t.Fatalf("shard %d level %d block's destinations are not ascending", rec.shard, rec.args.Level)
		}
		for pi, plan := range plans {
			part := core.PartitionGraph(blk, plan, stat)
			for i, e := range part.Order {
				if e != int32(i) {
					t.Fatalf("shard %d level %d under %s: order[%d] = %d, the block was not in key order",
						rec.shard, rec.args.Level, plan, i, e)
				}
			}
			if !reflect.DeepEqual(borns[pi], part) {
				t.Fatalf("shard %d level %d under %s: born partition\n %+v\nwant\n %+v",
					rec.shard, rec.args.Level, plan, borns[pi], part)
			}
		}
	}
}

// TestExpandAllocsFlat: an Expand reply's source lists are sub-slices of
// one buffer sized to its misses, so the handler's allocation count does
// not grow with the vertex count, and a fully-hit Expand allocates no
// source buffer at all.
func TestExpandAllocsFlat(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	f := testFleet(t, g, 1, 1, 1<<20)
	s := f.shards[0][0]
	w := <-s.free
	defer func() { s.free <- w }()
	const level = 2
	dim := s.dims[level]
	var few, many []int32
	for v := int32(0); v < 100 && len(many) < 64; v++ {
		if s.degree(v) > 0 {
			many = append(many, v)
		}
	}
	few = many[:4]
	allocs := func(verts []int32) float64 {
		a := &ExpandArgs{Level: level, Dim: dim, Verts: verts}
		return testing.AllocsPerRun(20, func() {
			if _, err := s.handleExpand(context.Background(), w, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	missFew, missMany := allocs(few), allocs(many)
	if missFew != missMany {
		t.Fatalf("all-miss Expand allocates %v times for %d vertices, %v for %d", missFew, len(few), missMany, len(many))
	}
	row := make([]float32, dim)
	for _, v := range many {
		if !s.cache.Put(0, level, v, s.degree(v), row) {
			t.Fatalf("cache refused vertex %d", v)
		}
	}
	rep, err := s.handleExpand(context.Background(), w, &ExpandArgs{Level: level, Dim: dim, Verts: many})
	if err != nil {
		t.Fatal(err)
	}
	for i, srcs := range rep.Srcs {
		if !rep.Hit[i] || srcs != nil {
			t.Fatalf("vertex %d: hit=%v with %d sources after caching every vertex", many[i], rep.Hit[i], len(srcs))
		}
	}
	if hitMany := allocs(many); hitMany != missMany-1 {
		t.Fatalf("fully-hit Expand allocates %v times, all-miss %v: want exactly the source buffer fewer", hitMany, missMany)
	}
}
