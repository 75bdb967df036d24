package shard

import (
	"context"

	"wisegraph/internal/shard/wire"
)

// The RPC surface between the router and one shard. The interface is
// deliberately transport-shaped — plain-old-data requests in, plain-old-
// data replies out, no shared mutable state: a request's slices are only
// read by the shard, a reply's slices belong to the caller — and there
// are two transports behind it: the Shard itself (in-process, a direct
// call) and tcpConn (the internal/shard/wire binary protocol over a
// socket, shards running as separate processes). Numerics never depend
// on which the router holds.
//
// Both calls are idempotent pure functions of (request, model version):
// Expand and Compute derive everything from the shard's frozen graph
// slice and feature rows, the deterministic sampler and the shipped input
// rows. That is
// what makes the router's hedging ladder numerics-preserving — a hedged
// duplicate computes exactly the bytes the abandoned attempt would have —
// and what makes retrying a broken connection on the TCP transport safe.

// The message types are defined in internal/shard/wire (they ARE the wire
// protocol); aliased here so the router and shard logic keep their
// natural names.
type (
	// ExpandArgs asks a shard to resolve one level's owned vertex span.
	ExpandArgs = wire.ExpandArgs
	// ExpandReply carries per-vertex hit rows or sampled source lists.
	ExpandReply = wire.ExpandReply
	// ComputeArgs asks a shard to run one layer for its owned targets.
	ComputeArgs = wire.ComputeArgs
	// ComputeReply returns the computed rows.
	ComputeReply = wire.ComputeReply
)

// Conn is one shard's RPC endpoint as the router sees it. The context
// carries hedged-read cancellation: when another replica answers first,
// the router cancels the losers, and a transport may use that to stop
// waiting (the in-process transport gives up waiting for a free worker;
// the TCP transport frees its in-flight window slot — the late reply is
// dropped by the demux).
type Conn interface {
	// Expand probes the shard's per-layer cache for the given owned
	// vertices and samples the in-frontier of the misses; at level 0 it
	// returns their feature rows.
	Expand(ctx context.Context, args *ExpandArgs) (*ExpandReply, error)
	// Compute runs one model layer for the given owned target vertices
	// over shipped lower-level input rows — at level 1, over the shard's
	// own feature rows plus the shipped halo.
	Compute(ctx context.Context, args *ComputeArgs) (*ComputeReply, error)
}

// Expand implements Conn in-process: the call runs on the caller's
// goroutine, on a worker state checked out for its duration.
func (s *Shard) Expand(ctx context.Context, args *ExpandArgs) (*ExpandReply, error) {
	w, err := s.checkout(ctx)
	if err != nil {
		return nil, err
	}
	defer s.checkin(w)
	return s.handleExpand(ctx, w, args)
}

// Compute implements Conn in-process.
func (s *Shard) Compute(ctx context.Context, args *ComputeArgs) (*ComputeReply, error) {
	w, err := s.checkout(ctx)
	if err != nil {
		return nil, err
	}
	defer s.checkin(w)
	return s.handleCompute(ctx, w, args)
}
