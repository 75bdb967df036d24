package shard

import (
	"context"
	"time"

	"wisegraph/internal/fault"
)

// faultConn is the shard.rpc fault site: a Conn decorator every fleet
// wraps around every replica endpoint, in-process and TCP alike, so an
// injected fault reaches the router as what a real one would be — a
// TransportError from the conn — and climbs the same ladder. With no
// schedule installed a call costs the one atomic load in fault.Check.
//
//   - error: the request is lost; the inner conn is never called.
//   - corrupt: the inner conn does the work and the reply is discarded.
//   - latency: the inner conn does the work and the caller really waits
//     until Delay after the start of the call. At or past timeout the
//     timer fires at timeout, in the TransportError{Timeout: true} that
//     tcpConn.roundTrip reports for a stalled daemon. A hedged loser
//     stops waiting when ctx is canceled.
type faultConn struct {
	Conn
	addr    string // the daemon's address, "span/replica" in-process
	timeout time.Duration
}

// Expand implements Conn.
func (c *faultConn) Expand(ctx context.Context, args *ExpandArgs) (*ExpandReply, error) {
	return faulted(ctx, c, func() (*ExpandReply, error) { return c.Conn.Expand(ctx, args) })
}

// Compute implements Conn.
func (c *faultConn) Compute(ctx context.Context, args *ComputeArgs) (*ComputeReply, error) {
	return faulted(ctx, c, func() (*ComputeReply, error) { return c.Conn.Compute(ctx, args) })
}

// faulted runs call, the real RPC, under the schedule's draw for it.
func faulted[R any](ctx context.Context, c *faultConn, call func() (*R, error)) (*R, error) {
	flt := fault.Check(fault.SiteShardRPC)
	if flt == nil {
		return call()
	}
	lost := &TransportError{Addr: c.addr, Err: flt.Err()}
	if flt.Kind == fault.KindError {
		return nil, lost
	}
	start := time.Now()
	rep, err := call()
	if err != nil {
		return nil, err
	}
	if flt.Kind == fault.KindCorrupt {
		return nil, lost
	}
	wait := time.NewTimer(min(flt.Delay, c.timeout) - time.Since(start))
	defer wait.Stop()
	select {
	case <-wait.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if flt.Delay >= c.timeout {
		lost.Timeout = true
		return nil, lost
	}
	return rep, nil
}
