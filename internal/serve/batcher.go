package serve

import "runtime"

// batcher is the dynamic micro-batching state machine. It has three
// states:
//
//	idle     — no pending request: block until one arrives (or drain).
//	filling  — a batch is open: keep taking queued requests until it
//	           reaches BatchCap or no batch is running, whichever comes
//	           first. While any batch runs, the open one keeps filling;
//	           the moment the last one finishes, it goes. Before a partial
//	           batch leaves an idle engine the batcher yields once, so
//	           submitters that are already runnable join it.
//	draining — stop is closed: flush everything still queued into final
//	           batches immediately, then close the dispatch channel so
//	           workers exit after the last batch.
//
// There is no timer: a batch waits only for work that is already running.
// The batcher is the only goroutine that reads the admission queue and the
// only writer of the dispatch channel; the running count is the one piece
// of state it shares with the workers. Backpressure comes from the dispatch
// channel's Workers-sized buffer: with every worker busy and the buffer
// full the batcher blocks in dispatch, which lets the admission queue fill
// and shed.
func (e *Engine) batcher() {
	defer close(e.batches)
	for {
		// idle: wait for the request that opens the next batch.
		var first *request
		select {
		case first = <-e.queue:
		case <-e.stop:
			e.flush(nil)
			return
		}

		// filling: coalesce until full, nothing running, or drain.
		batch := append(make([]*request, 0, e.opts.BatchCap), first)
		stopping, yielded := false, false
	fill:
		for len(batch) < e.opts.BatchCap {
			select {
			case r := <-e.queue:
				batch = append(batch, r)
				continue
			default:
			}
			if e.running.Load() == 0 {
				if yielded {
					break fill
				}
				// On one P the callers the last batch just answered are
				// runnable but not yet queued again; without this yield the
				// serve-uniform benchmark's mean batch fell from 13.5
				// requests to 2.2.
				runtime.Gosched()
				yielded = true
				continue
			}
			select {
			case r := <-e.queue:
				batch = append(batch, r)
			case <-e.idle: // the last running batch finished: re-check
			case <-e.stop:
				stopping = true
				break fill
			}
		}
		if stopping {
			e.flush(batch)
			return
		}
		e.dispatch(batch)
	}
}

// dispatch counts a batch as running and hands it to the workers; the
// worker that finishes it uncounts it.
func (e *Engine) dispatch(batch []*request) {
	e.running.Add(1)
	e.batches <- batch
}

// flush drains every request still in the admission queue into final
// batches (plus the partially filled one handed in) and dispatches them.
// Admission is already closed by the time stop is closed — Shutdown flips
// the draining flag under the write lock first — so the queue can only
// shrink here.
func (e *Engine) flush(batch []*request) {
	for {
		select {
		case r := <-e.queue:
			batch = append(batch, r)
			if len(batch) == e.opts.BatchCap {
				e.dispatch(batch)
				batch = nil
			}
		default:
			if len(batch) > 0 {
				e.dispatch(batch)
			}
			return
		}
	}
}
