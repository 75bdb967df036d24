package train

import (
	"sync"

	"wisegraph/internal/core"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// PreparedBatch is a mini-batch with all CPU-side work done: the sampled
// subgraph, its features/labels, and the gTask partition under the tuned
// plan — everything the accelerator-side step consumes.
type PreparedBatch struct {
	Sub    *graph.Subgraph
	X      *tensor.Tensor
	Labels []int32
	Mask   []int32
	Part   *core.Partition
}

// Pipeline overlaps sampling and gTask partitioning with training on CPU
// worker goroutines — the asynchronous execution of paper Figure 21(b):
// the tuned plan is reused for every subgraph, so per-batch CPU work is
// one O(E) partition that hides under the training step.
type Pipeline struct {
	batches chan *PreparedBatch
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
}

// NewPipeline starts workers sampler goroutines feeding a buffered queue
// of depth prepared batches. Each worker samples independent mini-batches
// (seeds strided across the training set, per-worker RNG streams) and
// partitions them under plan's graph partition plan.
func NewPipeline(s *Sampled, plan *joint.Result, workers, depth int) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	if depth < workers {
		depth = workers
	}
	p := &Pipeline{
		batches: make(chan *PreparedBatch, depth),
		stop:    make(chan struct{}),
	}
	if len(s.DS.TrainMask) == 0 {
		// No training vertices to sample seeds from: return a closed,
		// empty pipeline instead of letting workers divide by zero.
		p.Close()
		return p
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			rng := tensor.NewRNG(uint64(w)*0x9e3779b97f4a7c15 + 0x51)
			pt := core.NewPartitioner()
			defer pt.Release()
			cursor := w * s.BatchSize % len(s.DS.TrainMask)
			for {
				seeds := make([]int32, 0, s.BatchSize)
				for len(seeds) < s.BatchSize {
					seeds = append(seeds, s.DS.TrainMask[cursor])
					cursor = (cursor + workers) % len(s.DS.TrainMask)
				}
				id := obs.NewID()
				sp := obs.Begin(obs.StageSample, id)
				sub := graph.NeighborSample(s.DS.Graph, s.csr, seeds, s.Fanouts, rng)
				sp.End()
				b := s.prepare(id, pt, plan, sub)
				select {
				case p.batches <- b:
				case <-p.stop:
					return
				}
			}
		}(w)
	}
	return p
}

// Next blocks for the next prepared batch (nil after Close).
func (p *Pipeline) Next() *PreparedBatch {
	select {
	case b := <-p.batches:
		return b
	case <-p.stop:
		// drain anything already queued so Close never loses a batch
		select {
		case b := <-p.batches:
			return b
		default:
			return nil
		}
	}
}

// Close stops the workers and waits for them to exit. Safe to call more
// than once.
func (p *Pipeline) Close() {
	p.once.Do(func() {
		close(p.stop)
		// unblock workers stuck on a full queue
		go func() {
			for range p.batches {
			}
		}()
		p.wg.Wait()
		close(p.batches)
	})
}

// TrainPipelined runs iters training steps consuming the pipeline,
// returning the per-iteration losses. It is the overlapped counterpart of
// TrainSerial.
func (s *Sampled) TrainPipelined(plan *joint.Result, workers, iters int) []float64 {
	p := NewPipeline(s, plan, workers, 2*workers)
	defer p.Close()
	losses := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		b := p.Next()
		if b == nil {
			break
		}
		id := obs.NewID()
		st := obs.Begin(obs.StageStep, id)
		losses = append(losses, s.step(id, b))
		st.End()
	}
	return losses
}
