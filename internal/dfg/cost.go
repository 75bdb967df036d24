package dfg

// Workload is the cost-model output for a DFG or node (paper §6.3): the
// floating-point work, the device-memory traffic, and the smallest
// leading-dimension row count among neural ops (a proxy for available
// parallelism).
type Workload struct {
	FLOPs float64
	Bytes float64
	// NeuralFLOPs / IndexBytes split the totals by op class for the
	// Figure 3(b)/17 breakdowns.
	NeuralFLOPs float64
	IndexBytes  float64
	// MinParallel is the smallest row count over non-input nodes — low
	// values mean the plan cannot fill the device.
	MinParallel int
}

// Add accumulates o into w.
func (w *Workload) Add(o Workload) {
	w.FLOPs += o.FLOPs
	w.Bytes += o.Bytes
	w.NeuralFLOPs += o.NeuralFLOPs
	w.IndexBytes += o.IndexBytes
	if o.MinParallel > 0 && (w.MinParallel == 0 || o.MinParallel < w.MinParallel) {
		w.MinParallel = o.MinParallel
	}
}

const bytesPerElem = 4 // float32

// NodeCost prices a single node against gTask stats.
func NodeCost(n *Node, s TaskStats) Workload {
	rows := n.Rows.Resolve(s)
	inner := n.InnerSize()
	out := float64(rows * inner * bytesPerElem)
	var w Workload
	switch n.Kind {
	case OpInput:
		return Workload{} // inputs are priced by their consumers' reads
	case OpIndex, OpIndex2D:
		// read gathered rows + the index array, write output
		b := 2*out + float64(rows*bytesPerElem)
		w = Workload{Bytes: b, IndexBytes: b, MinParallel: rows}
	case OpIndexAdd:
		inRows := n.Inputs[0].Rows.Resolve(s)
		inBytes := float64(inRows * inner * bytesPerElem)
		// read input rows + index, read-modify-write output rows
		b := inBytes + float64(inRows*bytesPerElem) + 2*out
		w = Workload{Bytes: b, IndexBytes: b, FLOPs: float64(inRows * inner), MinParallel: inRows}
	case OpLinear:
		f := n.Inputs[0].InnerSize()
		fp := inner
		fl := 2 * float64(rows) * float64(f) * float64(fp)
		b := float64(rows*f*bytesPerElem) + float64(f*fp*bytesPerElem) + out
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: b, MinParallel: rows}
	case OpBMM:
		f := n.Inputs[0].InnerSize()
		fp := inner
		fl := 2 * float64(rows) * float64(f) * float64(fp)
		// per-row weight read is the tensor-centric redundancy: rows×F×F'
		b := float64(rows*f*bytesPerElem) + float64(rows*f*fp*bytesPerElem) + out
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: b, MinParallel: rows}
	case OpOuterMM:
		m := n.Inputs[0].Rows.Resolve(s)
		nW := n.Inputs[1].Rows.Resolve(s)
		f := n.Inputs[0].InnerSize()
		fp := inner
		fl := 2 * float64(m) * float64(nW) * float64(f) * float64(fp)
		b := float64(m*f*bytesPerElem) + float64(nW*f*fp*bytesPerElem) + float64(m*nW*fp*bytesPerElem)
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: b, MinParallel: m * nW}
	case OpEWAdd, OpEWMul:
		fl := float64(rows * inner)
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: 3 * out, MinParallel: rows}
	case OpReLU, OpLeakyReLU, OpTanh, OpSigmoid:
		fl := float64(rows * inner)
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: 2 * out, MinParallel: rows}
	case OpSegmentSoftmax:
		// max, exp, sum and scale per element
		fl := float64(4 * rows * inner)
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: 2 * out, MinParallel: rows}
	case OpScale:
		fl := float64(rows * inner)
		wb := float64(rows * n.Inputs[1].InnerSize() * bytesPerElem)
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: 2*out + wb, MinParallel: rows}
	case OpLSTM:
		// every input row is one cell step: x·Wx + h·Wh over 4 gates
		inRows, f := n.Inputs[0].Rows.Resolve(s), n.Inputs[0].InnerSize()
		weights := float64((f + inner) * 4 * inner)
		fl := 2 * float64(inRows) * weights
		b := float64(inRows*f*bytesPerElem) + weights*bytesPerElem + out
		w = Workload{FLOPs: fl, NeuralFLOPs: fl, Bytes: b, MinParallel: rows}
	}
	return w
}

// Cost prices the whole DFG against gTask stats.
func (g *Graph) Cost(s TaskStats) Workload {
	var w Workload
	for _, n := range g.Nodes {
		w.Add(NodeCost(n, s))
	}
	return w
}
