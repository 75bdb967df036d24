//go:build !amd64

package tensor

import "testing"

// No assembly row, run or Box–Muller kernel on this architecture.
var (
	rowKernels  []rowKernel
	runKernels  []runKernel
	normKernels []normKernel
)

func dispatchTo(*testing.T, rowKernel) {}
