//go:build !amd64

package tensor

import "testing"

// No assembly row or run kernel on this architecture.
var (
	rowKernels []rowKernel
	runKernels []runKernel
)

func dispatchTo(*testing.T, rowKernel) {}
