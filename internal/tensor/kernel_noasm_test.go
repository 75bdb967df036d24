//go:build !amd64

package tensor

import "testing"

// No assembly row kernel on this architecture.
var rowKernels []rowKernel

func dispatchTo(*testing.T, rowKernel) {}
