//go:build !amd64 || purego

package gate

// Portable build: no assembly batch kernels. Every run dispatches to the
// generated Go run kernels (kernels_generated.go).

const hasSIMD = false

func archBatchKernels(int) *[numKinds]batchKernel { return nil }

func archCompKernels(int) *[numKinds]compKernel { return nil }
