// Code generated by "go run ./gen"; DO NOT EDIT.

//go:build !purego

package gate

// AVX2 batch kernels (kernels_amd64.s). Each evaluates one contiguous
// run of same-kind gates at a fixed lane width, writing outputs into val
// and one change/uniformity flag byte per gate; bit-exact with the
// batchEvalGo* reference (asserted by TestBatchKernelEquivalence and
// FuzzBatchKernels).

//go:noescape
func kBufW8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNotW8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kAnd2W8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kOr2W8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNand2W8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNor2W8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXor2W8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXnor2W8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kMux2W8(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kBufW16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNotW16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kAnd2W16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kOr2W16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNand2W16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNor2W16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXor2W16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXnor2W16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kMux2W16(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kBufW32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNotW32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kAnd2W32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kOr2W32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNand2W32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNor2W32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXor2W32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXnor2W32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kMux2W32(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kBufW64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNotW64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kAnd2W64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kOr2W64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNand2W64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kNor2W64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXor2W64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kXnor2W64(val *uint64, gates *runGate, flags *uint8, n int)

//go:noescape
func kMux2W64(val *uint64, gates *runGate, flags *uint8, n int)

// avx2Kernels maps widthIdx(w) and gate kind to the AVX2 run kernel.
var avx2Kernels = [4][numKinds]batchKernel{
	0: {Buf: kBufW8, Not: kNotW8, And2: kAnd2W8, Or2: kOr2W8, Nand2: kNand2W8, Nor2: kNor2W8, Xor2: kXor2W8, Xnor2: kXnor2W8, Mux2: kMux2W8},
	1: {Buf: kBufW16, Not: kNotW16, And2: kAnd2W16, Or2: kOr2W16, Nand2: kNand2W16, Nor2: kNor2W16, Xor2: kXor2W16, Xnor2: kXnor2W16, Mux2: kMux2W16},
	2: {Buf: kBufW32, Not: kNotW32, And2: kAnd2W32, Or2: kOr2W32, Nand2: kNand2W32, Nor2: kNor2W32, Xor2: kXor2W32, Xnor2: kXnor2W32, Mux2: kMux2W32},
	3: {Buf: kBufW64, Not: kNotW64, And2: kAnd2W64, Or2: kOr2W64, Nand2: kNand2W64, Nor2: kNor2W64, Xor2: kXor2W64, Xnor2: kXnor2W64, Mux2: kMux2W64},
}

// AVX2 raw-compute kernels (kernels_amd64.s). Each writes one gate's
// unhooked output into dst with no change/uniformity fold — the hooked
// recompute path, where patchHooks repairs the injected words and the
// change fold runs against the previous patched value in Go.

//go:noescape
func kCompBufW8(dst, a, b, c *uint64)

//go:noescape
func kCompNotW8(dst, a, b, c *uint64)

//go:noescape
func kCompAnd2W8(dst, a, b, c *uint64)

//go:noescape
func kCompOr2W8(dst, a, b, c *uint64)

//go:noescape
func kCompNand2W8(dst, a, b, c *uint64)

//go:noescape
func kCompNor2W8(dst, a, b, c *uint64)

//go:noescape
func kCompXor2W8(dst, a, b, c *uint64)

//go:noescape
func kCompXnor2W8(dst, a, b, c *uint64)

//go:noescape
func kCompMux2W8(dst, a, b, c *uint64)

//go:noescape
func kCompBufW16(dst, a, b, c *uint64)

//go:noescape
func kCompNotW16(dst, a, b, c *uint64)

//go:noescape
func kCompAnd2W16(dst, a, b, c *uint64)

//go:noescape
func kCompOr2W16(dst, a, b, c *uint64)

//go:noescape
func kCompNand2W16(dst, a, b, c *uint64)

//go:noescape
func kCompNor2W16(dst, a, b, c *uint64)

//go:noescape
func kCompXor2W16(dst, a, b, c *uint64)

//go:noescape
func kCompXnor2W16(dst, a, b, c *uint64)

//go:noescape
func kCompMux2W16(dst, a, b, c *uint64)

//go:noescape
func kCompBufW32(dst, a, b, c *uint64)

//go:noescape
func kCompNotW32(dst, a, b, c *uint64)

//go:noescape
func kCompAnd2W32(dst, a, b, c *uint64)

//go:noescape
func kCompOr2W32(dst, a, b, c *uint64)

//go:noescape
func kCompNand2W32(dst, a, b, c *uint64)

//go:noescape
func kCompNor2W32(dst, a, b, c *uint64)

//go:noescape
func kCompXor2W32(dst, a, b, c *uint64)

//go:noescape
func kCompXnor2W32(dst, a, b, c *uint64)

//go:noescape
func kCompMux2W32(dst, a, b, c *uint64)

//go:noescape
func kCompBufW64(dst, a, b, c *uint64)

//go:noescape
func kCompNotW64(dst, a, b, c *uint64)

//go:noescape
func kCompAnd2W64(dst, a, b, c *uint64)

//go:noescape
func kCompOr2W64(dst, a, b, c *uint64)

//go:noescape
func kCompNand2W64(dst, a, b, c *uint64)

//go:noescape
func kCompNor2W64(dst, a, b, c *uint64)

//go:noescape
func kCompXor2W64(dst, a, b, c *uint64)

//go:noescape
func kCompXnor2W64(dst, a, b, c *uint64)

//go:noescape
func kCompMux2W64(dst, a, b, c *uint64)

// avx2Comp maps widthIdx(w) and gate kind to the raw-compute kernel.
var avx2Comp = [4][numKinds]compKernel{
	0: {Buf: kCompBufW8, Not: kCompNotW8, And2: kCompAnd2W8, Or2: kCompOr2W8, Nand2: kCompNand2W8, Nor2: kCompNor2W8, Xor2: kCompXor2W8, Xnor2: kCompXnor2W8, Mux2: kCompMux2W8},
	1: {Buf: kCompBufW16, Not: kCompNotW16, And2: kCompAnd2W16, Or2: kCompOr2W16, Nand2: kCompNand2W16, Nor2: kCompNor2W16, Xor2: kCompXor2W16, Xnor2: kCompXnor2W16, Mux2: kCompMux2W16},
	2: {Buf: kCompBufW32, Not: kCompNotW32, And2: kCompAnd2W32, Or2: kCompOr2W32, Nand2: kCompNand2W32, Nor2: kCompNor2W32, Xor2: kCompXor2W32, Xnor2: kCompXnor2W32, Mux2: kCompMux2W32},
	3: {Buf: kCompBufW64, Not: kCompNotW64, And2: kCompAnd2W64, Or2: kCompOr2W64, Nand2: kCompNand2W64, Nor2: kCompNor2W64, Xor2: kCompXor2W64, Xnor2: kCompXnor2W64, Mux2: kCompMux2W64},
}
