//go:build !purego

package gate

// builtPurego distinguishes generic kernels chosen at runtime (no AVX2,
// or SIMD disabled) from ones forced by the purego build tag
// (observability only — the kernels dispatched are the same generated
// Go).
const builtPurego = false
