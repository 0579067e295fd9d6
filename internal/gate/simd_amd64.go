//go:build !purego

package gate

// Runtime CPU-feature detection for the AVX2 kernels. The module is
// dependency-free, so the CPUID/XGETBV probes are done directly
// (cpuid_amd64.s) instead of via golang.org/x/sys/cpu: AVX needs OSXSAVE
// + the AVX bit in CPUID.1:ECX and OS-enabled XMM/YMM state in XCR0;
// AVX2 is CPUID.7.0:EBX bit 5.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasSIMD reports whether this host runs the AVX2 kernels, probed once
// at startup.
var hasSIMD = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if x, _ := xgetbv(); x&6 != 6 { // XMM and YMM state OS-enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// archBatchKernels resolves the per-kind AVX2 run-kernel table for
// widthIdx row wi.
func archBatchKernels(wi int) *[numKinds]batchKernel { return &avx2Kernels[wi] }

// archCompKernels resolves the per-kind AVX2 raw-compute table for
// widthIdx row wi.
func archCompKernels(wi int) *[numKinds]compKernel { return &avx2Comp[wi] }
