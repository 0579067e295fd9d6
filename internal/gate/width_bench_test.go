package gate

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// buildBenchNetlist synthesizes a deterministic sequential circuit for
// width benchmarking: a ring of flip-flops with inverted XOR feedback
// (guaranteed switching activity from the all-zero reset state) mixed
// through a random combinational cloud, with a few observed outputs.
func buildBenchNetlist(nRegs, nComb int) *Netlist {
	b := NewBuilder("wbench")
	rng := rand.New(rand.NewSource(42))
	regs := make([]Sig, nRegs)
	for i := range regs {
		regs[i] = b.DFFPlaceholder()
	}
	sigs := append([]Sig(nil), regs...)
	for i := 0; i < nComb; i++ {
		a := sigs[rng.Intn(len(sigs))]
		c := sigs[rng.Intn(len(sigs))]
		switch rng.Intn(6) {
		case 0:
			sigs = append(sigs, b.Xor(a, c))
		case 1:
			sigs = append(sigs, b.And(a, c))
		case 2:
			sigs = append(sigs, b.Or(a, c))
		case 3:
			sigs = append(sigs, b.Not(a))
		case 4:
			sigs = append(sigs, b.Nand(a, c))
		case 5:
			sigs = append(sigs, b.Xnor(a, c))
		}
	}
	for i, r := range regs {
		d := b.Xor(regs[(i+1)%nRegs], sigs[len(sigs)-1-i%(nComb/2)])
		b.ConnectD(r, b.Not(d))
	}
	b.OutputBus("out", []Sig(sigs[len(sigs)-8:]))
	return b.N
}

// BenchmarkEventEvalWidth measures the event-driven evaluator's per-cycle
// cost as the lane word widens, with one injected fault per lane (the
// fault-simulation configuration). The interesting ratio is ns/cycle at
// w=8 versus w=1: perfect amortization would hold it flat while carrying
// 8x the machines; the machine-cycles/s metric shows the realized
// per-machine throughput.
func BenchmarkEventEvalWidth(b *testing.B) {
	n := buildBenchNetlist(256, 4000)
	sites := collectFaultSites(n)
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			benchEventEval(b, n, sites, w)
		})
	}
}

// BenchmarkEventEvalTier runs the same faulted eval loop on the AVX2
// kernels and on the generic Go kernels (SIMD on and off), at the widths
// where the backends differ most. The rows at equal width isolate the
// assembly win from everything else in the sweep.
func BenchmarkEventEvalTier(b *testing.B) {
	prev := SetSIMD(true)
	defer SetSIMD(prev)
	n := buildBenchNetlist(256, 4000)
	sites := collectFaultSites(n)
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		name := SIMDKernelName()
		for _, w := range []int{16, 32, 64} {
			b.Run(fmt.Sprintf("tier=%s/w=%d", name, w), func(b *testing.B) {
				benchEventEval(b, n, sites, w)
			})
		}
	}
}

// BenchmarkBatchKernelTier measures one batch kernel in isolation: a
// 512-gate same-kind run evaluated back to back, per backend and width.
// Unlike the EventEval benchmarks there is no queue or batching work in
// the loop, so the ratio between tiers here is the pure kernel speedup;
// the gap between this ratio and the EventEvalTier ratio is the Amdahl
// dilution of everything around the kernels.
func BenchmarkBatchKernelTier(b *testing.B) {
	const nGates = 512
	for _, tc := range []struct {
		name string
		kind Kind
	}{{"and2", And2}, {"xor2", Xor2}, {"mux2", Mux2}} {
		for _, w := range []int{16, 32, 64} {
			kern := archBatchKernels(widthIdx(w))
			if !SIMDAvailable() || kern == nil || kern[tc.kind] == nil {
				continue
			}
			b.Run(fmt.Sprintf("kind=%s/tier=avx2/w=%d", tc.name, w), func(b *testing.B) {
				benchBatchKernel(b, kern[tc.kind], tc.kind, nGates, w)
			})
		}
		for _, w := range []int{16, 32, 64} {
			kern := goBatchKernels[widthIdx(w)]
			b.Run(fmt.Sprintf("kind=%s/tier=generic/w=%d", tc.name, w), func(b *testing.B) {
				benchBatchKernel(b, func(val *uint64, gates *runGate, flags *uint8, n int) {
					vs := unsafe.Slice(val, (1+4*nGates)*w)
					gs := unsafe.Slice(gates, n)
					fs := unsafe.Slice(flags, n)
					kern(vs, tc.kind, gs, fs)
				}, tc.kind, nGates, w)
			})
		}
	}
}

func benchBatchKernel(b *testing.B, kern batchKernel, kind Kind, nGates, w int) {
	rng := rand.New(rand.NewSource(11))
	// Signal 0 stays a scratch zero source; gates read three random
	// operand signals and write disjoint outputs, like one flushed run
	// of same-level gates.
	val := make([]uint64, (1+4*nGates)*w)
	for i := range val {
		val[i] = rng.Uint64()
	}
	gates := make([]runGate, nGates)
	for i := range gates {
		gates[i] = runGate{
			dst: int32((1 + 3*nGates + i) * w),
			a:   int32((1 + rng.Intn(3*nGates)) * w),
			b:   int32((1 + rng.Intn(3*nGates)) * w),
			c:   int32((1 + rng.Intn(3*nGates)) * w),
		}
	}
	flags := make([]uint8, nGates)
	b.SetBytes(int64(nGates * w * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern(&val[0], &gates[0], &flags[0], nGates)
	}
}

func benchEventEval(b *testing.B, n *Netlist, sites []FaultSite, w int) {
	s, err := NewEventSimWidth(n, w)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	lf := make([]LaneFault, 64*w)
	for lane := range lf {
		site := sites[rng.Intn(len(sites))]
		lf[lane] = LaneFault{Site: site, Lane: lane}
	}
	s.Reset()
	s.SetFaults(lf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(64*w)*float64(b.N)/b.Elapsed().Seconds(), "machine-cycles/s")
}

// collectFaultSites enumerates output stuck-at sites over the netlist's
// combinational gates.
func collectFaultSites(n *Netlist) []FaultSite {
	var sites []FaultSite
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case Const0, Const1, Input:
			continue
		}
		sites = append(sites,
			FaultSite{Gate: Sig(i), Pin: 0, Stuck: false},
			FaultSite{Gate: Sig(i), Pin: 0, Stuck: true})
	}
	return sites
}
