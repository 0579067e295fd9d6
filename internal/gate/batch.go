package gate

//go:generate go run ./gen

import "sync/atomic"

// Batched run evaluation. The event sweeps and the oblivious evaluator
// group same-level same-kind gates into contiguous runs and dispatch each
// run with a single kernel call — the AVX2 assembly kernel on amd64 hosts
// that have it (simd_amd64.go), else the generated Go run kernel
// (kernels_generated.go). Gates at the same
// combinational level are mutually independent (levels strictly increase
// along fanout), so deferring their evaluation to the end of the level
// cannot change any signal value, eval count, or event count; all kernel
// families are asserted bit-identical in tests.

// runGate addresses one gate of a run: lane-word offsets into Sim.val
// for the output and the (up to three) input operands. The layout is
// fixed at 16 bytes — the asm kernels index it directly.
type runGate struct {
	dst, a, b, c int32
}

// Flag byte produced per gate by every batch kernel.
const (
	flagChanged = 1 << 0 // output differs from the previous value
	flagUniform = 1 << 1 // all lane words of the output agree
)

// batchFlags packs the XOR-folded change word and not-uniform word into
// the kernel flag byte.
func batchFlags(diff, nun uint64) uint8 {
	var f uint8
	if diff != 0 {
		f = flagChanged
	}
	if nun == 0 {
		f |= flagUniform
	}
	return f
}

// batchKernel is the signature shared by all assembly run kernels.
type batchKernel func(val *uint64, gates *runGate, flags *uint8, n int)

// compKernel is the signature shared by all assembly raw-compute
// kernels: one gate's unhooked output into dst, no flags. Unused operand
// pointers point at val[0] (offset zero in the compiled runGate) — the
// kernel never dereferences them.
type compKernel func(dst, a, b, c *uint64)

// batchList accumulates one kind's pending run for the current level.
type batchList struct {
	gates []runGate
	sigs  []Sig
	flags []uint8
}

// KernelStats counts batch-kernel dispatch activity of one simulator.
type KernelStats struct {
	SIMDRuns     uint64 // runs dispatched to the AVX2 kernels
	GenericRuns  uint64 // runs dispatched to the Go run kernels
	BatchedGates uint64 // gates evaluated through batch runs
	UniformHits  uint64 // sweep scalar uniform fast-path evaluations
	ScalarEvals  uint64 // full-width scalar evaluations (hooked gates)
}

// Add accumulates other into s.
func (s *KernelStats) Add(other KernelStats) {
	s.SIMDRuns += other.SIMDRuns
	s.GenericRuns += other.GenericRuns
	s.BatchedGates += other.BatchedGates
	s.UniformHits += other.UniformHits
	s.ScalarEvals += other.ScalarEvals
}

// KernelStats reports the simulator's cumulative kernel dispatch counters.
func (s *Sim) KernelStats() KernelStats { return s.kstats }

// simdDisabled lets tests and benchmarks force the Go run kernels on
// hosts that have the AVX2 kernels. It gates construction-time capture
// only (Sim.kern/comp), so toggling never races with running simulators.
var simdDisabled atomic.Bool

// SIMDAvailable reports whether this build and host have assembly batch
// kernels (AVX2 on amd64; never under the purego tag).
func SIMDAvailable() bool { return hasSIMD }

// SetSIMD enables or disables the assembly kernels for simulators
// constructed afterwards and returns the previous setting. A disabled or
// unavailable SIMD path falls back to the generated Go run kernels,
// which are bit-identical.
func SetSIMD(on bool) bool {
	prev := !simdDisabled.Load()
	simdDisabled.Store(!on)
	return prev
}

// SIMDEnabled reports whether newly constructed simulators will dispatch
// to assembly kernels.
func SIMDEnabled() bool { return hasSIMD && !simdDisabled.Load() }

// SIMDKernelName names the kernel backend newly constructed simulators
// use: "avx2" for the assembly kernels, "generic" when none are available
// or SIMD is disabled, and "purego" for a build under the purego tag.
func SIMDKernelName() string {
	switch {
	case SIMDEnabled():
		return "avx2"
	case builtPurego:
		return "purego"
	}
	return "generic"
}

// widthIdx maps a SIMD-kerneled lane width to its dispatch-table row.
func widthIdx(w int) int {
	switch w {
	case 8:
		return 0
	case 16:
		return 1
	case 32:
		return 2
	case 64:
		return 3
	}
	panic("gate: no batch kernels at this width")
}

// flushBatches dispatches every pending per-kind run of the current
// level and applies the kernel flags: the uniformity index from
// flagUniform, one event plus fan-out propagation per flagChanged gate.
// Event-sweep only (s.inc must be non-nil).
func (s *Sim) flushBatches() {
	inc := s.inc
	for kind := Buf; kind <= Mux2; kind++ {
		bl := &s.batch[kind]
		n := len(bl.gates)
		if n == 0 {
			continue
		}
		if cap(bl.flags) < n {
			bl.flags = make([]uint8, n)
		}
		bl.flags = bl.flags[:n]
		s.dispatchBatch(kind, bl.gates, bl.flags)
		for i, sig := range bl.sigs {
			f := bl.flags[i]
			s.uni[sig] = f&flagUniform != 0
			if f&flagChanged != 0 {
				inc.events++
				s.propagate(sig)
			}
		}
		bl.gates = bl.gates[:0]
		bl.sigs = bl.sigs[:0]
	}
}

// dispatchBatch evaluates one contiguous same-kind run through the
// kernels resolved at construction (the compiled kernel plan): the
// AVX2 kernel when the sim has one for this kind, else the
// width-bound Go run kernel. No per-run width or backend branching
// survives to here — only a table load and an indirect call. All
// kernels write outputs into val and per-gate flag bytes,
// bit-identically.
func (s *Sim) dispatchBatch(kind Kind, gates []runGate, flags []uint8) {
	if len(gates) == 0 {
		return
	}
	s.kstats.BatchedGates += uint64(len(gates))
	if s.kern != nil {
		if k := s.kern[kind]; k != nil {
			s.kstats.SIMDRuns++
			k(&s.val[0], &gates[0], &flags[0], len(gates))
			return
		}
	}
	s.kstats.GenericRuns++
	s.goKern(s.val, kind, gates, flags)
}

// oblRun is one contiguous same-kind run of the oblivious level plan.
type oblRun struct {
	kind  Kind
	gates []runGate
	sigs  []Sig
}

// oblPlan groups the topological order into per-level same-kind runs for
// batched oblivious evaluation at the SIMD widths. Part of a width's
// shared compiled plan: the grouping depends only on the netlist and the
// lane width, and each simulator brings its own kernel flag scratch
// (Sim.oblFlags, maxRun bytes).
type oblPlan struct {
	level  []int32    // per signal: combinational level (sources at 0)
	levels [][]oblRun // runs by level; index 0 unused (sources)
	maxRun int        // longest run, in gates
}

// buildOblivPlan compiles the oblivious level plan of one SIMD width from
// the netlist's levels and that width's runGate records.
func buildOblivPlan(n *Netlist, c *compiled, rg []runGate) *oblPlan {
	p := &oblPlan{level: c.level}
	byLevel := make([][]Sig, c.maxLevel+1)
	for _, sig := range c.order {
		lv := p.level[sig]
		byLevel[lv] = append(byLevel[lv], sig)
	}
	p.levels = make([][]oblRun, c.maxLevel+1)
	for lv := int32(1); lv <= c.maxLevel; lv++ {
		var idx [numKinds]int
		for i := range idx {
			idx[i] = -1
		}
		for _, sig := range byLevel[lv] {
			g := &n.Gates[sig]
			if idx[g.Kind] < 0 {
				idx[g.Kind] = len(p.levels[lv])
				p.levels[lv] = append(p.levels[lv], oblRun{kind: g.Kind})
			}
			r := &p.levels[lv][idx[g.Kind]]
			r.gates = append(r.gates, rg[sig])
			r.sigs = append(r.sigs, sig)
		}
		for i := range p.levels[lv] {
			p.maxRun = max(p.maxRun, len(p.levels[lv][i].gates))
		}
	}
	return p
}

// evalLevelsBatched is the combinational part of evalOblivious at the
// SIMD widths: every level's gates run as contiguous same-kind batches,
// and the uniformity index is maintained from the kernel flags (so
// evalFull need not rescan every signal). Hooked gates are recomputed
// scalar (with patchHooks) after their level's batches and before any
// higher level reads them.
func (s *Sim) evalLevelsBatched() {
	p := s.obl
	w := s.w
	val := s.val
	for lv := 1; lv < len(p.levels); lv++ {
		for i := range p.levels[lv] {
			r := &p.levels[lv][i]
			flags := s.oblFlags[:len(r.gates)]
			s.dispatchBatch(r.kind, r.gates, flags)
			for j, sig := range r.sigs {
				s.uni[sig] = flags[j]&flagUniform != 0
			}
		}
		if len(s.hooked) != 0 {
			for _, sig := range s.hooked {
				if p.level[sig] != int32(lv) {
					continue
				}
				o := int(sig) * w
				dst := val[o : o+w]
				s.computeInto(sig, dst)
				s.uni[sig] = allEqual(dst)
			}
		}
	}
}
