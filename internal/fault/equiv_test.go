package fault

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/plasma"
)

// equivTestProgram keeps registers, memory and branches busy for the whole
// capture window so fault activations spread across many cycles — the
// boundary-alignment tests need activations in every residue class mod k.
const equivTestProgram = `
	li $t0, 0x1000
	li $t1, 0x5ea1
	li $s0, 12
lp:	sw $t1, 0($t0)
	lw $t2, 0($t0)
	addu $t1, $t1, $t2
	xor $t3, $t1, $t2
	nor $t4, $t3, $t1
	sw $t4, 4($t0)
	addiu $t0, $t0, 8
	addiu $s0, $s0, -1
	bne $s0, $zero, lp
	nop
h:	j h
	nop
`

// randomCombNetlist builds a random DAG of combinational cells over a few
// inputs, used to cross-check collapsing against exhaustive simulation.
func randomCombNetlist(rng *rand.Rand, nInputs, nGates int) *gate.Netlist {
	b := gate.NewBuilder("rand")
	sigs := b.InputBus("in", nInputs)
	kinds := []func(a, c gate.Sig) gate.Sig{
		b.And, b.Or, b.Nand, b.Nor, b.Xor, b.Xnor,
	}
	for i := 0; i < nGates; i++ {
		a := sigs[rng.Intn(len(sigs))]
		c := sigs[rng.Intn(len(sigs))]
		if rng.Intn(6) == 0 {
			sigs = append(sigs, b.Not(a))
			continue
		}
		sigs = append(sigs, kinds[rng.Intn(len(kinds))](a, c))
	}
	// Observe the last few signals.
	b.OutputBus("out", []gate.Sig(sigs[len(sigs)-3:]))
	return b.N
}

// detectionSignature exhaustively simulates a fault over all input values
// and returns the set of (input, output-bit) detections as a string key.
func detectionSignature(t *testing.T, n *gate.Netlist, f gate.FaultSite, nInputs int) string {
	t.Helper()
	s, err := gate.NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults([]gate.LaneFault{{Site: f, Lane: 1}})
	var sb strings.Builder
	for v := uint64(0); v < 1<<uint(nInputs); v++ {
		s.SetBusUniform("in", v)
		s.Eval()
		if s.BusLane("out", 0) != s.BusLane("out", 1) {
			sb.WriteString(" ")
			sb.WriteByte(byte('0' + v%10))
			sb.WriteString(":")
			diff := s.BusLane("out", 0) ^ s.BusLane("out", 1)
			for b := 0; diff != 0; b++ {
				if diff&1 != 0 {
					sb.WriteByte(byte('a' + b))
				}
				diff >>= 1
			}
		}
	}
	return sb.String()
}

// TestCollapsedCoverageMatchesUncollapsed is the soundness property of
// equivalence collapsing: on random circuits, the set of input vectors
// that detects a representative fault must detect (somewhere) every count
// the representative absorbed. We verify the weaker but decisive
// consequence used by the coverage accounting: a pattern set detects the
// representative iff it detects each absorbed fault — checked by
// comparing full detectability (detectable by some vector) between the
// collapsed universe and the complete pin-fault universe.
func TestCollapsedCoverageMatchesUncollapsed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		const nInputs = 6
		n := randomCombNetlist(rng, nInputs, 25)
		collapsed := Universe(n)

		// Exhaustive detectability of each collapsed representative.
		repDetectable := 0
		for _, f := range collapsed {
			if detectionSignature(t, n, f.Site, nInputs) != "" {
				repDetectable += f.Equiv
			}
		}

		// Exhaustive detectability of the complete uncollapsed universe.
		fullDetectable, fullTotal := 0, 0
		for i := range n.Gates {
			g := &n.Gates[i]
			if g.Kind == gate.Const0 || g.Kind == gate.Const1 {
				continue
			}
			for v := 0; v < 2; v++ {
				fullTotal++
				if detectionSignature(t, n, gate.FaultSite{Gate: gate.Sig(i), Pin: 0, Stuck: v == 1}, nInputs) != "" {
					fullDetectable++
				}
			}
			for p := 0; p < g.Kind.NumInputs(); p++ {
				for v := 0; v < 2; v++ {
					fullTotal++
					if detectionSignature(t, n, gate.FaultSite{Gate: gate.Sig(i), Pin: int8(p + 1), Stuck: v == 1}, nInputs) != "" {
						fullDetectable++
					}
				}
			}
		}
		if TotalEquiv(collapsed) != fullTotal {
			t.Fatalf("trial %d: equivalence weights sum to %d, full universe has %d",
				trial, TotalEquiv(collapsed), fullTotal)
		}
		if repDetectable != fullDetectable {
			t.Fatalf("trial %d: weighted detectable %d via representatives vs %d exhaustive",
				trial, repDetectable, fullDetectable)
		}
	}
}

// TestEquivalencePairsBehaveIdentically verifies the strong per-pair
// property on directed cases: an absorbed fault and its representative
// have identical detection signatures over all inputs and outputs.
func TestEquivalencePairsBehaveIdentically(t *testing.T) {
	b := gate.NewBuilder("pairs")
	in := b.InputBus("in", 4)
	// One gate of each collapsing kind, each with an extra fanout on its
	// inputs so branch faults are NOT absorbed by the fanout-free rule
	// (isolating the gate-type equivalences).
	and := b.And(in[0], in[1])
	nand := b.Nand(in[0], in[2])
	or := b.Or(in[1], in[2])
	nor := b.Nor(in[1], in[3])
	not := b.Not(in[3])
	b.OutputBus("out", []gate.Sig{and, nand, or, nor, not, b.Xor(in[0], in[3])})
	n := b.N

	pairs := []struct {
		branch, stem gate.FaultSite
	}{
		{gate.FaultSite{Gate: and, Pin: 1, Stuck: false}, gate.FaultSite{Gate: and, Pin: 0, Stuck: false}},
		{gate.FaultSite{Gate: and, Pin: 2, Stuck: false}, gate.FaultSite{Gate: and, Pin: 0, Stuck: false}},
		{gate.FaultSite{Gate: nand, Pin: 1, Stuck: false}, gate.FaultSite{Gate: nand, Pin: 0, Stuck: true}},
		{gate.FaultSite{Gate: or, Pin: 1, Stuck: true}, gate.FaultSite{Gate: or, Pin: 0, Stuck: true}},
		{gate.FaultSite{Gate: nor, Pin: 2, Stuck: true}, gate.FaultSite{Gate: nor, Pin: 0, Stuck: false}},
		{gate.FaultSite{Gate: not, Pin: 1, Stuck: false}, gate.FaultSite{Gate: not, Pin: 0, Stuck: true}},
		{gate.FaultSite{Gate: not, Pin: 1, Stuck: true}, gate.FaultSite{Gate: not, Pin: 0, Stuck: false}},
	}
	for _, p := range pairs {
		sa := detectionSignature(t, n, p.branch, 4)
		sb := detectionSignature(t, n, p.stem, 4)
		if sa != sb {
			t.Errorf("pair %v / %v: signatures differ:\n%q\n%q", p.branch, p.stem, sa, sb)
		}
		if sa == "" {
			t.Errorf("pair %v: untestable in this circuit, test is vacuous", p.branch)
		}
	}
}

// namedGolden pairs a golden trace with a label for failure messages,
// used to sweep checkpoint intervals through the equivalence harness.
type namedGolden struct {
	name string
	g    *plasma.Golden
}

// captureGoldenKSweep captures the same program at k=1 (dense), the
// default interval and k=64, so equivalence checks cover the sparse
// reconstruction path at several boundary spacings.
func captureGoldenKSweep(t *testing.T, cpu *plasma.CPU, prog *asm.Program, cycles int) []namedGolden {
	t.Helper()
	var gs []namedGolden
	for _, k := range []int{1, plasma.DefaultCheckpointK, 64} {
		g, err := plasma.CaptureGoldenK(cpu, prog, cycles, k)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, namedGolden{fmt.Sprintf("k=%d", k), g})
	}
	return gs
}

// checkSameTraces asserts every golden records the same fault-free bus
// and read-data trace: the sweep's goldens differ only in checkpoint
// spacing, which must not touch what the program does.
func checkSameTraces(t *testing.T, goldens []namedGolden) {
	t.Helper()
	ref := goldens[0]
	for _, ng := range goldens[1:] {
		if ng.g.Cycles != ref.g.Cycles {
			t.Fatalf("%s: %d cycles, %s has %d", ng.name, ng.g.Cycles, ref.name, ref.g.Cycles)
		}
		for c := 0; c < ref.g.Cycles; c++ {
			if ng.g.RDataAt(c) != ref.g.RDataAt(c) || ng.g.OutAt(c) != ref.g.OutAt(c) {
				t.Fatalf("%s: cycle %d bus/read data %+v/%#x, %s has %+v/%#x", ng.name, c,
					ng.g.OutAt(c), ng.g.RDataAt(c), ref.name, ref.g.OutAt(c), ref.g.RDataAt(c))
			}
		}
	}
}

// checkWidthEquivalence simulates the same workload at every supported
// lane width under both engines and asserts that DetectedAt and
// SignatureGroups are bit-identical across every configuration. This is
// the end-to-end soundness property of lane widening and sparse
// checkpointing: each bit lane is an independent machine and each golden
// encodes the same fault-free execution, so neither the pass width, the
// packing order nor the checkpoint interval may influence any per-fault
// outcome.
//
// The oblivious engine starts every pass cold at cycle 0 and reads only
// the golden's bus and read-data trace, which checkSameTraces proves
// identical across the goldens, so its widths run once, on the first
// golden; the first of those runs is the reference. The event engine
// starts passes from each golden's checkpoints, so it runs every
// (golden, width) configuration against that reference.
func checkWidthEquivalence(t *testing.T, cpu *plasma.CPU, goldens []namedGolden, faults []Fault, opt Options) {
	t.Helper()
	checkSameTraces(t, goldens)
	var ref *Result
	var refName string
	check := func(ng namedGolden, eng Engine, w int) {
		t.Helper()
		opt.Engine = eng
		opt.LaneWords = w
		name := fmt.Sprintf("%s engine=%v lanes=%d", ng.name, eng, w)
		res, err := Simulate(cpu, ng.g, faults, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var histSum int64
		for i, c := range res.Stats.PassWidthHist {
			histSum += c
			if c > 0 && 1<<uint(i) > w {
				t.Errorf("%s: pass ran wider (%d words) than the cap", name, 1<<uint(i))
			}
		}
		if histSum != res.Stats.Passes {
			t.Errorf("%s: width histogram sums to %d, want %d passes", name, histSum, res.Stats.Passes)
		}
		if ref == nil {
			ref, refName = res, name
			return
		}
		if len(res.DetectedAt) != len(ref.DetectedAt) {
			t.Fatalf("%s: %d results, %s has %d", name, len(res.DetectedAt), refName, len(ref.DetectedAt))
		}
		for i := range ref.DetectedAt {
			if res.DetectedAt[i] != ref.DetectedAt[i] {
				t.Fatalf("%s: fault %d (%v) DetectedAt=%d, %s says %d",
					name, i, res.Faults[i].Site, res.DetectedAt[i], refName, ref.DetectedAt[i])
			}
			if res.SignatureGroups[i] != ref.SignatureGroups[i] {
				t.Fatalf("%s: fault %d (%v) groups=%#x, %s says %#x",
					name, i, res.Faults[i].Site, res.SignatureGroups[i], refName, ref.SignatureGroups[i])
			}
		}
	}
	widths := []int{1, 2, 4, 8, 16, 32, 64}
	for _, w := range widths {
		check(goldens[0], EngineOblivious, w)
	}
	for _, ng := range goldens {
		for _, w := range widths {
			check(ng, EngineEvent, w)
		}
	}
}

// TestWidthEquivalencePhaseA asserts width equivalence on the real
// workload: the directed Phase-A self-test program on the full core.
func TestWidthEquivalencePhaseA(t *testing.T) {
	if testing.Short() {
		t.Skip("directed Phase-A width sweep is long; skipped with -short")
	}
	cpu := getCPU(t)
	comps := core.ClassifyNetlist(cpu.Netlist)
	st, err := core.GenerateSelfTest(comps, core.PhaseA)
	if err != nil {
		t.Fatal(err)
	}
	goldens := captureGoldenKSweep(t, cpu, st.Program, st.GateCycles())
	checkWidthEquivalence(t, cpu, goldens, Universe(cpu.Netlist), Options{Sample: 512, Seed: 9, Workers: 1})
}

// TestTierEquivalencePhaseA asserts the kernel fallback end to end: a
// full Phase A grade on the AVX2 kernels and on the generic Go kernels
// (SIMD on and off) must produce bit-identical DetectedAt and
// SignatureGroups. This is the whole-pipeline half of the dispatch
// guarantee; the per-kernel half lives in gate's equivalence/fuzz suites.
func TestTierEquivalencePhaseA(t *testing.T) {
	if testing.Short() {
		t.Skip("SIMD on/off Phase-A grade is long; skipped with -short")
	}
	prev := gate.SetSIMD(true)
	defer gate.SetSIMD(prev)
	cpu := getCPU(t)
	comps := core.ClassifyNetlist(cpu.Netlist)
	st, err := core.GenerateSelfTest(comps, core.PhaseA)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := plasma.CaptureGolden(cpu, st.Program, st.GateCycles())
	if err != nil {
		t.Fatal(err)
	}
	faults := Universe(cpu.Netlist)
	opt := Options{Sample: 512, Seed: 9, Workers: 1}
	var ref *Result
	var refTier string
	for _, simd := range []bool{true, false} {
		gate.SetSIMD(simd)
		tier := gate.SIMDKernelName()
		res, err := Simulate(cpu, golden, faults, opt)
		if err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		if gate.SIMDEnabled() != (res.Stats.SIMDKernelRuns > 0) {
			t.Errorf("tier %s: %d SIMD kernel runs recorded", tier, res.Stats.SIMDKernelRuns)
		}
		if ref == nil {
			ref, refTier = res, tier
			continue
		}
		for i := range ref.DetectedAt {
			if res.DetectedAt[i] != ref.DetectedAt[i] || res.SignatureGroups[i] != ref.SignatureGroups[i] {
				t.Fatalf("tier %s fault %d (%v): DetectedAt=%d groups=%#x, tier %s says %d/%#x",
					tier, i, res.Faults[i].Site, res.DetectedAt[i], res.SignatureGroups[i],
					refTier, ref.DetectedAt[i], ref.SignatureGroups[i])
			}
		}
	}
}

// TestPlanPassesHostIndependent asserts the pass plan does not depend on
// the kernels the host runs: planning the full Phase A and Phase A+B
// universes of the base core with the AVX2 kernels enabled and disabled
// must yield the same passes — fault sets, widths, starts and costs. Shard
// weights and dispatch derive from the plan, so they match across hosts
// too.
func TestPlanPassesHostIndependent(t *testing.T) {
	prev := gate.SetSIMD(true)
	defer gate.SetSIMD(prev)
	cpu := getCPU(t)
	comps := core.ClassifyNetlist(cpu.Netlist)
	faults := Universe(cpu.Netlist)
	for _, phase := range []core.PhaseID{core.PhaseA, core.PhaseB} {
		st, err := core.GenerateSelfTest(comps, phase)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := plasma.CaptureGolden(cpu, st.Program, st.GateCycles())
		if err != nil {
			t.Fatal(err)
		}
		var plans [2][]PassGroup
		for i, simd := range []bool{true, false} {
			gate.SetSIMD(simd)
			plan, _, err := PlanPasses(cpu.Netlist, golden, faults, EngineEvent, 0)
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = plan
		}
		if len(plans[0]) == 0 {
			t.Fatalf("phase %s: empty plan", phase)
		}
		if !reflect.DeepEqual(plans[0], plans[1]) {
			t.Fatalf("phase %s: plan with SIMD on (%d passes) differs from SIMD off (%d passes)",
				phase, len(plans[0]), len(plans[1]))
		}
	}
}

// TestWidthEquivalenceRandomProgram asserts width equivalence on a seeded
// pseudorandom self-test program.
func TestWidthEquivalenceRandomProgram(t *testing.T) {
	cpu := getCPU(t)
	p, err := baseline.Generate(baseline.Config{Seeds: []uint32{0xC0FFEE11}, Rounds: 2, RespBase: 0x00100000})
	if err != nil {
		t.Fatal(err)
	}
	goldens := captureGoldenKSweep(t, cpu, p.Program, p.GateCycles())
	checkWidthEquivalence(t, cpu, goldens, Universe(cpu.Netlist), Options{Sample: 256, Seed: 11})
}

// TestCheckpointBoundaryActivations targets the fast-forward edge cases:
// faults whose earliest activation falls exactly ON a checkpoint boundary
// (zero golden cycles between the boundary and injection) and exactly ONE
// CYCLE BEFORE a boundary (the maximum k-1 cycles reconstructed from
// deltas). Both populations
// must produce bit-identical results against a dense k=1 capture. A small
// interval keeps boundaries frequent so both populations are non-empty.
func TestCheckpointBoundaryActivations(t *testing.T) {
	const cycles, k = 160, 4
	cpu := getCPU(t)
	prog, err := asm.Assemble(equivTestProgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := plasma.CaptureGoldenK(cpu, prog, cycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := plasma.CaptureGoldenK(cpu, prog, cycles, k)
	if err != nil {
		t.Fatal(err)
	}
	var onBoundary, beforeBoundary []Fault
	for _, f := range Universe(cpu.Netlist) {
		act := sparse.ActivationCycle(cpu.Netlist, f.Site)
		switch {
		case act < 0:
			continue
		case act%k == 0:
			onBoundary = append(onBoundary, f)
		case act%k == k-1:
			beforeBoundary = append(beforeBoundary, f)
		}
	}
	if len(onBoundary) == 0 || len(beforeBoundary) == 0 {
		t.Fatalf("degenerate activation split: %d on-boundary, %d before-boundary",
			len(onBoundary), len(beforeBoundary))
	}
	// Bound the runtime: a few hundred of each population is plenty.
	if len(onBoundary) > 300 {
		onBoundary = onBoundary[:300]
	}
	if len(beforeBoundary) > 300 {
		beforeBoundary = beforeBoundary[:300]
	}
	for _, tc := range []struct {
		name   string
		faults []Fault
	}{
		{"activation-on-boundary", onBoundary},
		{"activation-before-boundary", beforeBoundary},
	} {
		for _, eng := range []Engine{EngineOblivious, EngineEvent} {
			opt := Options{Engine: eng, Workers: 1}
			want, err := Simulate(cpu, dense, tc.faults, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(cpu, sparse, tc.faults, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.faults {
				if got.DetectedAt[i] != want.DetectedAt[i] || got.SignatureGroups[i] != want.SignatureGroups[i] {
					t.Fatalf("%s engine=%v fault %v: k=%d gives DetectedAt=%d groups=%#x, k=1 gives %d/%#x",
						tc.name, eng, tc.faults[i].Site, k,
						got.DetectedAt[i], got.SignatureGroups[i],
						want.DetectedAt[i], want.SignatureGroups[i])
				}
			}
		}
	}
}

// TestCheckpointLongerThanProgram runs fault simulation against a golden
// whose checkpoint interval exceeds the program length: only the reset
// snapshot exists, so every pass fast-forwards to cycle 0 and replays its
// full prefix. Results must match the dense capture exactly.
func TestCheckpointLongerThanProgram(t *testing.T) {
	const cycles = 120
	cpu := getCPU(t)
	prog, err := asm.Assemble(equivTestProgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := plasma.CaptureGoldenK(cpu, prog, cycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := plasma.CaptureGoldenK(cpu, prog, cycles, cycles+17)
	if err != nil {
		t.Fatal(err)
	}
	faults := Universe(cpu.Netlist)
	for _, eng := range []Engine{EngineOblivious, EngineEvent} {
		opt := Options{Engine: eng, Sample: 256, Seed: 3}
		want, err := Simulate(cpu, dense, faults, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(cpu, sparse, faults, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.DetectedAt {
			if got.DetectedAt[i] != want.DetectedAt[i] || got.SignatureGroups[i] != want.SignatureGroups[i] {
				t.Fatalf("engine=%v fault %v: k>cycles gives DetectedAt=%d groups=%#x, k=1 gives %d/%#x",
					eng, want.Faults[i].Site,
					got.DetectedAt[i], got.SignatureGroups[i],
					want.DetectedAt[i], want.SignatureGroups[i])
			}
		}
	}
}

func TestLatencyStats(t *testing.T) {
	r := &Result{
		Faults:     make([]Fault, 6),
		DetectedAt: []int32{5, -1, 10, 95, 0, 50},
		Cycles:     100,
	}
	st := NewLatencyStats(r)
	if len(st.DetectCycles) != 5 {
		t.Fatalf("detected = %d", len(st.DetectCycles))
	}
	if st.DetectCycles[0] != 0 || st.DetectCycles[4] != 95 {
		t.Errorf("sorted cycles: %v", st.DetectCycles)
	}
	h := st.Histogram(10)
	if h[0] != 2 || h[1] != 1 || h[5] != 1 || h[9] != 1 {
		t.Errorf("histogram: %v", h)
	}
	if st.Percentile(0.5) != 10 {
		t.Errorf("median = %d", st.Percentile(0.5))
	}
	s := st.String()
	if !strings.Contains(s, "percentiles") || !strings.Contains(s, "#") {
		t.Errorf("rendering: %q", s)
	}
}
