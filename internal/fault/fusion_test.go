package fault

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/plasma"
)

// Replay-fusion regression suite. The differential engine runs whole
// checkpoint windows of passes on one warm simulator, each pass started
// from delta-reconstructed golden state; the oblivious engine, which
// simulates every fault from reset, is the reference it must match
// bit for bit.

// fusionTestGolden captures the equivalence-test program at one
// checkpoint interval.
func fusionTestGolden(t *testing.T, cpu *plasma.CPU, cycles, k int) *plasma.Golden {
	t.Helper()
	prog, err := asm.Assemble(equivTestProgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plasma.CaptureGoldenK(cpu, prog, cycles, k)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFusionEquivalence asserts the fused differential engine is
// bit-identical to the oblivious reference: same detections, same
// signature groups, and therefore the same fault dictionary, across
// checkpoint intervals, lane widths and worker counts. The oblivious
// engine ignores checkpoints and widths do not change outcomes, so one
// reference run per interval anchors every cell.
func TestFusionEquivalence(t *testing.T) {
	cpu := getCPU(t)
	faults := Universe(cpu.Netlist)
	for _, k := range []int{1, 32, 64} {
		g := fusionTestGolden(t, cpu, 240, k)
		ref, err := Simulate(cpu, g, faults, Options{Sample: 192, Seed: 7, Engine: EngineOblivious})
		if err != nil {
			t.Fatal(err)
		}
		refDict := BuildDictionary(ref)
		for _, w := range []int{1, 8, 32, 64} {
			for _, workers := range []int{1, 3} {
				opt := Options{Sample: 192, Seed: 7, Engine: EngineEvent, LaneWords: w, Workers: workers}
				fused, err := Simulate(cpu, g, faults, opt)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("k=%d lanes=%d workers=%d", k, w, workers)
				for i := range ref.DetectedAt {
					if fused.DetectedAt[i] != ref.DetectedAt[i] {
						t.Fatalf("%s: fault %d (%v) fused DetectedAt=%d, oblivious %d",
							name, i, ref.Faults[i].Site, fused.DetectedAt[i], ref.DetectedAt[i])
					}
					if fused.SignatureGroups[i] != ref.SignatureGroups[i] {
						t.Fatalf("%s: fault %d (%v) fused groups=%#x, oblivious %#x",
							name, i, ref.Faults[i].Site, fused.SignatureGroups[i], ref.SignatureGroups[i])
					}
				}
				fd := BuildDictionary(fused)
				for i := range refDict.Signatures {
					if fd.Signatures[i] != refDict.Signatures[i] {
						t.Fatalf("%s: dictionary entry %d differs: fused %+v, oblivious %+v",
							name, i, fd.Signatures[i], refDict.Signatures[i])
					}
				}
			}
		}
	}
}

// TestFusionStatsExact pins the accounting contract of fusion against the
// pass plan itself: every pass fast-forwards to its checkpoint floor,
// reconstructs the floor-to-activation cycles from deltas instead of
// simulating them, and fuses with its neighbours when they share that
// floor. The fault list is restricted to faults activating strictly
// inside a window (act % k != 0, act > 0) so every pass has a nonzero
// boundary-to-activation span and the saved-cycles count is exercised on
// nonzero numbers.
func TestFusionStatsExact(t *testing.T) {
	const cycles, k = 240, 16
	cpu := getCPU(t)
	g := fusionTestGolden(t, cpu, cycles, k)
	var faults []Fault
	for _, f := range Universe(cpu.Netlist) {
		if act := g.ActivationCycle(cpu.Netlist, f.Site); act > 0 && act%k != 0 {
			faults = append(faults, f)
		}
	}
	if len(faults) < 128 {
		t.Fatalf("only %d mid-window-activating faults; the fixture no longer exercises replay", len(faults))
	}
	opt := Options{Engine: EngineEvent, LaneWords: 1, Workers: 1, Sample: 256, Seed: 3}
	res, err := Simulate(cpu, g, faults, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := PlanPasses(cpu.Netlist, g, SampleFaults(faults, opt.Sample, opt.Seed), opt.Engine, opt.LaneWords)
	if err != nil {
		t.Fatal(err)
	}

	var widths [widthSlots]int64
	var ff, saved, fusedWins int64
	runLen := 0
	for i, j := range plan {
		widths[widthLog2(j.Width)]++
		floor := g.CheckpointFloor(j.Start)
		ff += int64(floor)
		saved += int64(j.Start - floor)
		// A window is a maximal run of consecutive passes sharing a floor;
		// count each run once, at its second pass.
		if i > 0 && g.CheckpointFloor(plan[i-1].Start) == floor {
			runLen++
		} else {
			runLen = 1
		}
		if runLen == 2 {
			fusedWins++
		}
	}
	st := res.Stats
	if st.Passes != int64(len(plan)) || st.PassWidthHist != widths {
		t.Fatalf("ran %d passes %v, plan has %d passes %v", st.Passes, st.PassWidthHist, len(plan), widths)
	}
	if st.FastForwarded != ff {
		t.Fatalf("FastForwarded = %d, want the plan's summed checkpoint floors %d", st.FastForwarded, ff)
	}
	if saved <= 0 {
		t.Fatalf("plan spans %d floor-to-activation cycles; fixture must make replay nonzero", saved)
	}
	if st.ReplaySavedCycles != saved {
		t.Fatalf("ReplaySavedCycles = %d, want the plan's summed floor-to-activation spans %d", st.ReplaySavedCycles, saved)
	}
	// The run must actually have fused (multiple 64-lane passes land in
	// one window here) and warm-restored every pass after the first on
	// its one simulator.
	if fusedWins < 1 || st.FusedWindows != fusedWins {
		t.Fatalf("FusedWindows = %d, want the plan's %d multi-pass windows (>= 1)", st.FusedWindows, fusedWins)
	}
	if st.HookDiffs != st.Passes-1 {
		t.Fatalf("HookDiffs = %d, want %d (every pass after the first warm-restores)", st.HookDiffs, st.Passes-1)
	}
}

// TestPlanPassesEmptyUniverse is the regression for planning a universe
// with nothing in it: no faults means no passes, not an index panic in
// the width policy.
func TestPlanPassesEmptyUniverse(t *testing.T) {
	cpu := getCPU(t)
	g := fusionTestGolden(t, cpu, 64, 16)
	for _, eng := range []Engine{EngineEvent, EngineOblivious} {
		jobs, skipped, err := PlanPasses(cpu.Netlist, g, nil, eng, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 0 || skipped != 0 {
			t.Fatalf("engine %v: empty universe planned %d passes, %d skipped", eng, len(jobs), skipped)
		}
	}
	res, err := Simulate(cpu, g, nil, Options{Engine: EngineEvent})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DetectedAt) != 0 || res.Stats.Passes != 0 {
		t.Fatalf("empty simulation ran %d passes over %d faults", res.Stats.Passes, len(res.DetectedAt))
	}
}

// TestPlanPassesAllUndetectable is the regression for a universe whose
// every fault is provably undetectable (never activates in the golden
// run): the plan must come back empty with everything counted skipped,
// and Simulate must grade it without dividing by an empty pass.
func TestPlanPassesAllUndetectable(t *testing.T) {
	cpu := getCPU(t)
	// A short run leaves plenty of signals constant; the polarity matching
	// a constant signal's held value never activates.
	g := fusionTestGolden(t, cpu, 24, 8)
	var dead []Fault
	for _, f := range Universe(cpu.Netlist) {
		if g.ActivationCycle(cpu.Netlist, f.Site) < 0 {
			dead = append(dead, f)
			if len(dead) == 200 {
				break
			}
		}
	}
	if len(dead) == 0 {
		t.Skip("no never-activating faults in this golden run")
	}
	jobs, skipped, err := PlanPasses(cpu.Netlist, g, dead, EngineEvent, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("planned %d passes for an all-undetectable universe", len(jobs))
	}
	if skipped != int64(len(dead)) {
		t.Fatalf("skipped %d of %d undetectable faults", skipped, len(dead))
	}
	res, err := Simulate(cpu, g, dead, Options{Engine: EngineEvent, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.DetectedAt {
		if d != -1 {
			t.Fatalf("undetectable fault %d (%v) graded detected at %d", i, dead[i].Site, d)
		}
	}
	if res.Stats.Passes != 0 {
		t.Fatalf("ran %d passes for an all-undetectable universe", res.Stats.Passes)
	}
}
