package fault

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDispatchCoversPlan checks the balanced dispatch against the plan it
// cuts: at every worker count each planned fault lands in exactly one
// dispatched pass, every part is packed as the planner would pack it
// alone (narrowest width holding it, start at its earliest activation),
// and one worker gets exactly the plan's checkpoint windows.
func TestDispatchCoversPlan(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, equivTestProgram, 400)
	faults := SampleFaults(Universe(cpu.Netlist), 512, 5)
	for _, lanes := range []int{0, 1, 4} {
		plan, _, err := PlanPasses(cpu.Netlist, g, faults, EngineEvent, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			name := fmt.Sprintf("lanes=%d workers=%d", lanes, workers)
			var st SimStats
			units := dispatch(cpu.Netlist, g, faults, plan, EngineEvent, workers, &st)
			if workers == 1 {
				if !reflect.DeepEqual(units, groupWindows(plan, g)) {
					t.Fatalf("%s: dispatch is not the plan's checkpoint windows", name)
				}
				if st != (SimStats{}) {
					t.Fatalf("%s: one-worker dispatch recorded stats %+v", name, st)
				}
			} else if st.DispatchUnits != int64(len(units)) || st.MaxUnitShare <= 0 || st.MaxUnitShare > 1 ||
				len(plan) == 1 && st.PassesSplit != 1 {
				t.Fatalf("%s: dispatch stats %+v for %d units of a %d-pass plan", name, st, len(units), len(plan))
			}
			seen := make([]int, len(faults))
			for _, u := range units {
				for _, p := range u {
					if p.Width != narrowestWidth(len(p.Idxs)) {
						t.Fatalf("%s: %d faults packed at width %d", name, len(p.Idxs), p.Width)
					}
					start := int32(-1)
					for _, idx := range p.Idxs {
						seen[idx]++
						if act := g.ActivationCycle(cpu.Netlist, faults[idx].Site); start < 0 || act < start {
							start = act
						}
					}
					if p.Start != start {
						t.Fatalf("%s: pass starts at %d, its earliest activation is %d", name, p.Start, start)
					}
				}
			}
			want := make([]int, len(faults))
			for _, p := range plan {
				for _, idx := range p.Idxs {
					want[idx] = 1
				}
			}
			if !reflect.DeepEqual(seen, want) {
				t.Fatalf("%s: dispatched passes do not carry each planned fault exactly once", name)
			}
		}
	}
}

// TestSplitPassBitIdentical grades a plan that is a single pass — the
// sampled Table 5 shape, where every worker but one used to sit idle —
// at one, two and three workers. The pass is split across the workers,
// and every fault's detection cycle and signature groups must not move.
func TestSplitPassBitIdentical(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, equivTestProgram, 400)
	// The width policy's constants differ per kernel tier, so take the
	// largest sample that this tier packs into one multi-word pass.
	var faults []Fault
	for _, n := range []int{1024, 768, 512, 384, 256} {
		faults = SampleFaults(Universe(cpu.Netlist), n, 9)
		plan, _, err := PlanPasses(cpu.Netlist, g, faults, EngineEvent, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) == 1 && plan[0].Width > 1 {
			break
		}
		faults = nil
	}
	if faults == nil {
		t.Fatal("no fixture sample packs into one multi-word pass")
	}
	ref, err := Simulate(cpu, g, faults, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		res, err := Simulate(cpu, g, faults, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PassesSplit != 1 || res.Stats.Passes != int64(workers) {
			t.Fatalf("workers=%d: %d passes split into %d passes, want 1 into %d",
				workers, res.Stats.PassesSplit, res.Stats.Passes, workers)
		}
		requireSameOutcomes(t, fmt.Sprintf("workers=%d", workers), res, ref)
	}
}
