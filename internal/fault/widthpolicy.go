package fault

import (
	"math/bits"

	"repro/internal/gate"
	"repro/internal/plasma"
)

// Cost-model lane-width selection for differential pass packing.
//
// The old policy was a heuristic: every full chunk of the activation-sorted
// fault order packed at the width cap, and the final residue packed at the
// narrowest width that held it. That was right when the cap was 8 words,
// because per-pass fixed costs dwarfed the marginal word cost; at a 64-word
// cap (4096 machines/pass) the trade is no longer one-sided. A wider pass
// amortizes the per-cycle fixed overhead (level-queue sweep, read-data
// drive, golden compare, latch bookkeeping) over more machines, but it
//
//   - simulates the union of its faults' fanout cones — event activity per
//     cycle grows with the number of distinct cone regions disturbed, and
//     every dirty gate is re-evaluated over w words; and
//   - starts at the earliest activation among more faults, so the late
//     activators in the chunk are dragged through cycles where their lanes
//     sit idle.
//
// chooseWidth therefore estimates the grading cost of the candidate pass at
// every width and takes the cheapest per fault carried.

// actFault is one activatable fault of the activation-sorted packing order.
type actFault struct {
	idx  int    // index into the caller's fault list
	act  int32  // first cycle the fault can diverge from the golden machine
	cone uint64 // fanout-cone signature bucket mask (gate.FanoutConeSigs)
	comp gate.CompID
}

// Per-cycle pass cost model, in arbitrary units (only the ratios matter):
//
//	cost/cycle = costFixed + w*wordScale(w)*(costWordBase + costWordCone*cones)
//
// where w is the lane width in words and cones is the popcount of the OR of
// the pass's cone signatures (1..64 distinct fanout-cone buckets). The
// constants were fit on the reference machine from the end-to-end
// BenchmarkPassRunnerWidth sweep (full-universe sample, cones saturated):
// per-pass time divided by pass count gives ~0.12s fixed + ~0.026s/word,
// i.e. a fixed:word ratio of about 4.5:1 at full cone activity. The word
// term is dominated by the wide sweep/compare work of golden switching
// activity (every queued gate re-evaluates over w words), so it shrinks
// with cone overlap; the fixed term is reset, fast-forward, replay drive
// and per-cycle bookkeeping.
const (
	costFixed    = 120.0
	costWordBase = 9.0
	costWordCone = 0.27
)

// wordScale adjusts the per-word cost for the lane width. With the AVX2
// batch kernels (w >= 8 only — the narrower widths have no kernels) the
// per-word cost drops below the scalar baseline until cache pressure
// claws the kernel win back at the widest rows: at w=64 the working set
// is 512 B per signal and the sweep goes memory-bound, so the 32 → 64
// step is roughly flat end to end. The table is the same on every host,
// whatever kernels it runs, so a program gets the same plan — the same
// passes, widths, shard weights and dispatch — everywhere.
//
// The row is the one first fit for 512-bit kernels (BENCH_faultsim.json
// holds the sweep), kept because it is what holds full-universe memory
// down: on the reference box (2 vCPU) the AVX2-fit row (0.80/0.78/0.86)
// changed the full Table 5 plan and raised its peak RSS from ~45 MB to
// 56-59 MB, while this row with AVX2 kernels stays at 42-52 MB with
// throughput inside run-to-run noise (EXPERIMENTS.md, "Kernel matrix").
func wordScale(w int) float64 {
	switch {
	case w >= 64:
		return 0.84
	case w >= 32:
		return 0.75
	case w >= 8:
		return 0.70
	}
	return 1.0
}

// chooseWidth picks the lane width for the next pass of the
// activation-sorted order starting at lo. It returns the chosen width and
// the end of the taken range. The
// estimated pass cost is the simulated span (golden cycles from the
// checkpoint boundary below the earliest activation to the end of the run)
// times the modeled per-cycle cost; dividing by the number of faults
// carried makes widths with idle lanes pay for them.
func chooseWidth(order []actFault, lo, maxW int, golden *plasma.Golden) (w, hi int) {
	rem := len(order) - lo
	bestW, bestHi := 1, lo+min(64, rem)
	bestCost := passCost(golden, minAct(order[lo:bestHi]), order[lo:bestHi], 1)
	for cw := 2; cw <= maxW; cw *= 2 {
		chi := lo + min(64*cw, rem)
		if c := passCost(golden, minAct(order[lo:chi]), order[lo:chi], cw); c <= bestCost {
			bestW, bestHi, bestCost = cw, chi, c
		}
		if chi == len(order) {
			break // wider candidates would carry the same faults for more cost
		}
	}
	return bestW, bestHi
}

// passCost estimates the per-fault grading cost of one pass of width w
// carrying the given faults from their earliest activation. An empty
// candidate costs nothing: the guard keeps the division from producing
// NaN when a caller (PlanPasses on an empty or fully-skipped universe)
// reaches the cost model with no faults to carry.
func passCost(golden *plasma.Golden, start int32, faults []actFault, w int) float64 {
	if len(faults) == 0 {
		return 0
	}
	var cones uint64
	for i := range faults {
		cones |= faults[i].cone
	}
	span := golden.Cycles - int(golden.CheckpointFloor(start))
	perCycle := costFixed + float64(w)*wordScale(w)*(costWordBase+costWordCone*float64(bits.OnesCount64(cones)))
	return float64(span) * perCycle / float64(len(faults))
}

// minAct returns the earliest activation cycle among the faults, or 0 for
// an empty slice (the guard against indexing an empty candidate range).
func minAct(faults []actFault) int32 {
	if len(faults) == 0 {
		return 0
	}
	start := faults[0].act
	for i := 1; i < len(faults); i++ {
		if faults[i].act < start {
			start = faults[i].act
		}
	}
	return start
}
