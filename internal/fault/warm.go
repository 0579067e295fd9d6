package fault

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/plasma"
)

// Warm is a persistent grading context: one set of per-width simulators
// that survives across grading requests, so the per-request cost is the
// simulation itself, never simulator construction. A long-running grading
// service keeps a pool of Warm graders and routes each request to an idle
// one; every request after the first reuses the previous request's
// simulators through the same warm-restart machinery fused
// checkpoint-window dispatch uses between passes (gate.Sim.ReplaceFaults
// hook-set diffs + gate.Sim.RestoreState flip-flop state diffs), so a new
// request costs a state diff, not a cold build.
//
// A Warm grader is single-goroutine: Grade must not be called
// concurrently on one Warm. Concurrency comes from a pool of them, which
// is safe because everything a Grade call reads besides the grader itself
// — the netlist, the golden trace, the fault list and the pass plan — is
// immutable: see the package-level notes on PlanPasses and
// plasma.Golden read sharing.
//
// Grade is bit-identical to Simulate over the same plan (asserted in
// tests): a fault's outcome depends only on its own lane's trajectory,
// never on which simulator instance carries it or what that simulator
// graded before.
type Warm struct {
	cpu    *plasma.CPU
	engine Engine

	runners [widthSlots]*passRunner
	cursor  stateCursor

	// Cumulative evaluator counters at the last stats collection, per
	// width slot; gate.Sim counters are totals since construction, and a
	// Warm simulator outlives many grades, so per-grade stats are deltas.
	prevEvals, prevEvents [widthSlots]uint64
	prevKernel            [widthSlots]gate.KernelStats

	// ColdSims counts simulator constructions (at most one per lane width
	// over the grader's whole lifetime); WarmGrades counts Grade calls
	// that found at least one already-built simulator to reuse. Their
	// ratio is the amortization a grading service exists to buy.
	ColdSims   int64
	WarmGrades int64
}

// NewWarm returns an empty warm grading context for the CPU. Simulators
// are built lazily, one per pass width first seen, on the first Grade
// calls that need them.
func NewWarm(cpu *plasma.CPU, engine Engine) *Warm {
	return &Warm{cpu: cpu, engine: engine}
}

// grow returns buf resliced to n, reallocating only when the capacity is
// insufficient — the reuse that makes repeated Grade calls on pooled
// result buffers allocation-free in steady state.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// GrowResult sizes a (possibly recycled) Result's outcome arrays for a
// fault list, reusing their capacity, and resets every outcome to
// undetected. Callers pass the result to Grade afterwards.
func GrowResult(res *Result, faults []Fault) {
	res.Faults = faults
	res.DetectedAt = grow(res.DetectedAt, len(faults))
	res.SignatureGroups = grow(res.SignatureGroups, len(faults))
	for i := range res.DetectedAt {
		res.DetectedAt[i] = -1
	}
	for i := range res.SignatureGroups {
		res.SignatureGroups[i] = 0
	}
	res.Stats = SimStats{}
}

// Grade fault-simulates one planned request on the warm simulators:
// faults is the (already sampled) fault list, plan its deterministic pass
// packing from PlanPasses over the same golden, engine and lane-width
// cap, and res a result prepared by GrowResult(res, faults). The golden
// may differ from the previous call's — any trace captured on the same
// netlist grades on the same warm simulators.
//
// res.Stats covers this grade only. Plan-time knowledge the caller holds
// is not re-derived: PlanPasses' skipped count is the caller's to add to
// res.Stats.SkippedFaults.
func (w *Warm) Grade(golden *plasma.Golden, faults []Fault, plan []PassGroup, res *Result) error {
	if len(res.DetectedAt) != len(faults) || len(res.SignatureGroups) != len(faults) {
		return fmt.Errorf("fault: Warm.Grade result sized for %d/%d faults, want %d (use GrowResult)",
			len(res.DetectedAt), len(res.SignatureGroups), len(faults))
	}
	res.Faults = faults
	res.Cycles = golden.Cycles
	res.Stats.setGoldenBytes(golden)
	if err := w.grade(golden, faults, plan, res.DetectedAt, res.SignatureGroups); err != nil {
		return err
	}
	w.collectStats(&res.Stats)
	return nil
}

// grade runs passes in order on the warm simulators, writing each fault's
// outcome into detectedAt and sigGroups. It is the one pass loop behind
// both entry points: Grade hands it a whole plan, and each Simulate worker
// hands it one checkpoint window at a time. Work counters accumulate in
// the runners until collectStats.
func (w *Warm) grade(golden *plasma.Golden, faults []Fault, passes []PassGroup, detectedAt []int32, sigGroups []uint8) error {
	diff := differential(w.engine, golden)
	// Rebind the rolling golden-state cursor to this trace. Same netlist,
	// so the snapshot width never changes.
	w.cursor = stateCursor{g: golden, buf: grow(w.cursor.buf, golden.StateWords())}

	warmed := false
	// Consecutive passes sharing a checkpoint floor form one fused window;
	// only the count needs to know, so no window slices are materialized.
	var winFloor int32 = -1
	var winLen int
	for _, j := range passes {
		lg := widthLog2(j.Width)
		r := w.runners[lg]
		if r == nil {
			var s *gate.Sim
			var err error
			if w.engine == EngineOblivious {
				s, err = gate.NewSimWidth(w.cpu.Netlist, j.Width)
			} else {
				s, err = gate.NewEventSimWidth(w.cpu.Netlist, j.Width)
			}
			if err != nil {
				return err
			}
			r = newPassRunner(w.cpu, s, golden)
			w.runners[lg] = r
			w.ColdSims++
		} else {
			r.golden = golden
			warmed = true
		}
		var start []uint64
		if diff || j.Start > 0 {
			start = w.cursor.stateAt(j.Start)
		}
		if diff {
			if f := golden.CheckpointFloor(j.Start); f != winFloor || winLen == 0 {
				winFloor, winLen = f, 1
			} else {
				winLen++
				if winLen == 2 {
					r.stats.FusedWindows++
				}
			}
		}
		r.runPass(faults, j, detectedAt, sigGroups, start)
	}
	if warmed {
		w.WarmGrades++
	}
	return nil
}

// collectStats folds each runner's per-grade work counters into dst and
// re-arms them for the next grade. Evaluator counters are cumulative over
// a simulator's lifetime, so the per-grade figure is the delta since the
// previous collection.
func (w *Warm) collectStats(dst *SimStats) {
	for lg, r := range w.runners {
		if r == nil {
			continue
		}
		if evals, events := r.sim.EvalStats(); r.sim.EventDriven() {
			r.stats.GateEvals = int64(evals - w.prevEvals[lg])
			r.stats.Events = int64(events - w.prevEvents[lg])
			w.prevEvals[lg], w.prevEvents[lg] = evals, events
		} else {
			r.stats.GateEvals = r.stats.SimCycles * int64(r.sim.CombGates())
		}
		r.stats.GateEvalsByWidth[lg] = r.stats.GateEvals
		ks := r.sim.KernelStats()
		r.stats.SIMDKernelRuns = int64(ks.SIMDRuns - w.prevKernel[lg].SIMDRuns)
		r.stats.GenericKernelRuns = int64(ks.GenericRuns - w.prevKernel[lg].GenericRuns)
		r.stats.SIMDRunsByWidth[lg] = r.stats.SIMDKernelRuns
		r.stats.GenericRunsByWidth[lg] = r.stats.GenericKernelRuns
		r.stats.BatchedGateEvals = int64(ks.BatchedGates - w.prevKernel[lg].BatchedGates)
		r.stats.UniformFastPathHits = int64(ks.UniformHits - w.prevKernel[lg].UniformHits)
		r.stats.ScalarKernelEvals = int64(ks.ScalarEvals - w.prevKernel[lg].ScalarEvals)
		w.prevKernel[lg] = ks
		dst.Add(&r.stats)
		r.stats = SimStats{}
	}
}
