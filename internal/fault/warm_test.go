package fault

import (
	"sync"
	"testing"

	"repro/internal/plasma"
)

// warmTestPlan samples the universe and plans it against a golden the way
// a grading service would: sample once, plan once, grade many times.
func warmTestPlan(t *testing.T, g *plasma.Golden, sample, laneWords int) ([]Fault, []PassGroup) {
	t.Helper()
	cpu := getCPU(t)
	faults := SampleFaults(Universe(cpu.Netlist), sample, 1)
	plan, _, err := PlanPasses(cpu.Netlist, g, faults, EngineEvent, laneWords)
	if err != nil {
		t.Fatal(err)
	}
	return faults, plan
}

func requireSameOutcomes(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.DetectedAt) != len(want.DetectedAt) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(got.DetectedAt), len(want.DetectedAt))
	}
	for i := range want.DetectedAt {
		if got.DetectedAt[i] != want.DetectedAt[i] || got.SignatureGroups[i] != want.SignatureGroups[i] {
			t.Fatalf("%s: fault %d: warm (%d, %d) vs Simulate (%d, %d)",
				label, i, got.DetectedAt[i], got.SignatureGroups[i], want.DetectedAt[i], want.SignatureGroups[i])
		}
	}
}

// requireSameWork requires two runs of one plan to have done identical
// work: every SimStats counter — passes, cycles, restores, evaluator and
// kernel activity, drop and exit histograms — except SkippedFaults, which
// is plan-time knowledge a Warm.Grade caller adds itself.
func requireSameWork(t *testing.T, label string, got, want *SimStats) {
	t.Helper()
	g, w := *got, *want
	g.SkippedFaults, w.SkippedFaults = 0, 0
	if g != w {
		t.Fatalf("%s: work counters differ:\nwarm     %+v\nSimulate %+v", label, g, w)
	}
}

// TestWarmGradeMatchesSimulate grades two different programs repeatedly,
// interleaved, on ONE Warm grader — the grading-service steady state,
// where every request after the first restores warm simulators by hook
// and state diffs — and requires each grade bit-identical to a fresh
// in-process Simulate of the same golden and faults. The grader's first
// grade starts from the same empty state as Simulate's single worker, so
// it must also have done exactly the same work: both entry points run one
// pass loop.
func TestWarmGradeMatchesSimulate(t *testing.T) {
	cpu := getCPU(t)
	gA := captureTestGolden(t, equivTestProgram, 400)
	gB := captureTestGolden(t, smokeProgram, 80)
	sample := 256
	if testing.Short() {
		sample = 96
	}
	// Program A plans at one-word lanes, so its grade runs several passes
	// on one simulator and exercises the restore and fusion counters.
	faultsA, planA := warmTestPlan(t, gA, sample, 1)
	faultsB, planB := warmTestPlan(t, gB, sample, 0)

	wantA, err := Simulate(cpu, gA, faultsA, Options{Workers: 1, LaneWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := Simulate(cpu, gB, faultsB, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	w := NewWarm(cpu, EngineEvent)
	var res Result
	for round := 0; round < 3; round++ {
		GrowResult(&res, faultsA)
		if err := w.Grade(gA, faultsA, planA, &res); err != nil {
			t.Fatal(err)
		}
		requireSameOutcomes(t, "golden A", &res, wantA)
		if round == 0 {
			requireSameWork(t, "golden A", &res.Stats, &wantA.Stats)
		}
		GrowResult(&res, faultsB)
		if err := w.Grade(gB, faultsB, planB, &res); err != nil {
			t.Fatal(err)
		}
		requireSameOutcomes(t, "golden B", &res, wantB)
	}
	if w.ColdSims == 0 {
		t.Fatal("no simulator was ever constructed")
	}
	// The grader must not have rebuilt simulators per request: at most one
	// construction per distinct pass width across all six grades (the two
	// plans may land on different widths, e.g. at the -short sample), and
	// every other grade must have reused a warm simulator.
	widths := map[int]bool{}
	for _, j := range append(append([]PassGroup{}, planA...), planB...) {
		widths[j.Width] = true
	}
	if int(w.ColdSims) > len(widths) {
		t.Fatalf("ColdSims = %d over %d distinct widths; simulators are being rebuilt", w.ColdSims, len(widths))
	}
	if want := int64(6 - len(widths)); w.WarmGrades < want {
		t.Fatalf("WarmGrades = %d, want >= %d; grades after a width's first should reuse its warm simulator", w.WarmGrades, want)
	}
}

// TestWarmConcurrentSharedPlan is the concurrent-read-sharing contract of
// PlanPasses output and plasma.Golden: N goroutines, each with its own
// Warm grader, grade the SAME golden trace and the SAME plan slices
// concurrently (run under -race by scripts/check.sh), and every one must
// be bit-identical to the sequential Simulate reference.
func TestWarmConcurrentSharedPlan(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, equivTestProgram, 400)
	sample := 256
	if testing.Short() {
		sample = 96
	}
	faults, plan := warmTestPlan(t, g, sample, 0)
	want, err := Simulate(cpu, g, faults, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const graders = 4
	const grades = 3
	var wg sync.WaitGroup
	errs := make([]error, graders)
	results := make([]*Result, graders)
	for i := 0; i < graders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWarm(cpu, EngineEvent)
			res := &Result{}
			for r := 0; r < grades; r++ {
				GrowResult(res, faults)
				if err := w.Grade(g, faults, plan, res); err != nil {
					errs[i] = err
					return
				}
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("grader %d: %v", i, err)
		}
		requireSameOutcomes(t, "concurrent grader", results[i], want)
	}
}
