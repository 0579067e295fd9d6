package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plasma"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/synth"
)

// TestMain makes this test binary a valid shard session worker for
// shard.LocalHosts, so the bit-identity matrix below can exercise the
// sharded grading path the same way cmd/sbst -shards does.
func TestMain(m *testing.M) {
	shard.ServeIfWorker()
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite golden files with current results")

var (
	ladderOnce sync.Once
	ladderEnvs []*Env
	ladderErr  error
)

// getLadder builds (once per test binary) one environment per core-ladder
// variant, all on the native library with no disk cache.
func getLadder(t *testing.T) []*Env {
	t.Helper()
	ladderOnce.Do(func() { ladderEnvs, ladderErr = LadderEnvs(synth.NativeLib{}, nil) })
	if ladderErr != nil {
		t.Fatal(ladderErr)
	}
	return ladderEnvs
}

var (
	sharedOnce sync.Once
	sharedST   *core.SelfTest
	sharedErr  error
)

// sharedWorkload builds the cross-variant comparative program: every
// Phase A/B routine that runs unchanged on all three cores (no MulD
// routine, no mul/div opcodes anywhere), in test-priority order. Its
// architectural results must be identical on every rung of the ladder.
func sharedWorkload(t *testing.T) *core.SelfTest {
	t.Helper()
	sharedOnce.Do(func() {
		opts := core.RoutineOptions{NoMulDiv: true}
		var routines []core.Routine
		for _, name := range []string{"RegF", "ALU", "BSH", "MCTRL", "PCL"} {
			r, ok := core.RoutineByNameFor(name, opts)
			if !ok {
				sharedErr = fmt.Errorf("no %s routine", name)
				return
			}
			routines = append(routines, r)
		}
		sharedST, sharedErr = core.BuildProgram(routines)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedST
}

// runShared executes the shared workload gate-level on one variant and
// returns the halted machine.
func runShared(t *testing.T, e *Env, st *core.SelfTest) *plasma.Machine {
	t.Helper()
	m, halted, err := plasma.RunProgram(e.CPU, st.Program, st.Cycles*4+4096, false)
	if err != nil {
		t.Fatalf("%s: %v", e.Variant, err)
	}
	if !halted {
		t.Fatalf("%s: shared workload did not halt", e.Variant)
	}
	return m
}

// TestLadderSharedWorkloadIdenticalResults is the comparative harness
// headline: one Phase A/B workload runs on every core variant, and every
// variant must produce the identical architectural result (the full
// response region plus the 0x600D completion marker) even though each
// core takes a different number of clock cycles to get there.
func TestLadderSharedWorkloadIdenticalResults(t *testing.T) {
	envs := getLadder(t)
	st := sharedWorkload(t)

	// Reference responses from the instruction-set simulator, with the
	// nomul contract enforced (any mul/div opcode would be a hard error).
	mem := sim.NewMemory()
	mem.LoadProgram(st.Program)
	iss := sim.New(mem, 0)
	iss.NoMulDiv = true
	halted, err := iss.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !halted {
		t.Fatal("ISS did not halt")
	}
	want := make([]uint32, st.RespWords+1) // responses + completion marker
	for i := range want {
		want[i] = mem.Word(core.DefaultRespBase + uint32(i)*4)
	}
	if marker := want[st.RespWords]; marker != 0x600D {
		t.Fatalf("ISS completion marker = %#x", marker)
	}

	cycles := map[string]uint64{}
	for _, e := range envs {
		e := e
		t.Run(e.Variant, func(t *testing.T) {
			m := runShared(t, e, st)
			for i := range want {
				got := m.Mem.Word(core.DefaultRespBase + uint32(i)*4)
				if got != want[i] {
					t.Fatalf("response word %d = %#x, ISS says %#x", i, got, want[i])
				}
			}
			cycles[e.Variant] = m.Cycle
			t.Logf("%s: %d gate cycles (ISS %d)", e.Variant, m.Cycle, iss.Cycle)
		})
	}

	// The cores agree on results, not on timing: the 5-stage pipeline pays
	// bubbles the 3-stage cores don't, so its cycle count must differ.
	if len(cycles) == len(envs) {
		if cycles[plasma.VariantFwd5] == cycles[plasma.VariantBase] {
			t.Errorf("fwd5 and base took identical cycle counts (%d): pipeline timing not exercised",
				cycles[plasma.VariantFwd5])
		}
		if cycles[plasma.VariantFwd5] <= cycles[plasma.VariantBase] {
			t.Errorf("fwd5 (%d cycles) faster than base (%d): bubbles and squashes should cost cycles on this workload",
				cycles[plasma.VariantFwd5], cycles[plasma.VariantBase])
		}
	}
}

// TestLadderBitIdentity grades the shared workload on every variant under
// a matrix of engine × lane-width × sharding configs and
// asserts every cell produces bit-identical per-fault outcomes (DetectedAt
// and SignatureGroups) — the cross-variant extension of the repo's
// engine-equivalence guarantee.
func TestLadderBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full grading matrix is slow")
	}
	envs := getLadder(t)
	st := sharedWorkload(t)

	type cfg struct {
		name   string
		opt    fault.Options
		shards int
	}
	cfgs := []cfg{
		{"event/adaptive", fault.Options{Engine: fault.EngineEvent}, 1},
		{"event/lanes8", fault.Options{Engine: fault.EngineEvent, LaneWords: 8}, 1},
		{"event/lanes1", fault.Options{Engine: fault.EngineEvent, LaneWords: 1}, 1},
		{"oblivious/lanes4", fault.Options{Engine: fault.EngineOblivious, LaneWords: 4}, 1},
		{"event/adaptive/2shards", fault.Options{Engine: fault.EngineEvent}, 2},
	}

	for _, e := range envs {
		e := e
		t.Run(e.Variant, func(t *testing.T) {
			m := runShared(t, e, st)
			golden, err := plasma.CaptureGolden(e.CPU, st.Program, int(m.Cycle)+16)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.SampleFaults(e.Faults(), 256, 7)

			var ref *fault.Result
			for _, c := range cfgs {
				var res *fault.Result
				if c.shards > 1 {
					var hosts []shard.HostSpec
					if hosts, err = shard.LocalHosts(c.shards); err != nil {
						t.Fatal(err)
					}
					res, _, err = shard.GradeDist(e.CPU, golden, faults, shard.DistOptions{
						Hosts:     hosts,
						Engine:    c.opt.Engine,
						LaneWords: c.opt.LaneWords,
					})
				} else {
					res, err = fault.Simulate(e.CPU, golden, faults, c.opt)
				}
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if ref == nil {
					ref = res
					t.Logf("%s: %.2f%% of %d sampled faults detected", e.Variant,
						res.Coverage(), len(faults))
					continue
				}
				for i := range ref.DetectedAt {
					if res.DetectedAt[i] != ref.DetectedAt[i] {
						t.Fatalf("%s: fault %d (%v) DetectedAt %d, reference %d",
							c.name, i, faults[i].Site, res.DetectedAt[i], ref.DetectedAt[i])
					}
					if res.SignatureGroups[i] != ref.SignatureGroups[i] {
						t.Fatalf("%s: fault %d signature %#x, reference %#x",
							c.name, i, res.SignatureGroups[i], ref.SignatureGroups[i])
					}
				}
			}
		})
	}
}

// TestLadderCoverageGolden pins each variant's Phase A fault coverage on
// the shared sample to a golden file: the comparative numbers the ladder
// report prints must not drift silently when the routines, the netlists,
// or the grading engines change. Regenerate with -update after a
// deliberate change.
func TestLadderCoverageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three-variant grading is slow")
	}
	envs := getLadder(t)
	opt := fault.Options{Sample: 512, Seed: 3}

	var sb strings.Builder
	sb.WriteString("# Per-variant Phase A fault coverage, native library, sample 512 seed 3.\n")
	sb.WriteString("# Regenerate: go test ./internal/bench -run TestLadderCoverageGolden -update\n")
	for _, e := range envs {
		rep, err := e.FaultSimSelfTest(core.PhaseA, opt)
		if err != nil {
			t.Fatalf("%s: %v", e.Variant, err)
		}
		st, err := e.SelfTest(core.PhaseA)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s faults=%d words=%d fc=%.2f\n",
			e.Variant, len(e.Faults()), st.Words, overallFC(rep))
	}
	got := sb.String()

	path := filepath.Join("testdata", "ladder_coverage.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("ladder coverage drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLadderTable runs the full comparative flow (Table 3-5 per variant)
// at Phase A with a small sample and sanity-checks the rendered table.
func TestLadderTable(t *testing.T) {
	if testing.Short() {
		t.Skip("three full flows are slow")
	}
	envs := getLadder(t)
	rows, s, err := Ladder(envs, core.PhaseA, fault.Options{Sample: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(plasma.Variants()) {
		t.Fatalf("ladder rows = %d, want %d", len(rows), len(plasma.Variants()))
	}
	byName := map[string]LadderRow{}
	for _, r := range rows {
		byName[r.Variant] = r
		if r.FC < 70 {
			t.Errorf("%s Phase A coverage %.1f%% implausibly low", r.Variant, r.FC)
		}
		if r.GateCycles <= 0 || r.Words <= 0 || r.Faults <= 0 {
			t.Errorf("%s degenerate row: %+v", r.Variant, r)
		}
	}
	// Structural ordering across the ladder: the forwarding pipeline is
	// the biggest core, the multiplier-less one the smallest.
	if !(byName[plasma.VariantFwd5].Gates > byName[plasma.VariantBase].Gates &&
		byName[plasma.VariantBase].Gates > byName[plasma.VariantNoMul].Gates) {
		t.Errorf("gate-count ladder out of order: %+v", byName)
	}
	if byName[plasma.VariantNoMul].Words >= byName[plasma.VariantBase].Words {
		t.Errorf("nomul program (%d words) not smaller than base (%d)",
			byName[plasma.VariantNoMul].Words, byName[plasma.VariantBase].Words)
	}
	for _, want := range []string{"Variant", "base", "fwd5", "nomul", "FC%"} {
		if !strings.Contains(s, want) {
			t.Errorf("ladder rendering missing %q:\n%s", want, s)
		}
	}
}
