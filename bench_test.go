// Package repro's benchmarks regenerate every evaluation artifact of the
// paper, one benchmark per table or figure-level claim. Fault-simulation
// benches use a deterministic 4096-fault sample so the whole suite runs in
// minutes; `go run ./cmd/report -table 5` (no -sample) reproduces the
// full-universe numbers recorded in EXPERIMENTS.md.
//
// Per-iteration metrics carry the reproduced quantities (FC%, words,
// cycles) so `go test -bench` output doubles as the results table.
package repro

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plasma"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/synth"
)

// TestMain lets this test binary double as a shard-grading worker and as
// a cold-start grading process: the coordinator tests and benchmarks
// re-execute it with a worker environment marker set (ServeIfWorker
// takes over), and
// BenchmarkServeThroughput's baseline re-executes it with the cold-grade
// marker so each request pays a real process start.
func TestMain(m *testing.M) {
	shard.ServeIfWorker()
	if spec := os.Getenv("SBST_BENCH_COLDGRADE"); spec != "" {
		os.Exit(coldGradeMain(spec))
	}
	os.Exit(m.Run())
}

// coldGradeMain is the per-request body of BenchmarkServeThroughput's
// cold baseline: everything a one-shot grading invocation pays after
// exec. spec is "progFile cycles sample seed"; progFile holds the
// fragment as decimal words, origin first.
func coldGradeMain(spec string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "coldgrade:", err)
		return 1
	}
	var progFile string
	var cycles, sample int
	var seed int64
	if _, err := fmt.Sscanf(spec, "%s %d %d %d", &progFile, &cycles, &sample, &seed); err != nil {
		return fail(err)
	}
	data, err := os.ReadFile(progFile)
	if err != nil {
		return fail(err)
	}
	var prog asm.Program
	for i, f := range strings.Fields(string(data)) {
		w, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return fail(err)
		}
		if i == 0 {
			prog.Origin = uint32(w)
		} else {
			prog.Words = append(prog.Words, uint32(w))
		}
	}
	cpu, err := plasma.Build(synth.NativeLib{})
	if err != nil {
		return fail(err)
	}
	g, err := plasma.CaptureGoldenK(cpu, &prog, cycles, plasma.DefaultCheckpointK)
	if err != nil {
		return fail(err)
	}
	opt := fault.Options{Sample: sample, Seed: seed, Workers: 1}
	if _, err := fault.Simulate(cpu, g, fault.Universe(cpu.Netlist), opt); err != nil {
		return fail(err)
	}
	return 0
}

var (
	onceA sync.Once
	envA  *bench.Env
	onceB sync.Once
	envB  *bench.Env
)

func benchEnv(tb testing.TB) *bench.Env {
	tb.Helper()
	onceA.Do(func() {
		var err error
		envA, err = bench.DefaultEnv()
		if err != nil {
			tb.Fatal(err)
		}
	})
	if envA == nil {
		tb.Fatal("environment failed to build")
	}
	return envA
}

func benchEnvB(b *testing.B) *bench.Env {
	b.Helper()
	onceB.Do(func() {
		var err error
		envB, err = bench.NewEnv(synth.NandLib{})
		if err != nil {
			b.Fatal(err)
		}
	})
	if envB == nil {
		b.Fatal("environment failed to build")
	}
	return envB
}

// benchOpt is the deterministic sampled fault-simulation configuration.
var benchOpt = fault.Options{Sample: 4096, Seed: 1}

// BenchmarkTable1Priority regenerates Table 1 (component class
// controllability/observability and test priority).
func BenchmarkTable1Priority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := bench.Table1(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Classification regenerates Table 2 (Plasma/MIPS component
// classification).
func BenchmarkTable2Classification(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Table2(e)
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable3GateCounts regenerates Table 3 (per-component gate counts
// in NAND2 equivalents).
func BenchmarkTable3GateCounts(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Table3(e)
		total = 0
		for _, r := range rows {
			total += r.Gates
		}
	}
	b.ReportMetric(total, "NAND2-gates")
}

// BenchmarkTable4ProgramStats regenerates Table 4 (self-test program words
// and clock cycles per phase).
func BenchmarkTable4ProgramStats(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var rows []bench.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Table4(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Words), "phaseA-words")
	b.ReportMetric(float64(rows[0].Cycles), "phaseA-cycles")
	b.ReportMetric(float64(rows[1].Words), "phaseAB-words")
	b.ReportMetric(float64(rows[1].Cycles), "phaseAB-cycles")
}

// BenchmarkTable5FaultCoverage regenerates Table 5 (per-component and
// overall stuck-at fault coverage after Phase A and Phase A+B), on the
// deterministic fault sample.
func BenchmarkTable5FaultCoverage(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var d *bench.Table5Data
	for i := 0; i < b.N; i++ {
		var err error
		d, _, err = bench.Table5(e, benchOpt, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fcOf(d.PhaseA), "phaseA-FC%")
	b.ReportMetric(fcOf(d.PhaseAB), "phaseAB-FC%")
}

func fcOf(r *fault.Report) float64 {
	return 100 * float64(r.Overall.DetW) / float64(r.Overall.TotalW)
}

// TestTable5ShardedEquivalence is the sharding acceptance criterion on
// the real workload: grading the Table 5 Phase A program across 4 local
// session subprocesses (the -shards 4 host list) must reproduce the
// unsharded run's coverage, DetectedAt and SignatureGroups bit for bit.
func TestTable5ShardedEquivalence(t *testing.T) {
	e := benchEnv(t)
	g, err := e.Golden(core.PhaseA)
	if err != nil {
		t.Fatal(err)
	}
	opt := benchOpt
	if testing.Short() {
		opt.Sample = 512
	}
	want, err := fault.Simulate(e.CPU, g, e.Faults(), opt)
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := shard.LocalHosts(4)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := shard.GradeDist(e.CPU, g, e.Faults(), shard.DistOptions{
		Hosts:  hosts,
		Sample: opt.Sample,
		Seed:   opt.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.DistHosts != 4 {
		t.Fatalf("graded on %d live sessions, want 4", got.Stats.DistHosts)
	}
	if got.Cycles != want.Cycles || len(got.Faults) != len(want.Faults) {
		t.Fatalf("shape mismatch: %d faults/%d cycles vs %d/%d",
			len(got.Faults), got.Cycles, len(want.Faults), want.Cycles)
	}
	for i := range want.Faults {
		if got.DetectedAt[i] != want.DetectedAt[i] || got.SignatureGroups[i] != want.SignatureGroups[i] {
			t.Fatalf("fault %d: sharded (%d, %d) vs unsharded (%d, %d)",
				i, got.DetectedAt[i], got.SignatureGroups[i], want.DetectedAt[i], want.SignatureGroups[i])
		}
	}
	if got.Coverage() != want.Coverage() || got.WeightedCoverage() != want.WeightedCoverage() {
		t.Fatalf("coverage %v/%v, want %v/%v",
			got.Coverage(), got.WeightedCoverage(), want.Coverage(), want.WeightedCoverage())
	}
}

// BenchmarkTable5FaultCoverageSharded is BenchmarkTable5FaultCoverage with
// every grading call fanned out across 4 local session subprocesses of
// this test binary (see TestMain) through the internal/shard coordinator.
// The sessions open the coordinator's artifact cache, which is shared
// across iterations, so workers load the netlist and golden trace from
// disk and nothing is pushed over the session. Results are
// bit-identical to the unsharded bench; the wall-clock ratio against
// BenchmarkTable5FaultCoverage measures the sharding overhead or speedup
// on this machine's core count.
func BenchmarkTable5FaultCoverageSharded(b *testing.B) {
	e := benchEnv(b)
	disk, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	hosts, err := shard.LocalHosts(4)
	if err != nil {
		b.Fatal(err)
	}
	e.Grader = func(cpu *plasma.CPU, golden *plasma.Golden, faults []fault.Fault, opt fault.Options) (*fault.Result, error) {
		res, _, err := shard.GradeDist(cpu, golden, faults, shard.DistOptions{
			Hosts:     hosts,
			Engine:    opt.Engine,
			LaneWords: opt.LaneWords,
			Workers:   opt.Workers,
			Sample:    opt.Sample,
			Seed:      opt.Seed,
			Cache:     disk,
		})
		return res, err
	}
	defer func() { e.Grader = nil }()
	b.ResetTimer()
	var d *bench.Table5Data
	for i := 0; i < b.N; i++ {
		var err error
		d, _, err = bench.Table5(e, benchOpt, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fcOf(d.PhaseA), "phaseA-FC%")
	b.ReportMetric(fcOf(d.PhaseAB), "phaseAB-FC%")
}

// BenchmarkFusedReplay measures the differential engine's fused
// checkpoint-window dispatch on the Phase A workload (Sample=1024): each
// window's passes run back to back on one warm simulator, started from
// delta-reconstructed golden state. The /fused sub-benchmark name is the
// row scripts/benchguard.sh guards.
func BenchmarkFusedReplay(b *testing.B) {
	e := benchEnv(b)
	g, err := e.Golden(core.PhaseA)
	if err != nil {
		b.Fatal(err)
	}
	faults := e.Faults()
	b.Run("fused", func(b *testing.B) {
		opt := fault.Options{Sample: 1024, Seed: 1}
		var detected int
		for i := 0; i < b.N; i++ {
			res, err := fault.Simulate(e.CPU, g, faults, opt)
			if err != nil {
				b.Fatal(err)
			}
			detected = 0
			for j := range res.Faults {
				if res.Detected(j) {
					detected++
				}
			}
		}
		b.ReportMetric(float64(detected), "detected")
	})
}

// BenchmarkServeThroughput measures the warm-state grading service's
// reason to exist: programs graded per second at 8 concurrent clients.
// The workload is the iterative-generation inner loop the service targets
// (ISSUE motivation; "Combined Deterministic and Pseudoexhaustive Test
// Generation", PAPERS.md): re-grading a short candidate fragment — the
// first 80 cycles of the Phase A program — against a small fault sample,
// where per-request fixed costs dominate the actual simulation.
//
//   - warm: one long-running serve.Server, 8 persistent TCP clients,
//     memoized golden + pass plan, pooled warm simulators. The fragment's
//     fault list is elided on the wire (universe-hash match).
//   - cold: what every invocation pays today, per request: a real process
//     start (this test binary re-exec'd, see TestMain), then synthesize
//     the core, capture the fragment golden, enumerate the fault universe,
//     fault.Simulate (plan + simulator construction inside). Process start
//     (exec + runtime/package init) measures ~3ms of a ~14ms cold request
//     on this box — real but not dominant; the fixed in-process costs
//     (capture + universe + plan + simulator construction) are the bulk
//     of the gap.
//
// Served results are asserted bit-identical to fault.Simulate in
// internal/serve's tests, so the programs/s ratio is pure fixed-cost
// amortization. Honesty caveats (single-core box, as in PRs 4-6): with 1
// core the 8 clients pipeline into the pool rather than run in parallel,
// so the ratio measures per-request cost, not scaling; and the advantage
// decays as per-request simulation grows — grading the full 6626-cycle
// Phase A program measures ~1.1x, because both paths then
// spend their time in the same pass kernels (measured in-process at
// Sample 512; a ~3ms process start does not move a ~290ms request).
func BenchmarkServeThroughput(b *testing.B) {
	e := benchEnv(b)
	st, err := e.SelfTest(core.PhaseA)
	if err != nil {
		b.Fatal(err)
	}
	const (
		clients    = 8
		fragCycles = 64
	)
	opt := fault.Options{Sample: 32, Seed: 1, Workers: 1}
	golden, err := plasma.CaptureGoldenK(e.CPU, st.Program, fragCycles, plasma.DefaultCheckpointK)
	if err != nil {
		b.Fatal(err)
	}

	// each runs fn once per client per iteration and reports programs/s.
	each := func(b *testing.B, fn func(c int) error) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs[c] = fn(c)
				}(c)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clients*b.N)/b.Elapsed().Seconds(), "programs/s")
	}

	b.Run("warm", func(b *testing.B) {
		srv, err := serve.NewServer(serve.Config{CPU: e.CPU, Pool: clients})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		defer func() {
			if err := srv.Shutdown(10 * time.Second); err != nil {
				b.Error(err)
			}
			<-done
		}()
		cls := make([]*serve.Client, clients)
		for c := range cls {
			if cls[c], err = serve.Dial(ln.Addr().String()); err != nil {
				b.Fatal(err)
			}
			defer cls[c].Close()
		}
		faults := e.Faults()
		// One warmup round memoizes the golden and plan and builds the
		// simulator pool — the steady state a long-running daemon lives in.
		for _, cl := range cls {
			if _, err := cl.Grade(e.CPU, golden, faults, opt); err != nil {
				b.Fatal(err)
			}
		}
		each(b, func(c int) error {
			_, err := cls[c].Grade(e.CPU, golden, faults, opt)
			return err
		})
	})

	b.Run("cold", func(b *testing.B) {
		exe, err := os.Executable()
		if err != nil {
			b.Fatal(err)
		}
		var words []string
		words = append(words, strconv.FormatUint(uint64(st.Program.Origin), 10))
		for _, w := range st.Program.Words {
			words = append(words, strconv.FormatUint(uint64(w), 10))
		}
		progFile := filepath.Join(b.TempDir(), "fragment.prog")
		if err := os.WriteFile(progFile, []byte(strings.Join(words, "\n")), 0o644); err != nil {
			b.Fatal(err)
		}
		env := append(os.Environ(), fmt.Sprintf("SBST_BENCH_COLDGRADE=%s %d %d %d",
			progFile, fragCycles, opt.Sample, opt.Seed))
		each(b, func(c int) error {
			cmd := exec.Command(exe)
			cmd.Env = env
			if out, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("cold grade process: %w: %s", err, out)
			}
			return nil
		})
	})
}

// BenchmarkTechLibIndependence regenerates the Section 4 technology-
// independence claim: Phase A+B coverage across two cell libraries.
func BenchmarkTechLibIndependence(b *testing.B) {
	eA, eB := benchEnv(b), benchEnvB(b)
	b.ResetTimer()
	var rows []bench.TechLibRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.TechLibIndependence([]*bench.Env{eA, eB}, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FC, "libA-FC%")
	b.ReportMetric(rows[1].FC, "libB-FC%")
}

// BenchmarkBaselineComparison regenerates the Section 1/4 cost comparison
// against pseudorandom software self-test.
func BenchmarkBaselineComparison(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var rows []bench.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.BaselineComparison(e, []int{64}, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FC, "sbst-FC%")
	b.ReportMetric(rows[1].FC, "prand64-FC%")
	b.ReportMetric(float64(rows[1].Cycles)/float64(rows[0].Cycles), "cycle-ratio")
}

// BenchmarkTesterCostModel regenerates the Figure 1 resource-partitioning
// argument: download time dominates total test time on slow testers.
func BenchmarkTesterCostModel(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var rows []bench.CostRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.CostModel(e)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Cost.DownloadShare()*100, "download-share-%@1MHz")
}

// BenchmarkRoutineAblation regenerates the single-routine contribution
// ablation (which routine buys how much coverage at what cost).
func BenchmarkRoutineAblation(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.RoutineAblation(e, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].OverallFC, "regf-only-FC%")
}

// BenchmarkATPGvsLibrary regenerates the component-level comparison of the
// deterministic test-set library against structural ATPG (PODEM).
func BenchmarkATPGvsLibrary(b *testing.B) {
	var rows []bench.ATPGRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.ATPGComparison()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FC, "alu-library-FC%")
	b.ReportMetric(rows[1].FC, "alu-podem-FC%")
}

// BenchmarkSelfTestGeneration measures pure test-program generation time
// (the engineering-automation cost of the methodology).
func BenchmarkSelfTestGeneration(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GenerateSelfTest(e.Comps, core.PhaseC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateLevelSimulation measures raw gate-level simulation speed:
// cycles of the Phase A program per second on the full core.
func BenchmarkGateLevelSimulation(b *testing.B) {
	e := benchEnv(b)
	st, err := e.SelfTest(core.PhaseA)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.FaultSimProgram(st.Program, 256, fault.Options{Sample: 64, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
