// Command sbst drives the software-based self-test flow: classify the
// processor components, generate the self-test program for a phase set,
// and optionally fault-simulate it against the gate-level core.
//
// Usage:
//
//	sbst -phase A|B|C [-lib native-0.35um-A|nand2-0.35um-B]
//	     [-emit] [-listing] [-faultsim] [-sample N] [-seed S]
//	     [-workers W] [-engine event|oblivious] [-lanes W] [-stats]
//	     [-shards N] [-hosts SPEC] [-calibrate] [-shard-timeout D]
//	     [-shard-serve ADDR] [-shard-session]
//	     [-checkpoint-k K] [-cache DIR] [-cache-max-bytes N]
//	     [-cpuprofile FILE] [-memprofile FILE]
//
// -emit prints the generated assembly source; -listing the assembled
// image; -faultsim runs stuck-at fault simulation and prints the
// per-component coverage report. -workers sets the simulation parallelism
// (0 = GOMAXPROCS), -engine selects the differential event-driven engine
// (default) or the oblivious reference engine, -lanes caps the lane words
// per pass (a power of two up to 64 = 64..4096 faulty machines; 0 =
// cost-model adaptive up to 64), and -stats prints the engine's work
// counters (gate evals/cycle, fast-forwarded cycles, replay fusion, lane
// drops, pass-width histogram, SIMD/generic kernel dispatch, bus-trace
// and golden-trace compression). -checkpoint-k
// sets the golden-trace checkpoint interval (full flip-flop snapshots
// every K cycles, sparse deltas between; 0 = default). -cache names a
// directory where synthesized netlists and captured golden traces persist
// across runs, and -cache-max-bytes bounds its size (LRU eviction after
// each store; 0 = unbounded). -cpuprofile/-memprofile write pprof
// profiles.
//
// -hosts distributes the grading across worker hosts (bit-identical to
// in-process grading; see internal/shard): a comma-separated list of TCP
// addresses of hosts running `sbst -shard-serve ADDR`, or exec argvs
// prefixed with "exec:" (an ssh wrapper like `exec:ssh h2 sbst
// -shard-session` turns any machine with the binary into a worker), each
// optionally suffixed "=WEIGHT" with the host's relative capacity. The
// netlist, CPU sidecar and golden trace replicate to each worker's cache
// push-on-miss — each content hash ships at most once per worker — and
// -calibrate derives missing weights from a short calibration kernel per
// host. Each failed dispatch is retried once, and -shard-timeout bounds
// one attempt's wall clock. -shard-serve and -shard-session run this
// process as the worker side (TCP daemon / one stdio session), with
// -cache naming the worker's artifact cache.
//
// -shards N > 1 is the same coordinator over N local sessions: N child
// processes of this binary that open the coordinator's artifact cache
// (-cache when set, else a temporary directory), so nothing is pushed.
// With -workers 0 each session grades on GOMAXPROCS/N workers (at least
// one), so the sessions share this machine's cores instead of each
// fanning out across all of them.
// -shards and -hosts are mutually exclusive; -shards 1 grades
// in-process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/synth"
)

func parseEngine(name string) (fault.Engine, error) {
	switch name {
	case "event":
		return fault.EngineEvent, nil
	case "oblivious":
		return fault.EngineOblivious, nil
	}
	return 0, fmt.Errorf("unknown -engine %q (want event or oblivious)", name)
}

func main() {
	shard.ServeIfWorker()
	log.SetFlags(0)
	log.SetPrefix("sbst: ")
	phase := flag.String("phase", "A", "deepest test phase to include: A, B or C")
	libName := flag.String("lib", synth.NativeLib{}.Name(), "technology library")
	variant := flag.String("variant", plasma.VariantBase,
		"core variant under test: "+strings.Join(plasma.VariantNames(), ", "))
	emit := flag.Bool("emit", false, "print the generated assembly source")
	listing := flag.Bool("listing", false, "print the assembled listing")
	faultsim := flag.Bool("faultsim", false, "fault-simulate the program on the gate-level core")
	profile := flag.Bool("profile", false, "print the program's dynamic instruction mix")
	sample := flag.Int("sample", 0, "fault sample size (0 = full universe)")
	seed := flag.Int64("seed", 1, "fault sampling seed")
	workers := flag.Int("workers", 0, "fault simulation goroutines (0 = GOMAXPROCS)")
	engine := flag.String("engine", "event", "fault-simulation engine: event or oblivious")
	lanes := flag.Int("lanes", 0, "lane words per fault pass: a power of two up to 64 (0 = cost-model adaptive)")
	stats := flag.Bool("stats", false, "print fault-simulation work statistics")
	shards := flag.Int("shards", 1, "fault-grading worker processes (1 = in-process)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard-worker wall-clock budget (0 = default)")
	hosts := flag.String("hosts", "", "distribute grading across remote hosts: addr[=weight],exec:argv[=weight],...")
	calibrate := flag.Bool("calibrate", false, "derive missing -hosts weights from a per-host calibration kernel")
	shardServe := flag.String("shard-serve", "", "serve distributed-grading sessions on this TCP address")
	shardSession := flag.Bool("shard-session", false, "serve one distributed-grading session on stdin/stdout and exit")
	checkpointK := flag.Int("checkpoint-k", 0, "golden-trace checkpoint interval in cycles (0 = default)")
	cacheDir := flag.String("cache", "", "directory for the netlist/golden artifact cache (empty = disabled)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "cache size bound with LRU eviction (0 = unbounded)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *shardSession {
		if err := shard.ServeSessionStdio(*cacheDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *shardServe != "" {
		if err := shard.ServeHostTCP(*shardServe, *cacheDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	eng, err := parseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}
	gradeHosts, err := shard.FlagHosts(*hosts, *shards)
	if err != nil {
		log.Fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	var disk *cache.Cache
	if *cacheDir != "" {
		disk, err = cache.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		disk.SetMaxBytes(*cacheMax)
	}

	var maxPhase core.PhaseID
	switch *phase {
	case "A", "a":
		maxPhase = core.PhaseA
	case "B", "b":
		maxPhase = core.PhaseB
	case "C", "c":
		maxPhase = core.PhaseC
	default:
		log.Fatalf("unknown phase %q (want A, B or C)", *phase)
	}

	lib := synth.LibraryByName(*libName)
	if lib == nil {
		log.Fatalf("unknown library %q", *libName)
	}

	if plasma.VariantByName(*variant) == nil {
		log.Fatalf("unknown variant %q (want one of %s)", *variant, strings.Join(plasma.VariantNames(), ", "))
	}
	cpu, err := disk.BuildVariantCPU(*variant, lib)
	if err != nil {
		log.Fatal(err)
	}
	comps := core.ClassifyNetlist(cpu.Netlist)

	fmt.Println("component classification and test priority:")
	fmt.Printf("  %-8s %-12s %10s  %s\n", "Name", "Class", "Gates", "Phase")
	for _, c := range core.Prioritize(comps) {
		fmt.Printf("  %-8s %-12s %10.0f  %s\n", c.Name, c.Class, c.GateCount, c.Class.Phase())
	}

	st, err := core.GenerateSelfTest(comps, maxPhase)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nself-test program (phases up to %s):\n", maxPhase)
	fmt.Printf("  routines: ")
	for i, r := range st.Routines {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(r.Component)
	}
	fmt.Printf("\n  size: %d words\n  execution: %d clock cycles\n  responses: %d words\n",
		st.Words, st.Cycles, st.RespWords)

	if *profile {
		prof, err := sim.ProfileExecution(st.Program, 2_000_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ninstruction mix:\n%s", prof.String())
	}

	if *emit {
		fmt.Printf("\n---- assembly source ----\n%s\n", st.Source)
	}
	if *listing {
		fmt.Printf("\n---- listing ----\n%s\n", st.Program.Listing())
	}

	if *faultsim {
		k := *checkpointK
		if k <= 0 {
			k = plasma.DefaultCheckpointK
		}
		cycles := st.GateCycles()
		if cpu.Variant != plasma.VariantBase {
			// Non-base cores retire the program in a different number of
			// cycles than the ISS measurement; use the cached gate-level
			// halt measurement instead of the base-core shortcut.
			halt, err := disk.HaltCycles(cpu, st.Program, st.Cycles*4+4096)
			if err != nil {
				log.Fatal(err)
			}
			cycles = int(halt) + 16
		}
		golden, err := disk.CaptureGoldenK(cpu, st.Program, cycles, k)
		if err != nil {
			log.Fatal(err)
		}
		faults := fault.Universe(cpu.Netlist)
		fmt.Printf("\nfault universe: %d collapsed / %d total stuck-at faults\n",
			len(faults), fault.TotalEquiv(faults))
		var res *fault.Result
		var distStats *shard.DistStats
		if gradeHosts != nil {
			res, distStats, err = shard.GradeDist(cpu, golden, faults, shard.DistOptions{
				Hosts:     gradeHosts,
				Timeout:   *shardTimeout,
				Engine:    eng,
				LaneWords: *lanes,
				Workers:   shard.FlagWorkers(*workers, *shards),
				Sample:    *sample,
				Seed:      *seed,
				Cache:     disk,
				Calibrate: *calibrate,
			})
		} else {
			opt := fault.Options{Sample: *sample, Seed: *seed, Workers: *workers, Engine: eng, LaneWords: *lanes}
			res, err = fault.Simulate(cpu, golden, faults, opt)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nfault coverage:\n%s", fault.NewReport(cpu.Netlist, res).String())
		if *stats {
			fmt.Printf("\nsimulation statistics (engine=%s, simd=%s):\n%s\n",
				*engine, gate.SIMDKernelName(), res.Stats.String())
			if distStats != nil {
				fmt.Printf("\ndistributed grading statistics:\n%s\n", distStats.String())
			}
		}

		lat := fault.NewLatencyStats(res)
		fmt.Printf("\ndetection latency:\n%s", lat.String())

		dict := fault.BuildDictionary(res)
		fmt.Printf("\ndiagnostic resolution: %s\n", dict.Resolution())
	}
}
