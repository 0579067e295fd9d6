// Command report regenerates the paper's evaluation artifacts: Tables 1-5,
// the technology-independence comparison, the pseudorandom-baseline cost
// comparison, and the tester cost model.
//
// Usage:
//
//	report [-table all|1|2|3|4|5|ladder|techlib|baseline|cost] [-variant NAME]
//	       [-sample N] [-seed S] [-workers W]
//	       [-engine event|oblivious] [-lanes W] [-stats] [-checkpoint-k K]
//	       [-shards N] [-shard-timeout D] [-server ADDR]
//	       [-hosts SPEC] [-calibrate]
//	       [-cache DIR] [-cache-max-bytes N] [-cpuprofile FILE] [-memprofile FILE]
//
// -variant selects the core under test (base, fwd5, nomul) for the
// single-core tables. -table ladder instead runs the full Table 3-5 flow
// on every variant and appends the comparative summary: per-variant gate
// counts, fault-universe sizes, program sizes, cycle counts and coverage
// from one invocation. The ladder is excluded from -table all (it runs
// three full flows); request it explicitly. -server pins one synthesized
// core, so it composes with -variant but not with -table ladder.
//
// With -sample 0 (the default for -table 5 via -full) the fault simulations
// run the complete collapsed fault universe, which takes a few minutes;
// -sample trades accuracy for speed with a deterministic fault sample.
// -lanes caps the lane words per fault pass (0 = cost-model adaptive up to
// 64 words = 4096 faulty machines); -checkpoint-k sets the golden-trace
// checkpoint interval (0 = default); -cache persists synthesized netlists
// and golden traces across runs, bounded by -cache-max-bytes (LRU, 0 =
// unbounded); -cpuprofile/-memprofile write pprof profiles.
//
// -hosts routes every fault simulation through the shard coordinator
// (internal/shard; see sbst -hosts for the spec syntax and worker
// modes): artifacts replicate to each worker's cache at most once per
// content hash, host capacities come from "=WEIGHT" suffixes or
// -calibrate, and each grading call merges to a result bit-identical to
// the in-process path. -shards N > 1 is the same coordinator over N
// local sessions of this binary, which open the coordinator's cache;
// with -workers 0 each session grades on GOMAXPROCS/N workers (at least
// one), so the sessions share this machine's cores instead of each
// fanning out across all of them.
// -shard-timeout bounds one dispatch attempt's wall clock (0 = the
// coordinator's default), and -stats folds the shard counters (live
// hosts, dispatches, retries, bytes pushed, straggler re-dispatches,
// ship and merge wall clock) and the gate-kernel dispatch counters (SIMD
// vs generic runs, batched gates, fast-path hits) into the cumulative
// statistics block. -shards and -hosts are mutually exclusive, and
// -server excludes both.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/synth"
)

func main() {
	shard.ServeIfWorker()
	log.SetFlags(0)
	log.SetPrefix("report: ")
	table := flag.String("table", "all", "which table to regenerate: all, 1, 2, 3, 4, 5, ladder, techlib, baseline, cost, ablation, atpg, latency, periodic, arch, compaction")
	variant := flag.String("variant", plasma.VariantBase, "core variant under test: "+strings.Join(plasma.VariantNames(), ", "))
	sample := flag.Int("sample", 0, "fault sample size (0 = full fault universe)")
	seed := flag.Int64("seed", 1, "fault sampling seed")
	workers := flag.Int("workers", 0, "fault simulation goroutines (0 = GOMAXPROCS)")
	rounds := flag.String("rounds", "16,64,256", "pseudorandom baseline round counts")
	engine := flag.String("engine", "event", "fault-simulation engine: event or oblivious")
	lanes := flag.Int("lanes", 0, "lane words per fault pass: a power of two up to 64 (0 = cost-model adaptive)")
	stats := flag.Bool("stats", false, "print cumulative fault-simulation work statistics")
	shards := flag.Int("shards", 1, "fault-grading worker processes per simulation (1 = in-process)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard-worker wall-clock budget (0 = default)")
	server := flag.String("server", "", "grade through a running sbstd daemon at this address (serves one synthesized core, so use a native-lib table like -table 5; the techlib table is rejected by the netlist guard)")
	hosts := flag.String("hosts", "", "distribute grading across remote hosts: addr[=weight],exec:argv[=weight],...")
	calibrate := flag.Bool("calibrate", false, "derive missing -hosts weights from a per-host calibration kernel")
	checkpointK := flag.Int("checkpoint-k", 0, "golden-trace checkpoint interval in cycles (0 = default)")
	cacheDir := flag.String("cache", "", "directory for the netlist/golden artifact cache (empty = disabled)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "cache size bound with LRU eviction (0 = unbounded)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	var eng fault.Engine
	switch *engine {
	case "event":
		eng = fault.EngineEvent
	case "oblivious":
		eng = fault.EngineOblivious
	default:
		log.Fatalf("unknown -engine %q (want event or oblivious)", *engine)
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
		var err error
		disk, err = cache.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		disk.SetMaxBytes(*cacheMax)
	}

	var simStats fault.SimStats
	opt := fault.Options{Sample: *sample, Seed: *seed, Workers: *workers, Engine: eng, LaneWords: *lanes}
	if *stats {
		opt.CollectInto = &simStats
	}

	// With -hosts or -shards > 1, every fault simulation in the harness
	// goes through the shard coordinator instead of in-process
	// fault.Simulate. The shard stats merged into Result.Stats flow into
	// -stats via CollectInto. With -server, they instead travel to a
	// warm-state grading daemon (internal/serve), which memoizes goldens
	// and plans per program and grades on persistent simulators; results
	// stay bit-identical.
	var grader func(cpu *plasma.CPU, golden *plasma.Golden, faults []fault.Fault, opt fault.Options) (*fault.Result, error)
	specs, err := shard.FlagHosts(*hosts, *shards)
	if err != nil {
		log.Fatal(err)
	}
	if *server != "" && specs != nil {
		log.Fatal("-server, -shards and -hosts are mutually exclusive")
	}
	if specs != nil {
		grader = func(cpu *plasma.CPU, golden *plasma.Golden, faults []fault.Fault, opt fault.Options) (*fault.Result, error) {
			res, _, err := shard.GradeDist(cpu, golden, faults, shard.DistOptions{
				Hosts:     specs,
				Timeout:   *shardTimeout,
				Engine:    opt.Engine,
				LaneWords: opt.LaneWords,
				Workers:   shard.FlagWorkers(opt.Workers, *shards),
				Sample:    opt.Sample,
				Seed:      opt.Seed,
				Cache:     disk,
				Calibrate: *calibrate,
			})
			if err != nil {
				return nil, err
			}
			if opt.CollectInto != nil {
				opt.CollectInto.Add(&res.Stats)
			}
			return res, nil
		}
	}
	if *server != "" {
		client, err := serve.Dial(*server)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		grader = client.Grader()
	}

	if plasma.VariantByName(*variant) == nil {
		log.Fatalf("unknown -variant %q (want one of %v)", *variant, plasma.VariantNames())
	}
	env, err := bench.NewEnvVariant(*variant, synth.NativeLib{}, disk)
	if err != nil {
		log.Fatal(err)
	}
	env.CheckpointK = *checkpointK
	env.Grader = grader

	run := func(name string, f func() (string, error)) {
		if *table != "all" && *table != name {
			return
		}
		s, err := f()
		if err != nil {
			log.Fatalf("table %s: %v", name, err)
		}
		fmt.Printf("==== Table %s ====\n%s\n", name, s)
	}

	run("1", func() (string, error) { return bench.Table1(), nil })
	run("2", func() (string, error) { _, s := bench.Table2(env); return s, nil })
	run("3", func() (string, error) { _, s := bench.Table3(env); return s, nil })
	run("4", func() (string, error) { _, s, err := bench.Table4(env); return s, err })
	run("5", func() (string, error) { _, s, err := bench.Table5(env, opt, true); return s, err })
	run("techlib", func() (string, error) {
		envB, err := bench.NewEnvCached(synth.NandLib{}, disk)
		if err != nil {
			return "", err
		}
		envB.Grader = grader
		_, s, err := bench.TechLibIndependence([]*bench.Env{env, envB}, opt)
		return s, err
	})
	run("baseline", func() (string, error) {
		var ns []int
		var n int
		rest := *rounds
		for len(rest) > 0 {
			if _, err := fmt.Sscanf(rest, "%d", &n); err != nil {
				return "", fmt.Errorf("bad -rounds %q", *rounds)
			}
			ns = append(ns, n)
			for len(rest) > 0 && rest[0] != ',' {
				rest = rest[1:]
			}
			if len(rest) > 0 {
				rest = rest[1:]
			}
		}
		_, s, err := bench.BaselineComparison(env, ns, opt)
		return s, err
	})
	run("cost", func() (string, error) { _, s, err := bench.CostModel(env); return s, err })
	run("ablation", func() (string, error) { _, s, err := bench.RoutineAblation(env, opt); return s, err })
	run("atpg", func() (string, error) { _, s, err := bench.ATPGComparison(); return s, err })
	run("latency", func() (string, error) { _, s, err := bench.DetectionLatency(env, opt); return s, err })
	run("periodic", func() (string, error) { _, s, err := bench.PeriodicComposition(env, opt); return s, err })
	run("arch", func() (string, error) { _, s, err := bench.AdderArchIndependence(); return s, err })
	run("compaction", func() (string, error) { _, s, err := bench.PatternCompaction(); return s, err })

	// The core ladder runs the whole Table 3-5 flow once per variant plus
	// the comparative summary; it is explicit-only (not part of -table all).
	if *table == "ladder" {
		if *server != "" {
			log.Fatal("-table ladder spans multiple cores; -server pins one (use -shards or -hosts instead)")
		}
		envs, err := bench.LadderEnvs(synth.NativeLib{}, disk)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range envs {
			e.CheckpointK = *checkpointK
			e.Grader = grader
		}
		for _, e := range envs {
			_, s3 := bench.Table3(e)
			fmt.Printf("==== Table 3 [%s] ====\n%s\n", e.Variant, s3)
			_, s4, err := bench.Table4(e)
			if err != nil {
				log.Fatalf("ladder %s table 4: %v", e.Variant, err)
			}
			fmt.Printf("==== Table 4 [%s] ====\n%s\n", e.Variant, s4)
			_, s5, err := bench.Table5(e, opt, true)
			if err != nil {
				log.Fatalf("ladder %s table 5: %v", e.Variant, err)
			}
			fmt.Printf("==== Table 5 [%s] ====\n%s\n", e.Variant, s5)
		}
		_, s, err := bench.Ladder(envs, core.PhaseC, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== Core ladder ====\n%s\n", s)
	}

	switch *table {
	case "all", "1", "2", "3", "4", "5", "ladder", "techlib", "baseline", "cost", "ablation", "atpg", "latency", "periodic", "arch", "compaction":
	default:
		fmt.Fprintf(os.Stderr, "unknown -table %q\n", *table)
		flag.Usage()
		os.Exit(2)
	}

	if *stats {
		fmt.Printf("==== fault-simulation statistics (engine=%s, simd=%s) ====\n%s\n",
			*engine, gate.SIMDKernelName(), simStats.String())
	}
}
