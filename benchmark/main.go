// Command benchmark is this repository's benchmark: five workloads that
// drive the grading system end to end through each layer's public entry
// points, time those calls from outside, check every output, and print
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) by
// name with units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from source and keeps every
// build and run file under .bench_build/ at the checkout root:
//
//	bash benchmark/run.sh -workload table5_sampled -seed 1
//
// See README.md for the workloads, the metrics and the A/B recipe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
	"repro/internal/shard"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 15
	// spinTime is each host.parallel_avail probe's length (a tenth of it
	// in smoke-test runs).
	spinTime = 200 * time.Millisecond
	// maxReported caps the failed-op messages printed per run.
	maxReported = 5
)

func main() {
	// Worker hosts of dist_hosts are subprocesses of this binary.
	shard.ServeIfWorker()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
	update   bool
	// Set by the smoke tests only: short runs at smoke-test sizes
	// (256-fault samples, 20 requests, 1 op), and expected names an
	// expected-outputs file to check against instead of the embedded one.
	short    bool
	expected string
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (7 is held out for confirming claims)")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "nominal run length; the op count is ceil(seconds × the workload's nominal rate)")
	fs.IntVar(&o.trace, "trace", 0, "1 for a traced run that prints the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "span file a traced run writes (default .bench_build/spans-WORKLOAD-SEED.json)")
	fs.BoolVar(&o.update, "update", false, "regenerate testdata/expected.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.update {
		if err := update(filepath.Join("testdata", "expected.json")); err != nil {
			fmt.Fprintln(stderr, "benchmark: update:", err)
			return 1
		}
		return 0
	}
	res, err := runBenchmark(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark run's configuration and the benchmark's own
// reference state (built untimed by the workload's prepare).
type run struct {
	w       *workload
	seed    int64
	ops     int // ops an untraced run does
	total   int // ops this run does
	sample  int
	clients int
	exp     *expected
	tmp     string
	tr      *tracer

	cpu      *plasma.CPU
	universe []fault.Fault
	comps    []core.Component
	index    map[fault.Fault]int
	sampled  []fault.Fault
	ref      map[string]*fault.Result
	refWall  time.Duration
	sites    []int
	imms     [][]uint16
}

// checkPinned checks a grade against its pinned digest and coverage. Pins
// hold at the workload's own sample size only, so smoke-test runs skip the
// sampled ones and rely on the full-universe outcomes.
func (r *run) checkPinned(phase string, res *fault.Result) error {
	if r.sample != r.w.sample {
		return nil
	}
	seed := r.seed
	if r.sample == 0 {
		seed = -1 // the full universe: no sample, so no seed
	}
	return r.exp.checkPinned(pinKey(r.w.name, phase, seed), res)
}

func runBenchmark(o options, stdout, stderr io.Writer) (*result, error) {
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown -workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	exp, err := loadExpected(o.expected)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, seed: o.seed, exp: exp, sample: w.sample, clients: w.clients}
	if r.clients == 0 {
		r.clients = runtime.NumCPU()
	}
	r.ops = int(math.Ceil(float64(o.seconds) * w.rate))
	reps, spin := w.setups, spinTime
	if o.short {
		spin /= 10
		r.ops, reps = w.shortOps, 1
		if w.sample == 0 || w.sample > shortSample {
			r.sample = shortSample
		}
	}
	r.total = r.ops
	if o.trace == 1 {
		// Odd ops are traced and even ones are not, so a traced run needs
		// at least one of each.
		r.total = max(r.ops, 2)
		r.tr = newTracer()
	}
	if r.tmp, err = os.MkdirTemp("", "sbstbench-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)

	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "# workload=%s seed=%d ops=%d trace=%d sample=%d clients=%d\n",
		w.name, r.seed, r.total, o.trace, r.sample, r.clients)
	fmt.Fprintf(stdout, "# host nproc=%d GOMAXPROCS=%d simd=%s go=%s cpu=%q\n",
		nproc, runtime.GOMAXPROCS(0), gate.SIMDKernelName(), runtime.Version(), cpuModel())
	availBefore := parallelAvail(nproc, spin)
	fmt.Fprintf(stdout, "# host.parallel_avail before=%.3f\n", availBefore)

	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}

	var setups []float64
	var inst instance
	for rep := 0; rep < reps; rep++ {
		// Each copy starts from a collected heap, so garbage left by the
		// previous one is not billed to it.
		runtime.GC()
		sp := r.tr.root("setup", setupOp)
		t := time.Now()
		in, err := w.setup(r, sp)
		d := time.Since(t)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		setups = append(setups, d.Seconds())
		if rep == reps-1 {
			inst = in
		} else if err := in.close(); err != nil {
			return nil, fmt.Errorf("tear down %s: %w", w.name, err)
		}
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	resetPeakRSS()
	loop := timedLoop(r, inst, stderr)
	lat, failed := loop.lat, loop.failed
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	rssNote := fmt.Sprintf(" self=%.1f", float64(rss)/(1<<20))
	for _, pid := range inst.pids() {
		v, err := procPeakRSS(pid)
		if err != nil {
			return nil, err
		}
		rss += v
		rssNote += fmt.Sprintf(" worker=%.1f", float64(v)/(1<<20))
	}
	late, err := inst.finish()
	if err != nil {
		return nil, fmt.Errorf("deferred checks: %w", err)
	}
	failed += late
	m := map[string]float64{}
	inst.layers(m)
	closed = true
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("tear down %s: %w", w.name, err)
	}
	availAfter := parallelAvail(nproc, spin)
	fmt.Fprintf(stdout, "# host.parallel_avail after=%.3f\n", availAfter)
	fmt.Fprintf(stdout, "# peak_rss_mb%s\n", rssNote)

	res := &result{Correct: failed == 0, Attempted: r.total, Failed: failed, Metrics: map[string]metric{}}
	if r.tr == nil {
		vals := map[string]float64{
			"setup_s":      median(setups),
			"ops_per_s":    throughput(loop.done),
			"op_p50_ms":    median(lat) * 1e3,
			"cpu_s_per_op": loop.cpu.Seconds() / float64(r.total),
			"peak_rss_mb":  float64(rss) / (1 << 20),
		}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{vals[e.name], e.unit}
			fmt.Fprintf(stdout, "%-28s %16.6f %s\n", e.name, vals[e.name], e.unit)
		}
		// Printed for reading only: error_rate is 0 on a correct run, and
		// op_p99_ms has fewer than ten samples beyond it on the workloads
		// that run a handful of ops, so neither is a bounded metric.
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", "error_rate", float64(failed)/float64(r.total), "ratio")
		fmt.Fprintf(stdout, "%-28s %16.6f %s (%d samples)\n", "op_p99_ms", nearestRank(lat, 0.99)*1e3, "ms", len(lat))
		return res, nil
	}

	spans := r.tr.snapshot()
	loop.agg.layerMetrics(r, spans, m)
	m["host.parallel_avail"] = min(availBefore, availAfter)
	if v := m["serve.server_ms"]; v > 0 {
		m["serve.wire_ms"] = mean(lat)*1e3 - v
	}
	var plain, traced []float64
	for i, v := range lat {
		if i%2 == 1 {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	m["trace.overhead"] = mean(plain) / mean(traced)
	m["trace.unattributed_share"] = unattributedShare(spans)
	for _, l := range layerMetrics {
		res.Metrics[l.name] = metric{m[l.name], l.unit}
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", l.name, m[l.name], l.unit)
	}
	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, r.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
	}
	if err := r.tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	return res, nil
}

// workersCPU sums the CPU time of live worker processes.
func workersCPU(pids []int) time.Duration {
	var t time.Duration
	for _, pid := range pids {
		if v, err := procCPU(pid); err == nil {
			t += v
		}
	}
	return t
}

// loopResult is what the timed loop measured.
type loopResult struct {
	lat    []float64     // every op's latency, seconds
	done   []float64     // every op's completion, seconds since the loop began
	cpu    time.Duration // process and worker CPU time across the loop
	failed int
	agg    *aggregate // per-layer counters of the traced ops
}

// timedLoop runs the run's ops from r.clients closed-loop clients, each
// sending its next op when the previous one returns. In a traced run the
// odd ops are traced and the even ones are not, so trace.overhead
// compares the two halves of one run.
func timedLoop(r *run, inst instance, stderr io.Writer) loopResult {
	lat, done := make([]float64, r.total), make([]float64, r.total)
	agg := &aggregate{}
	var next, failed atomic.Int64
	var reportMu sync.Mutex
	cpu0 := selfCPU() + workersCPU(inst.pids())
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= r.total {
					return
				}
				var sp span
				if i%2 == 1 {
					sp = r.tr.root("op", i)
				}
				t := time.Now()
				gs, err := inst.op(c, i, sp)
				d := time.Since(t)
				done[i] = time.Since(start).Seconds()
				sp.end()
				for _, g := range gs {
					d -= g.planWall
				}
				lat[i] = d.Seconds()
				if err == nil {
					err = inst.check(i, gs)
				}
				if err != nil {
					if n := failed.Add(1); n <= maxReported {
						reportMu.Lock()
						fmt.Fprintf(stderr, "op %d failed: %v\n", i, err)
						reportMu.Unlock()
					}
					continue
				}
				if sp.traced() {
					agg.add(gs)
				}
			}
		}(c)
	}
	wg.Wait()
	return loopResult{
		lat:    lat,
		done:   done,
		cpu:    selfCPU() + workersCPU(inst.pids()) - cpu0,
		failed: int(failed.Load()),
		agg:    agg,
	}
}

// aggregate accumulates the per-layer counters of a run's traced ops.
type aggregate struct {
	mu        sync.Mutex
	ops       int
	grades    int
	stats     fault.SimStats
	simEvals  int64 // gate evals of in-process fault.Simulate grades
	capCycles int64
	plans     int
	winShare  float64
	simCPU    time.Duration
	simWall   time.Duration

	dists                                 int
	partNs, shipNs, mergeNs, shipBytes    int64
	redispatched, hostSimMax, hostQueueNs int64
	overheadNs, hostSimTotal              int64
	imbalance                             float64
}

func (a *aggregate) add(gs []grade) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	for _, g := range gs {
		a.grades++
		a.stats.Add(&g.res.Stats)
		if g.golden != nil {
			a.capCycles += int64(g.golden.Cycles)
		}
		if g.plan != nil {
			a.plans++
			a.winShare += windowMaxShare(g.plan, g.golden)
		}
		if g.simWall > 0 {
			a.simEvals += g.res.Stats.GateEvals
			a.simCPU += g.simCPU
			a.simWall += g.simWall
		}
		if d := g.dist; d != nil {
			a.dists++
			a.partNs += d.PartitionNs
			a.shipNs += d.ShipNs
			a.mergeNs += d.MergeNs
			a.shipBytes += d.BytesShipped
			a.redispatched += int64(d.Redispatched)
			var maxSim, sumSim int64
			live := 0
			for _, h := range d.Hosts {
				if h.Err != "" {
					continue
				}
				live++
				sumSim += h.SimNs
				maxSim = max(maxSim, h.SimNs)
				a.hostQueueNs += h.QueueNs
			}
			a.hostSimMax += maxSim
			a.hostSimTotal += sumSim
			a.overheadNs += d.Wall.Nanoseconds() - maxSim
			if sumSim > 0 {
				a.imbalance += float64(maxSim) / (float64(sumSim) / float64(live))
			}
		}
	}
}

// windowMaxShare is the largest checkpoint window's share of a pass
// plan's estimated cost: passes starting in one window share one warm
// simulator, so a plan piled into one window cannot spread across
// workers.
func windowMaxShare(plan []fault.PassGroup, g *plasma.Golden) float64 {
	byWindow := map[int32]float64{}
	var total, top float64
	for _, p := range plan {
		w := g.CheckpointFloor(p.Start)
		byWindow[w] += p.Cost
		total += p.Cost
		top = max(top, byWindow[w])
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// layerMetrics fills m with the per-layer metrics the traced ops' spans
// and counters give. Times are mean self time per call of the span.
func (a *aggregate) layerMetrics(r *run, spans []spanRec, m map[string]float64) {
	self, calls := layerTimes(spans, func(op int) bool { return op != setupOp })
	setSelf, setCalls := layerTimes(spans, func(op int) bool { return op == setupOp })
	perCall := func(self map[string]int64, calls map[string]int, name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(self[name]) / float64(calls[name]) / 1e9
	}
	m["plasma.build_s"] = perCall(setSelf, setCalls, "plasma.build")
	m["fault.universe_s"] = perCall(setSelf, setCalls, "fault.universe")
	for _, n := range []string{"plasma.capture", "core.generate", "fault.plan", "fault.simulate", "fault.report"} {
		m[n+"_s"] = perCall(self, calls, n)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["plasma.capture_ns_per_cycle"] = ratio(float64(self["plasma.capture"]), float64(a.capCycles))

	st, g := &a.stats, float64(a.grades)
	m["fault.passes"] = ratio(float64(st.Passes), g)
	for slot, cnt := range st.PassWidthHist {
		m[fmt.Sprintf("fault.passes_w%d", 1<<slot)] = ratio(float64(cnt), g)
	}
	m["fault.fused_windows"] = ratio(float64(st.FusedWindows), g)
	m["fault.window_max_share"] = ratio(a.winShare, float64(a.plans))
	m["fault.cores_used"] = ratio(a.simCPU.Seconds(), a.simWall.Seconds())
	m["fault.sim_cycles"] = ratio(float64(st.SimCycles), g)
	m["fault.skipped_faults"] = ratio(float64(st.SkippedFaults), g)
	m["fault.lanes_dropped"] = ratio(float64(st.LanesDropped), g)
	m["fault.hook_diffs"] = ratio(float64(st.HookDiffs), g)
	m["fault.replay_saved_cycles"] = ratio(float64(st.ReplaySavedCycles), g)

	m["gate.gate_evals"] = ratio(float64(st.GateEvals), g)
	m["gate.events"] = ratio(float64(st.Events), g)
	m["gate.evals_per_cycle"] = st.EvalsPerCycle()
	m["gate.ns_per_gate_eval"] = ratio(float64(self["fault.simulate"]), float64(a.simEvals))
	m["gate.simd_runs"] = ratio(float64(st.SIMDKernelRuns), g)
	m["gate.generic_runs"] = ratio(float64(st.GenericKernelRuns), g)
	m["gate.batched_gate_evals"] = ratio(float64(st.BatchedGateEvals), g)
	m["gate.uniform_hits"] = ratio(float64(st.UniformFastPathHits), g)
	m["gate.scalar_evals"] = ratio(float64(st.ScalarKernelEvals), g)

	d := float64(a.dists)
	m["shard.partition_ms"] = ratio(float64(a.partNs)/1e6, d)
	m["shard.ship_ms"] = ratio(float64(a.shipNs)/1e6, d)
	m["shard.ship_bytes"] = ratio(float64(a.shipBytes), d)
	m["shard.merge_ms"] = ratio(float64(a.mergeNs)/1e6, d)
	m["shard.redispatched"] = ratio(float64(a.redispatched), d)
	m["shard.host_sim_s_max"] = ratio(float64(a.hostSimMax)/1e9, d)
	m["shard.host_queue_ms"] = ratio(float64(a.hostQueueNs)/1e6, d)
	m["shard.overhead_ms"] = ratio(float64(a.overheadNs)/1e6, d)
	m["shard.imbalance"] = ratio(a.imbalance, d)
	m["shard.work_amplification"] = ratio(float64(a.hostSimTotal), float64(a.ops)*float64(r.refWall.Nanoseconds()))
}
