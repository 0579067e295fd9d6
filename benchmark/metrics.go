package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics in print order with their units;
// BENCHMARK.json carries the same names with direction and bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"cpu_s_per_op", "s"},
	{"peak_rss_mb", "MB"},
}

// layerMetric is one per-layer metric and what it is for: Moves names
// the end-to-end metric and workload(s) a change to this layer should
// move ("metric@workload,workload"), so a claimed gain can be traced.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics is the per-layer metric table, in print order.
var layerMetrics = []layerMetric{
	{"host.parallel_avail", "cores", "higher", "ops_per_s@serve_regrade (explains spread; not a target)"},

	{"plasma.build_s", "s", "lower", "setup_s@table5_sampled,table5_full,serve_regrade,serve_generate,dist_hosts"},
	{"plasma.capture_s", "s", "lower", "op_p50_ms@table5_sampled,serve_generate"},
	{"plasma.capture_ns_per_cycle", "ns", "lower", "op_p50_ms@table5_sampled,serve_generate"},

	{"core.generate_s", "s", "lower", "op_p50_ms@table5_sampled,table5_full"},

	{"fault.universe_s", "s", "lower", "setup_s@table5_sampled,table5_full"},
	{"fault.plan_s", "s", "lower", "op_p50_ms@table5_full"},
	{"fault.simulate_s", "s", "lower", "op_p50_ms@table5_sampled,table5_full"},
	{"fault.report_s", "s", "lower", "op_p50_ms@table5_sampled,table5_full"},
	{"fault.passes", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.passes_w1", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.passes_w2", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.passes_w4", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.passes_w8", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.passes_w16", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.passes_w32", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.passes_w64", "count", "lower", "op_p50_ms@table5_full"},
	{"fault.fused_windows", "count", "higher", "op_p50_ms@table5_full"},
	{"fault.window_max_share", "ratio", "lower", "ops_per_s@table5_full"},
	{"fault.cores_used", "cores", "higher", "ops_per_s@table5_full"},
	{"fault.sim_cycles", "count", "lower", "op_p50_ms@table5_sampled,table5_full"},
	{"fault.skipped_faults", "count", "higher", "op_p50_ms@table5_full"},
	{"fault.lanes_dropped", "count", "higher", "op_p50_ms@table5_sampled,table5_full"},
	{"fault.hook_diffs", "count", "higher", "op_p50_ms@table5_full"},
	{"fault.replay_saved_cycles", "count", "higher", "op_p50_ms@table5_full"},

	{"gate.gate_evals", "count", "lower", "op_p50_ms@table5_sampled"},
	{"gate.events", "count", "lower", "op_p50_ms@table5_sampled"},
	{"gate.evals_per_cycle", "count", "lower", "op_p50_ms@table5_sampled"},
	{"gate.ns_per_gate_eval", "ns", "lower", "op_p50_ms@table5_sampled"},
	{"gate.simd_runs", "count", "higher", "op_p50_ms@table5_sampled"},
	{"gate.generic_runs", "count", "lower", "op_p50_ms@table5_sampled"},
	{"gate.batched_gate_evals", "count", "higher", "op_p50_ms@table5_sampled"},
	{"gate.uniform_hits", "count", "higher", "op_p50_ms@table5_sampled"},
	{"gate.scalar_evals", "count", "lower", "op_p50_ms@table5_sampled"},

	{"serve.server_ms", "ms", "lower", "ops_per_s@serve_generate"},
	{"serve.wire_ms", "ms", "lower", "op_p50_ms@serve_regrade"},
	{"serve.golden_captures", "count", "lower", "ops_per_s@serve_generate"},
	{"serve.plan_builds", "count", "lower", "ops_per_s@serve_generate"},
	{"serve.memo_hit_ratio", "ratio", "higher", "ops_per_s@serve_generate"},
	{"serve.cold_sims", "count", "lower", "op_p50_ms@serve_regrade,serve_generate"},
	{"serve.warm_grades", "count", "higher", "op_p50_ms@serve_regrade"},

	{"shard.partition_ms", "ms", "lower", "op_p50_ms@dist_hosts"},
	{"shard.ship_ms", "ms", "lower", "op_p50_ms@dist_hosts"},
	{"shard.ship_bytes", "bytes", "lower", "op_p50_ms@dist_hosts"},
	{"shard.ship_bytes_cold", "bytes", "lower", "setup_s@dist_hosts"},
	{"shard.merge_ms", "ms", "lower", "op_p50_ms@dist_hosts"},
	{"shard.redispatched", "count", "lower", "cpu_s_per_op@dist_hosts"},
	{"shard.host_sim_s_max", "s", "lower", "op_p50_ms@dist_hosts"},
	{"shard.host_queue_ms", "ms", "lower", "op_p50_ms@dist_hosts"},
	{"shard.overhead_ms", "ms", "lower", "op_p50_ms@dist_hosts"},
	{"shard.imbalance", "ratio", "lower", "op_p50_ms@dist_hosts"},
	{"shard.work_amplification", "ratio", "lower", "cpu_s_per_op@dist_hosts"},

	{"trace.unattributed_share", "ratio", "lower", "op_p50_ms@table5_sampled,table5_full,dist_hosts"},
	{"trace.overhead", "ratio", "higher", "ops_per_s@table5_sampled,table5_full,serve_regrade,serve_generate,dist_hosts"},
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least a share p of samples at or
// below it.
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// throughput is the median rate over the run's segments: the op
// completions, in time order, split into up to ten equal segments, each
// rated as its ops over the time since the previous segment ended. The
// median keeps one stalled segment from moving the run's figure.
func throughput(done []float64) float64 {
	s := append([]float64(nil), done...)
	sort.Float64s(s)
	k := min(10, len(s))
	rates := make([]float64, k)
	prev := 0.0
	for j := range rates {
		lo, hi := j*len(s)/k, (j+1)*len(s)/k
		rates[j] = float64(hi-lo) / (s[hi-1] - prev)
		prev = s[hi-1]
	}
	return median(rates)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// selfCPU is the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts this process's
// peak-RSS count from its current size, so the peak measured afterwards
// belongs to the timed loop, not to the repeated set-ups before it. Where
// /proc/self/clear_refs is missing the peak keeps counting from the start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// clockTick is the unit of /proc/PID/stat CPU times (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU is the CPU time (user + system) of a live child process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSS is a live process's peak resident set size (VmHWM) in
// bytes.
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpuModel names the host CPU from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spinSink keeps parallelAvail's busy loop from being optimized away.
var spinSink atomic.Uint64

// parallelAvail spins n goroutines for d and returns the parallelism
// they achieved (process CPU time over wall time): n on an idle host,
// less when other tenants hold the cores. It explains run-to-run spread;
// it is not a target.
func parallelAvail(n int, d time.Duration) float64 {
	c0, t0 := selfCPU(), time.Now()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(k + 1)
			for time.Since(t0) < d {
				for j := 0; j < 1000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
	return (selfCPU() - c0).Seconds() / time.Since(t0).Seconds()
}
