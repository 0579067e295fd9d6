package fault

import (
	"fmt"
	"strings"

	"repro/internal/plasma"
)

// SimStats is the observability layer of a fault-simulation run: how much
// work the engine actually performed, and where detections landed. All
// counters are totals across every pass of the run.
type SimStats struct {
	// Passes is the number of simulation passes executed (each carrying up
	// to 64*LaneWords faulty machines).
	Passes int64
	// PassWidthHist histograms passes by lane width: slot i counts passes
	// run at width 2^i words (1, 2, 4, 8, 16, 32, 64).
	PassWidthHist [widthSlots]int64
	// GateEvalsByWidth splits GateEvals by the lane width of the pass that
	// performed them, same slot mapping as PassWidthHist. One eval of a
	// width-w pass computes 64*w faulty machines at once.
	GateEvalsByWidth [widthSlots]int64
	// SimCycles is the number of clock cycles actually simulated (after
	// fast-forwarding and early pass exits).
	SimCycles int64
	// FastForwarded is the number of cycles skipped by jumping passes to
	// the golden checkpoint boundary before their earliest fault
	// activation.
	FastForwarded int64
	// FusedWindows counts checkpoint windows that fused more than one pass
	// onto one warm simulator; ReplaySavedCycles is the number of
	// boundary-to-activation golden cycles passes reconstructed by batched
	// XOR-delta application instead of simulating (at most CheckpointK-1
	// per pass); HookDiffs counts warm-restart hook-set swaps (diff-patched
	// fault installs on an already-valid simulator, replacing a full
	// Reset+SetFaults+oblivious re-sweep).
	FusedWindows      int64
	ReplaySavedCycles int64
	HookDiffs         int64
	// Dispatch shape of a multi-worker Simulate (zero when one worker
	// grades the plan's checkpoint windows in order): DispatchUnits is the
	// number of work units queued, PassesSplit the number of planned
	// passes cut into parts because one cost more than a worker's fair
	// share of the plan, and MaxUnitShare the largest unit's share of the
	// dispatched cost (1/workers is a perfect balance; merged stats keep
	// the largest).
	DispatchUnits int64
	PassesSplit   int64
	MaxUnitShare  float64
	// SkippedFaults counts faults never simulated because their site never
	// holds the activating value anywhere in the golden run (provably
	// undetectable by this program).
	SkippedFaults int64
	// GateEvals is the number of combinational gate evaluations performed;
	// GateEvals/SimCycles is the differential engine's headline win over
	// the oblivious engine's evals/cycle (== the netlist's gate count).
	GateEvals int64
	// Events is the number of signal value changes propagated by the
	// event-driven evaluator.
	Events int64
	// LanesDropped counts detected faulty machines conformed back to the
	// golden trajectory (true fault dropping).
	LanesDropped int64
	// DroppedPerWindow histograms lane drops by detection cycle decile of
	// the golden run: front-loaded detection fills the early buckets.
	DroppedPerWindow [10]int64
	// ExitHist histograms pass end cycles (early exit on full detection or
	// run-out) by golden-run decile.
	ExitHist [10]int64
	// Sharded-grading counters, populated by the internal/shard
	// coordinator (zero for in-process runs). ShardsLaunched counts grade
	// dispatches sent to worker sessions, retries and straggler duplicates
	// included; ShardsRetried counts second attempts after a failure;
	// ShardsFailed counts failed attempts (crash, timeout, bad frame,
	// worker-side error).
	ShardsLaunched int64
	ShardsRetried  int64
	ShardsFailed   int64
	// ShardBytesShipped is the artifact bytes pushed into worker caches (0
	// when every worker already held them).
	ShardBytesShipped int64
	// ShardWallNs sums per-dispatch wall-clock nanoseconds as the
	// coordinator saw them (the cost a serial machine would pay).
	ShardWallNs int64
	// DistHosts counts live worker hosts the run graded on;
	// DistRedispatched counts duplicate straggler dispatches to idle hosts;
	// DistShipNs is the wall clock the coordinator spent replicating
	// artifacts to worker caches; DistMergeNs is the wall clock spent
	// merging shard results.
	DistHosts        int64
	DistRedispatched int64
	DistShipNs       int64
	DistMergeNs      int64
	// Kernel dispatch counters from the gate evaluators (summed over every
	// simulator of the run): batch runs dispatched to the SIMD assembly
	// kernels vs the generic Go run kernels, gates evaluated through those
	// batched runs, scalar uniform fast-path evaluations, and full-width
	// hooked-gate evaluations (fault-injection sites).
	SIMDKernelRuns      int64
	GenericKernelRuns   int64
	BatchedGateEvals    int64
	UniformFastPathHits int64
	ScalarKernelEvals   int64
	// SIMDRunsByWidth / GenericRunsByWidth split the kernel-run counters
	// by the lane width of the dispatching pass, same slot mapping as
	// PassWidthHist: together with the tier name (gate.SIMDKernelName)
	// they show which kernel of the matrix did the work.
	SIMDRunsByWidth    [widthSlots]int64
	GenericRunsByWidth [widthSlots]int64
	// TraceDenseBytes is the size the golden read-data and primary-output
	// streams would occupy as dense per-cycle arrays; TraceStoredBytes is
	// the size the run-length encoded streams actually occupy.
	TraceDenseBytes  int64
	TraceStoredBytes int64
	// GoldenDenseBytes is the size the golden flip-flop trace would occupy
	// in the dense one-snapshot-per-cycle format; GoldenStoredBytes is the
	// size the sparse delta-encoded trace actually occupies (in memory and
	// in the artifact cache). Their ratio is the compression factor.
	GoldenDenseBytes  int64
	GoldenStoredBytes int64
}

// Add accumulates other into s.
func (s *SimStats) Add(other *SimStats) {
	s.Passes += other.Passes
	for i := range s.PassWidthHist {
		s.PassWidthHist[i] += other.PassWidthHist[i]
		s.GateEvalsByWidth[i] += other.GateEvalsByWidth[i]
	}
	s.SimCycles += other.SimCycles
	s.FastForwarded += other.FastForwarded
	s.FusedWindows += other.FusedWindows
	s.ReplaySavedCycles += other.ReplaySavedCycles
	s.HookDiffs += other.HookDiffs
	s.DispatchUnits += other.DispatchUnits
	s.PassesSplit += other.PassesSplit
	s.MaxUnitShare = max(s.MaxUnitShare, other.MaxUnitShare)
	s.SkippedFaults += other.SkippedFaults
	s.GateEvals += other.GateEvals
	s.Events += other.Events
	s.LanesDropped += other.LanesDropped
	for i := range s.DroppedPerWindow {
		s.DroppedPerWindow[i] += other.DroppedPerWindow[i]
		s.ExitHist[i] += other.ExitHist[i]
	}
	s.ShardsLaunched += other.ShardsLaunched
	s.ShardsRetried += other.ShardsRetried
	s.ShardsFailed += other.ShardsFailed
	s.ShardBytesShipped += other.ShardBytesShipped
	s.ShardWallNs += other.ShardWallNs
	s.DistHosts += other.DistHosts
	s.DistRedispatched += other.DistRedispatched
	s.DistShipNs += other.DistShipNs
	s.DistMergeNs += other.DistMergeNs
	s.SIMDKernelRuns += other.SIMDKernelRuns
	s.GenericKernelRuns += other.GenericKernelRuns
	for i := range s.SIMDRunsByWidth {
		s.SIMDRunsByWidth[i] += other.SIMDRunsByWidth[i]
		s.GenericRunsByWidth[i] += other.GenericRunsByWidth[i]
	}
	s.BatchedGateEvals += other.BatchedGateEvals
	s.UniformFastPathHits += other.UniformFastPathHits
	s.ScalarKernelEvals += other.ScalarKernelEvals
	s.TraceDenseBytes += other.TraceDenseBytes
	s.TraceStoredBytes += other.TraceStoredBytes
	s.GoldenDenseBytes += other.GoldenDenseBytes
	s.GoldenStoredBytes += other.GoldenStoredBytes
}

// setGoldenBytes records the golden trace's dense and stored sizes.
func (s *SimStats) setGoldenBytes(g *plasma.Golden) {
	s.GoldenDenseBytes = g.DenseStateBytes()
	s.GoldenStoredBytes = g.StoredStateBytes()
	s.TraceDenseBytes = g.DenseTraceBytes()
	s.TraceStoredBytes = g.StoredTraceBytes()
}

// TraceCompression reports the golden bus-trace compression factor
// (dense-equivalent bytes over stored bytes).
func (s *SimStats) TraceCompression() float64 {
	if s.TraceStoredBytes == 0 {
		return 0
	}
	return float64(s.TraceDenseBytes) / float64(s.TraceStoredBytes)
}

// EvalsPerCycle reports the mean combinational gate evaluations per
// simulated cycle.
func (s *SimStats) EvalsPerCycle() float64 {
	if s.SimCycles == 0 {
		return 0
	}
	return float64(s.GateEvals) / float64(s.SimCycles)
}

// GoldenCompression reports the golden-trace compression factor
// (dense-equivalent bytes over stored bytes).
func (s *SimStats) GoldenCompression() float64 {
	if s.GoldenStoredBytes == 0 {
		return 0
	}
	return float64(s.GoldenDenseBytes) / float64(s.GoldenStoredBytes)
}

func histString(h *[10]int64) string {
	parts := make([]string, len(h))
	for i, v := range h {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func widthHistString(h *[widthSlots]int64) string {
	parts := make([]string, 0, len(h))
	for i, v := range h {
		parts = append(parts, fmt.Sprintf("%dw:%d", 1<<uint(i), v))
	}
	return strings.Join(parts, " ")
}

// String renders the stats as a compact multi-line report.
func (s *SimStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "passes            %d\n", s.Passes)
	fmt.Fprintf(&b, "passes by width   %s\n", widthHistString(&s.PassWidthHist))
	fmt.Fprintf(&b, "evals by width    %s\n", widthHistString(&s.GateEvalsByWidth))
	fmt.Fprintf(&b, "sim cycles        %d\n", s.SimCycles)
	fmt.Fprintf(&b, "fast-forwarded    %d cycles\n", s.FastForwarded)
	fmt.Fprintf(&b, "replay fusion     %d windows fused, %d replay cycles saved, %d hook-set diffs\n",
		s.FusedWindows, s.ReplaySavedCycles, s.HookDiffs)
	if s.DispatchUnits > 0 {
		fmt.Fprintf(&b, "dispatch          %d units, %d passes split, largest unit %.2f of cost\n",
			s.DispatchUnits, s.PassesSplit, s.MaxUnitShare)
	}
	fmt.Fprintf(&b, "skipped faults    %d (never activated)\n", s.SkippedFaults)
	fmt.Fprintf(&b, "gate evals        %d (%.1f/cycle)\n", s.GateEvals, s.EvalsPerCycle())
	fmt.Fprintf(&b, "events            %d\n", s.Events)
	fmt.Fprintf(&b, "lanes dropped     %d\n", s.LanesDropped)
	fmt.Fprintf(&b, "drops by decile   %s\n", histString(&s.DroppedPerWindow))
	fmt.Fprintf(&b, "pass exit decile  %s\n", histString(&s.ExitHist))
	fmt.Fprintf(&b, "kernel runs       %d simd, %d generic (%d gates batched)\n",
		s.SIMDKernelRuns, s.GenericKernelRuns, s.BatchedGateEvals)
	fmt.Fprintf(&b, "simd runs/width   %s\n", widthHistString(&s.SIMDRunsByWidth))
	fmt.Fprintf(&b, "kernel fast paths %d uniform, %d hooked full-width\n",
		s.UniformFastPathHits, s.ScalarKernelEvals)
	fmt.Fprintf(&b, "bus trace         %d B stored, %d B dense-equivalent (%.1fx smaller)\n",
		s.TraceStoredBytes, s.TraceDenseBytes, s.TraceCompression())
	fmt.Fprintf(&b, "golden trace      %d B stored, %d B dense-equivalent (%.1fx smaller)",
		s.GoldenStoredBytes, s.GoldenDenseBytes, s.GoldenCompression())
	if s.DistHosts > 0 {
		fmt.Fprintf(&b, "\nshard hosts       %d live, %d dispatches (%d retried, %d failed, %d straggler re-dispatches)",
			s.DistHosts, s.ShardsLaunched, s.ShardsRetried, s.ShardsFailed, s.DistRedispatched)
		fmt.Fprintf(&b, "\nshard shipping    %d B pushed in %.3fs", s.ShardBytesShipped, float64(s.DistShipNs)/1e9)
		fmt.Fprintf(&b, "\nshard wall-clock  %.3fs summed across dispatches, %.3fs merging",
			float64(s.ShardWallNs)/1e9, float64(s.DistMergeNs)/1e9)
	}
	return b.String()
}
