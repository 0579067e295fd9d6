package fault

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/gate"
	"repro/internal/plasma"
)

// Engine selects the fault-simulation algorithm.
type Engine int

const (
	// EngineEvent (the default) is the differential engine: event-driven
	// incremental logic evaluation, passes packed by fault-activation
	// cycle and fast-forwarded to a golden checkpoint just before their
	// earliest activation, never-activated faults skipped outright, and
	// detected lanes conformed back to the golden trajectory. Bit-for-bit
	// equivalent to EngineOblivious (cross-checked in tests).
	EngineEvent Engine = iota
	// EngineOblivious is the reference implementation: every gate
	// re-evaluated every cycle, every fault simulated from reset.
	EngineOblivious
)

// Options tunes a fault-simulation run.
type Options struct {
	// Workers is the number of parallel simulation goroutines; 0 means
	// GOMAXPROCS. With more than one, Simulate balances the plan across
	// them: a pass or checkpoint window costing more than a worker's fair
	// share of the plan's Cost is split into contiguous parts, so even a
	// one-pass plan keeps every worker busy. Each worker builds its own
	// simulators, one per lane width it grades, on the netlist's shared
	// compiled form. Outcomes never depend on Workers.
	Workers int
	// LaneWords caps the per-pass lane width in 64-lane words: a power of
	// two from 1 to 64 words carries 64..4096 faulty machines per pass. 0
	// means the default of 64 (4096 lanes). Passes are packed
	// width-adaptively up to this cap by a cost model (see chooseWidth):
	// each pass takes the width minimizing estimated grading cost per
	// fault, trading per-cycle fixed-cost amortization against
	// cone-overlap event activity and idle late-activating lanes.
	LaneWords int
	// Sample, when nonzero, simulates only a deterministic random sample of
	// that many collapsed faults (statistical coverage estimation for fast
	// benches); 0 simulates the full list.
	Sample int
	// Seed drives the sampling permutation.
	Seed int64
	// Engine selects the simulation algorithm (default EngineEvent).
	Engine Engine
	// CollectInto, when non-nil, accumulates the run's SimStats (also
	// available per run as Result.Stats) — useful for totals across
	// multi-run benches.
	CollectInto *SimStats
}

// Result is the outcome of a fault-simulation run.
type Result struct {
	// Faults is the simulated fault list (the sample, when sampling).
	Faults []Fault
	// DetectedAt[i] is the first cycle where fault i was observed at a
	// primary output, or -1 if it escaped.
	DetectedAt []int32
	// SignatureGroups[i] records which output groups diverged at fault
	// i's first detection (Sig* bits), for fault-dictionary diagnosis.
	SignatureGroups []uint8
	// Cycles is the length of the replayed golden execution.
	Cycles int
	// Stats reports how much work the engine performed.
	Stats SimStats
}

// Detected reports whether fault i was detected.
func (r *Result) Detected(i int) bool { return r.DetectedAt[i] >= 0 }

// Coverage reports collapsed fault coverage in percent.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	n := 0
	for i := range r.Faults {
		if r.Detected(i) {
			n++
		}
	}
	return 100 * float64(n) / float64(len(r.Faults))
}

// WeightedCoverage reports equivalence-weighted (uncollapsed) coverage in
// percent.
func (r *Result) WeightedCoverage() float64 {
	det, tot := 0, 0
	for i, f := range r.Faults {
		tot += f.Equiv
		if r.Detected(i) {
			det += f.Equiv
		}
	}
	if tot == 0 {
		return 0
	}
	return 100 * float64(det) / float64(tot)
}

// PassGroup is one planned fault-simulation pass: the indices (into the
// planner's fault list) of the faults it carries, the cycle the pass
// starts simulating at, the pass's lane width in 64-lane words (64*Width
// lanes), and the cost model's estimate of the pass's absolute grading
// cost. Cost is in the arbitrary units of the width policy's per-cycle
// model — meaningless alone, comparable across groups of one plan — which
// is what the sharding coordinator balances shards by.
type PassGroup struct {
	Idxs  []int
	Start int32
	Width int
	Cost  float64
}

// PlanPasses exposes the deterministic pass packing Simulate uses: the
// same faults, golden trace, engine and lane-width cap always yield the
// same groups, in the same order. Never-activated faults (skipped, the
// second return) appear in no group — their site never holds the
// activating value anywhere in the golden run, so they are provably
// undetectable by this program and Simulate would not grade them either.
//
// The returned plan, like the golden trace and fault list it was derived
// from, is immutable shared state: grading never writes through it, so
// one plan may back any number of concurrent Simulate or Warm.Grade
// calls (asserted under the race detector in this package's and
// internal/serve's tests). This is what lets a grading service compute a
// program's plan once and serve every subsequent request from it.
func PlanPasses(n *gate.Netlist, golden *plasma.Golden, faults []Fault, engine Engine, laneWords int) ([]PassGroup, int64, error) {
	maxW, err := normLaneWords(laneWords)
	if err != nil {
		return nil, 0, err
	}
	if len(faults) == 0 {
		return nil, 0, nil
	}
	jobs, skipped := packPasses(n, golden, faults, engine, maxW)
	return jobs, skipped, nil
}

// normLaneWords applies the LaneWords default and validates the cap.
func normLaneWords(laneWords int) (int, error) {
	if laneWords == 0 {
		return DefaultLaneWords, nil
	}
	if laneWords < 1 || laneWords > gate.MaxLaneWords || laneWords&(laneWords-1) != 0 {
		return 0, fmt.Errorf("fault: LaneWords must be 0 or a power of two in [1,%d]; got %d", gate.MaxLaneWords, laneWords)
	}
	return laneWords, nil
}

// widthLog2 maps a lane width in {1,...,MaxLaneWords} to its histogram
// slot.
func widthLog2(w int) int { return bits.TrailingZeros(uint(w)) }

// widthSlots is the number of distinct lane widths
// (1, 2, 4, 8, 16, 32, 64).
const widthSlots = 7

// DefaultLaneWords is the lane-width cap used when Options.LaneWords is 0:
// the widest supported pass (64 words = 4096 faulty machines).
const DefaultLaneWords = gate.MaxLaneWords

// Simulate fault-simulates the collapsed fault list against a recorded
// golden execution of a self-test program on the CPU. Each pass carries up
// to 64*Options.LaneWords faulty machines in the bit lanes of one logic
// simulation; a fault is detected the first cycle any primary output (bus
// address, access kind, write strobes, or strobed write data) differs from
// the golden value. Detected machines are dropped; a pass ends early once
// all its lanes have been detected.
func Simulate(cpu *plasma.CPU, golden *plasma.Golden, faults []Fault, opt Options) (*Result, error) {
	maxW, err := normLaneWords(opt.LaneWords)
	if err != nil {
		return nil, err
	}
	faults = SampleFaults(faults, opt.Sample, opt.Seed)
	res := &Result{
		Faults:          faults,
		DetectedAt:      make([]int32, len(faults)),
		SignatureGroups: make([]uint8, len(faults)),
		Cycles:          golden.Cycles,
	}
	for i := range res.DetectedAt {
		res.DetectedAt[i] = -1
	}

	jobs, skipped := packPasses(cpu.Netlist, golden, faults, opt.Engine, maxW)
	res.Stats.SkippedFaults = skipped
	res.Stats.setGoldenBytes(golden)
	if len(jobs) == 0 {
		if opt.CollectInto != nil {
			opt.CollectInto.Add(&res.Stats)
		}
		return res, nil
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	units := dispatch(cpu.Netlist, golden, faults, jobs, opt.Engine, workers, &res.Stats)
	workers = min(workers, len(units))

	queue := make(chan []PassGroup, len(units))
	for _, u := range units {
		queue <- u
	}
	close(queue)

	// Each worker is a Warm grader: one simulator per pass width it sees,
	// warm-restarted from unit to unit, and the only stats collector.
	var wg sync.WaitGroup
	errs := make([]error, workers)
	stats := make([]SimStats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wm := NewWarm(cpu, opt.Engine)
			for win := range queue {
				if errs[w] = wm.grade(golden, faults, win, res.DetectedAt, res.SignatureGroups); errs[w] != nil {
					return
				}
			}
			wm.collectStats(&stats[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for w := range stats {
		res.Stats.Add(&stats[w])
	}
	if opt.CollectInto != nil {
		opt.CollectInto.Add(&res.Stats)
	}
	return res, nil
}

// differential reports whether a golden grades under the differential
// engine: passes packed by activation window, started from reconstructed
// golden state, and detected lanes conformed back to the golden
// trajectory. The oblivious engine, and a trace recorded without
// activation metadata, pack every pass at cycle 0 and start it cold.
func differential(engine Engine, g *plasma.Golden) bool {
	return engine != EngineOblivious && g.HasActivation()
}

// packPasses groups faults into lane-parallel passes of up to 64*maxW
// machines. The oblivious engine packs in list order from cycle 0, full
// chunks at the cap and the residue at the narrowest width holding it. The
// differential engine sorts faults by quantized activation window, then by
// fanout-cone signature (faults whose divergence spreads through the same
// region of the machine share a pass, keeping a wide pass's event activity
// localized instead of touching the union of hundreds of unrelated cones),
// then by component and index for determinism. Faults that never activate
// — their site never holds the activating value anywhere in the golden run
// — are provably undetectable and are skipped outright; each pass starts
// at the earliest activation among its faults.
//
// Width is chosen per pass by the cost model in chooseWidth: the width
// minimizing estimated grading cost per fault over the chunk, from
// measured per-width constants and the chunk's cone-signature overlap.
func packPasses(n *gate.Netlist, golden *plasma.Golden, faults []Fault, engine Engine, maxW int) ([]PassGroup, int64) {
	diff := differential(engine, golden)
	order := make([]actFault, 0, len(faults))
	var skipped int64
	var cones []uint64
	if diff {
		cones = n.FanoutConeSigs()
	}
	for i, f := range faults {
		var act int32
		var cone uint64
		if diff {
			act = golden.ActivationCycle(n, f.Site)
			if act < 0 {
				skipped++
				continue
			}
			cone = gate.ConeOf(cones, f.Site)
		}
		order = append(order, actFault{idx: i, act: act, cone: cone, comp: f.Comp})
	}
	if diff {
		// Quantize activation cycles into windows so cone grouping has
		// room to work; a pass still fast-forwards to the true minimum
		// activation of the faults it carries, so the quantization only
		// bounds the fast-forward loss, never correctness.
		quant := int32(golden.Cycles / 64)
		if quant < 1 {
			quant = 1
		}
		sort.Slice(order, func(a, b int) bool {
			x, y := order[a], order[b]
			if xw, yw := x.act/quant, y.act/quant; xw != yw {
				return xw < yw
			}
			if x.cone != y.cone {
				return x.cone < y.cone
			}
			if x.comp != y.comp {
				return x.comp < y.comp
			}
			if x.act != y.act {
				return x.act < y.act
			}
			return x.idx < y.idx
		})
	}
	var jobs []PassGroup
	for lo := 0; lo < len(order); {
		var w, hi int
		if diff {
			w, hi = chooseWidth(order, lo, maxW, golden)
		} else {
			w = min(narrowestWidth(len(order)-lo), maxW)
			hi = min(lo+64*w, len(order))
		}
		jobs = append(jobs, newPass(golden, order[lo:hi], w, diff))
		lo = hi
	}
	return jobs, skipped
}

// narrowestWidth is the narrowest lane width, in words, that holds n
// faults (at least one word).
func narrowestWidth(n int) int {
	w := 1
	for 64*w < n && w < gate.MaxLaneWords {
		w *= 2
	}
	return w
}

// newPass packs one run of the packing order into a pass of width w,
// starting at the run's earliest activation under the differential engine
// (at cycle 0 otherwise), with its absolute cost from the width policy's
// model.
func newPass(golden *plasma.Golden, run []actFault, w int, diff bool) PassGroup {
	idxs := make([]int, len(run))
	for k := range run {
		idxs[k] = run[k].idx
	}
	var start int32
	if diff {
		start = minAct(run)
	}
	cost := passCost(golden, start, run, w) * float64(len(run))
	return PassGroup{Idxs: idxs, Start: start, Width: w, Cost: cost}
}

// groupWindows splits the packed pass plan into maximal runs of
// consecutive passes whose start cycles share a checkpoint window. The
// packer sorts passes by (quantized) activation, so equal-floor passes are
// adjacent and the grouping preserves plan order exactly — fusion changes
// how passes are dispatched, never which passes exist or what they carry.
func groupWindows(jobs []PassGroup, g *plasma.Golden) [][]PassGroup {
	wins := make([][]PassGroup, 0, len(jobs))
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		floor := g.CheckpointFloor(jobs[lo].Start)
		for hi < len(jobs) && g.CheckpointFloor(jobs[hi].Start) == floor {
			hi++
		}
		wins = append(wins, jobs[lo:hi])
		lo = hi
	}
	return wins
}

// dispatch turns a pass plan into the work units Simulate's workers take
// from their queue. One worker takes the plan's checkpoint windows in plan
// order (single passes on the oblivious engine, which packs every pass at
// cycle 0), so each window's passes run back to back on one warm
// simulator. With more workers, the plan is balanced against a worker's
// fair share of its Cost (plan cost ÷ workers): a pass costing more is cut
// into at most workers contiguous parts (splitPass), a window costing more
// is cut into contiguous runs of passes, and the units are queued largest
// first, so no worker idles behind one oversized pass or window. Outcomes
// do not depend on the dispatch: each fault's lane runs the same
// trajectory in any pass that starts at or before its activation.
//
// Only a multi-worker dispatch records its shape in st (DispatchUnits,
// PassesSplit, MaxUnitShare); a one-worker run's units are the plan's
// windows, which the fusion counters already describe.
func dispatch(n *gate.Netlist, golden *plasma.Golden, faults []Fault, jobs []PassGroup, engine Engine, workers int, st *SimStats) [][]PassGroup {
	diff := differential(engine, golden)
	var total float64
	for _, j := range jobs {
		total += j.Cost
	}
	if workers <= 1 || total <= 0 {
		return windowsOf(jobs, golden, diff)
	}
	fair := total / float64(workers)

	var passes []PassGroup
	var cones []uint64
	for _, j := range jobs {
		k := min(workers, len(j.Idxs), int(math.Ceil(j.Cost/fair)))
		if k < 2 {
			passes = append(passes, j)
			continue
		}
		if diff && cones == nil {
			cones = n.FanoutConeSigs()
		}
		passes = append(passes, splitPass(n, golden, faults, cones, j, k, diff)...)
		st.PassesSplit++
	}

	type unit struct {
		passes []PassGroup
		cost   float64
	}
	var units []unit
	var unitsCost float64
	for _, win := range windowsOf(passes, golden, diff) {
		lo := 0
		var cost float64
		for i, j := range win {
			if i > lo && cost+j.Cost > fair {
				units = append(units, unit{win[lo:i], cost})
				lo, cost = i, 0
			}
			cost += j.Cost
			unitsCost += j.Cost
		}
		units = append(units, unit{win[lo:], cost})
	}
	sort.SliceStable(units, func(a, b int) bool { return units[a].cost > units[b].cost })

	out := make([][]PassGroup, len(units))
	for i, u := range units {
		out[i] = u.passes
	}
	st.DispatchUnits = int64(len(units))
	st.MaxUnitShare = units[0].cost / unitsCost
	return out
}

// windowsOf is the one-worker dispatch: the plan's checkpoint windows
// under the differential engine, single passes otherwise.
func windowsOf(jobs []PassGroup, g *plasma.Golden, diff bool) [][]PassGroup {
	if diff {
		return groupWindows(jobs, g)
	}
	wins := make([][]PassGroup, len(jobs))
	for i := range jobs {
		wins[i] = jobs[i : i+1]
	}
	return wins
}

// splitPass cuts a planned pass into k contiguous parts of near-equal
// fault count, each packed as packPasses packs a run of its order: the
// narrowest lane width that holds the part, the part's own earliest
// activation as its start, and the part's own cost.
func splitPass(n *gate.Netlist, golden *plasma.Golden, faults []Fault, cones []uint64, j PassGroup, k int, diff bool) []PassGroup {
	order := make([]actFault, len(j.Idxs))
	for i, idx := range j.Idxs {
		f := faults[idx]
		order[i] = actFault{idx: idx}
		if diff {
			order[i].act = golden.ActivationCycle(n, f.Site)
			order[i].cone = gate.ConeOf(cones, f.Site)
		}
	}
	parts := make([]PassGroup, k)
	for p := range parts {
		lo, hi := p*len(order)/k, (p+1)*len(order)/k
		parts[p] = newPass(golden, order[lo:hi], narrowestWidth(hi-lo), diff)
	}
	return parts
}

// stateCursor reconstructs the golden flip-flop state entering ascending
// cycles with one rolling buffer: a request inside the cursor's current
// checkpoint window advances by applying only the XOR deltas between the
// cursor and the target (one batched AdvanceStateRange), a request in a
// later window re-bases on that window's boundary snapshot first, and a
// request behind the cursor (a retrograde width switch inside a window)
// re-bases the same way. Each fused pass start costs a handful of delta
// words instead of a simulated golden replay.
type stateCursor struct {
	g   *plasma.Golden
	buf []uint64
	at  int32
	ok  bool
}

func (c *stateCursor) stateAt(t int32) []uint64 {
	b := c.g.CheckpointFloor(t)
	if !c.ok || t < c.at || b > c.at {
		copy(c.buf, c.g.Snapshot(b))
		c.at, c.ok = b, true
	}
	c.g.AdvanceStateRange(c.buf, c.at, t)
	c.at = t
	return c.buf
}

// passRunner owns one logic simulator and the precomputed signal lists.
type passRunner struct {
	sim    *gate.Sim
	golden *plasma.Golden
	stats  SimStats

	// warm marks a simulator that already graded a pass from a start
	// state: its signal values satisfy the event invariant for some recent
	// golden-adjacent state, so the next such pass restores by diffing
	// (ReplaceFaults + RestoreState) instead of the cold
	// Reset+SetFaults+LoadState.
	warm bool

	rdata   []gate.Sig
	addr    []gate.Sig
	wdata   []gate.Sig
	wstrobe []gate.Sig
	daccess gate.Sig

	// gstate is the rolling golden flip-flop state entering the cycle the
	// pass is about to simulate, advanced each cycle by the golden trace's
	// sparse delta stream; detected lanes are conformed back to it.
	gstate []uint64

	// lf is the per-pass lane-fault scratch list, reused across passes so
	// a warm runner's steady state allocates nothing per pass.
	lf []gate.LaneFault
}

func newPassRunner(cpu *plasma.CPU, s *gate.Sim, golden *plasma.Golden) *passRunner {
	n := cpu.Netlist
	return &passRunner{
		sim:     s,
		golden:  golden,
		rdata:   n.InputBus(plasma.PortRData),
		addr:    n.OutputBus(plasma.PortAddr),
		wdata:   n.OutputBus(plasma.PortWData),
		wstrobe: n.OutputBus(plasma.PortWStrobe),
		daccess: n.OutputBus(plasma.PortDataAccess)[0],
	}
}

var spread = [2]uint64{0, ^uint64(0)}

// runPass simulates one group of up to 64*LaneWords faults to completion,
// writing each lane's outcome through the pass's original-index mapping.
// Lane L lives in bit L%64 of lane word L/64 of every signal.
//
// A nil start is a cold start at cycle 0: Reset, install the faults, and
// simulate from reset. Only cycle-0 passes outside the differential engine
// take it.
//
// Otherwise start is the golden flip-flop state entering job.Start,
// reconstructed from the checkpoint trace by batched XOR-delta
// application, and simulation begins at job.Start directly: before its
// earliest activation every faulty machine is bit-identical to the golden
// machine, so the cycles before it can produce no detection. A warm
// simulator restores by diffing: ReplaceFaults swaps hook sets without a
// full invalidation and RestoreState overwrites only the flip-flops that
// differ, so the next Eval re-evaluates the changed cones instead of
// obliviously sweeping the whole netlist as Reset+SetFaults+LoadState
// would force.
//
// On the event-driven engine, a pass with a start state conforms each
// detected lane back to the golden trajectory (state overwrite + fault
// disarm) — sound because detected lanes are masked out of all future
// detection logic — which starves the event queue of its activity.
func (r *passRunner) runPass(faults []Fault, job PassGroup, detectedAt []int32, sigGroups []uint8, start []uint64) {
	s := r.sim
	w := s.LaneWords()
	lf := r.lf[:0]
	for lane, idx := range job.Idxs {
		lf = append(lf, gate.LaneFault{Site: faults[idx].Site, Lane: lane})
	}
	r.lf = lf
	g := r.golden
	conform := start != nil && s.EventDriven()
	if start == nil {
		s.Reset()
		s.SetFaults(lf)
	} else {
		if r.warm {
			s.ReplaceFaults(lf)
			s.RestoreState(g.DFFs, start)
			r.stats.HookDiffs++
		} else {
			// First pass on this simulator: its construction state is all
			// zeros (a fresh machine's reset state), so no Reset is needed
			// before loading the start snapshot.
			s.SetFaults(lf)
			s.LoadState(g.DFFs, start)
			r.warm = true
		}
		// FastForwarded counts the cycles up to the checkpoint boundary;
		// ReplaySavedCycles the boundary-to-activation cycles the delta
		// reconstruction covers instead of simulation.
		boundary := g.CheckpointFloor(job.Start)
		r.stats.FastForwarded += int64(boundary)
		r.stats.ReplaySavedCycles += int64(job.Start - boundary)
	}
	if conform {
		if r.gstate == nil {
			r.gstate = make([]uint64, g.StateWords())
		}
		copy(r.gstate, start)
	}

	r.stats.Passes++
	r.stats.PassWidthHist[widthLog2(w)]++

	// Per-lane-word bitmaps of live, detected and to-be-conformed lanes.
	var active, detected, toConform [gate.MaxLaneWords]uint64
	for k := 0; k < len(job.Idxs)>>6; k++ {
		active[k] = ^uint64(0)
	}
	if rem := len(job.Idxs) & 63; rem != 0 {
		active[len(job.Idxs)>>6] = 1<<uint(rem) - 1
	}
	anyConform := false

	exit := func(t int) {
		if t >= 0 && g.Cycles > 0 {
			r.stats.ExitHist[t*10/g.Cycles]++
		}
	}
	var addrDiff, daDiff, strobeDiff, wdataDiff, laneWrites [gate.MaxLaneWords]uint64
	for t := int(job.Start); t < g.Cycles; t++ {
		r.stats.SimCycles++
		s.SetBusUniform(plasma.PortRData, uint64(g.RDataAt(t)))
		s.Eval()

		out := g.OutAt(t)
		for k := 0; k < w; k++ {
			addrDiff[k], daDiff[k], strobeDiff[k], wdataDiff[k], laneWrites[k] = 0, 0, 0, 0, 0
		}
		for i, sig := range r.addr {
			gv := spread[out.Addr>>uint(i)&1]
			sw := s.SigWords(sig)
			for k := 0; k < w; k++ {
				addrDiff[k] |= sw[k] ^ gv
			}
		}
		var da uint64
		if out.DataAccess {
			da = ^uint64(0)
		}
		for k, sv := range s.SigWords(r.daccess) {
			daDiff[k] = sv ^ da
		}

		for i, sig := range r.wstrobe {
			gv := spread[out.WStrobe>>uint(i)&1]
			sw := s.SigWords(sig)
			for k := 0; k < w; k++ {
				laneWrites[k] |= sw[k]
				strobeDiff[k] |= sw[k] ^ gv
			}
		}
		// Write data is observable only on cycles where the golden machine
		// or the faulty machine drives a write.
		var anyWrites uint64
		if out.WStrobe != 0 {
			for k := 0; k < w; k++ {
				laneWrites[k] = ^uint64(0)
			}
			anyWrites = ^uint64(0)
		} else {
			for k := 0; k < w; k++ {
				anyWrites |= laneWrites[k]
			}
		}
		if anyWrites != 0 {
			for i, sig := range r.wdata {
				gv := spread[out.WData>>uint(i)&1]
				sw := s.SigWords(sig)
				for k := 0; k < w; k++ {
					wdataDiff[k] |= sw[k] ^ gv
				}
			}
			for k := 0; k < w; k++ {
				wdataDiff[k] &= laneWrites[k]
			}
		}

		var newly [gate.MaxLaneWords]uint64
		var anyNew uint64
		for k := 0; k < w; k++ {
			d := (addrDiff[k] | daDiff[k] | strobeDiff[k] | wdataDiff[k]) & active[k] &^ detected[k]
			newly[k] = d
			anyNew |= d
		}
		if anyNew != 0 {
			window := t * 10 / g.Cycles
			dropped := 0
			allDet := true
			for k := 0; k < w; k++ {
				for rem := newly[k]; rem != 0; {
					bit := bits.TrailingZeros64(rem)
					lane := k<<6 + bit
					detectedAt[job.Idxs[lane]] = int32(t)
					m := uint64(1) << uint(bit)
					var groups uint8
					if addrDiff[k]&m != 0 {
						groups |= SigAddr
					}
					if daDiff[k]&m != 0 {
						groups |= SigDataAccess
					}
					if strobeDiff[k]&m != 0 {
						groups |= SigStrobe
					}
					if wdataDiff[k]&m != 0 {
						groups |= SigWData
					}
					sigGroups[job.Idxs[lane]] = groups
					rem &^= m
				}
				dropped += bits.OnesCount64(newly[k])
				detected[k] |= newly[k]
				toConform[k] |= newly[k]
				if detected[k] != active[k] {
					allDet = false
				}
			}
			r.stats.LanesDropped += int64(dropped)
			r.stats.DroppedPerWindow[window] += int64(dropped)
			if allDet {
				exit(t)
				return
			}
			anyConform = true
		}
		s.Latch()
		if conform {
			// Advance the rolling golden state to the state entering cycle
			// t+1, then conform detected lanes to it. Must happen after
			// Latch: Latch would overwrite the conformed bits with the
			// lane's faulty D values.
			g.AdvanceState(r.gstate, int32(t))
			if anyConform {
				for k := 0; k < w; k++ {
					for rem := toConform[k]; rem != 0; {
						bit := bits.TrailingZeros64(rem)
						s.DropLaneFaults(k<<6 + bit)
						s.SetLaneState(k<<6+bit, g.DFFs, r.gstate)
						rem &^= 1 << uint(bit)
					}
					toConform[k] = 0
				}
				anyConform = false
			}
		}
	}
	exit(g.Cycles - 1)
}

// SampleFaults returns a deterministic random sample of n faults (the
// whole list when n is 0 or not smaller than the list).
func SampleFaults(faults []Fault, n int, seed int64) []Fault {
	if n <= 0 || n >= len(faults) {
		return faults
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(faults))[:n]
	sampled := make([]Fault, n)
	for i, p := range perm {
		sampled[i] = faults[p]
	}
	return sampled
}
