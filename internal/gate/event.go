package gate

// Event-driven (differential) evaluation mode for Sim. The oblivious
// evaluator in sim.go re-evaluates every combinational gate on every Eval;
// a clocked processor has low per-cycle switching activity, so most of
// that work recomputes values that cannot have changed. The incremental
// evaluator keeps per-level dirty queues and only re-evaluates gates whose
// fan-in changed since the previous Eval:
//
//   - signals are levelized once; a changed signal schedules its
//     combinational consumers (which all sit at strictly higher levels),
//     so one ascending sweep over the level queues reaches a fixed point;
//   - flip-flops latch only when a D input saw an event, and present their
//     new output only when the latched state actually changed;
//   - gates with fault-injection hooks re-evaluate when their hook set
//     changes (installation via the full sweep, per-lane disarming via
//     DropLaneFaults): a hook changes the gate's function without any
//     input event, but once the injected value is established in val it is
//     sticky, so between hook mutations hooked gates are re-evaluated only
//     on ordinary input events like any other gate.
//
// The invariant maintained between Evals is word-level: every signal's
// lane words (64*LaneWords lanes) equal its gate function applied to its
// fan-in words (with injection hooks applied). Any operation that breaks
// the invariant wholesale (Reset, SetFaults, LoadState) marks the
// simulator fully dirty, and the next Eval falls back to one oblivious
// sweep.

// incState is the bookkeeping of the event-driven evaluator. The fan-out
// CSR, flip-flop list and level-queue offsets are the netlist's shared
// compiled form (compile.go), read-only here; everything else is this
// simulator's own.
type incState struct {
	// qstate holds each signal's combinational level (sources at 0),
	// negated while the signal waits in its level queue. Folding the
	// queued flag into the level array means the enqueue test touches one
	// random cache line per fanout consumer instead of two — propagate is
	// the hottest loop of the event engine once the kernels are batched.
	qstate   []int32
	maxLevel int32

	// Shared CSR fan-out of each signal, split into combinational
	// consumers (scheduled into level queues) and flip-flop D inputs
	// (scheduled into the latch-pending set).
	combIdx []int32
	combFan []Sig
	dffIdx  []int32
	dffFan  []Sig

	dffs []Sig // shared: every flip-flop signal, for full latches

	// Pending combinational gates, segmented by level: level lv's queue
	// occupies qbuf[qoff[lv] : qpos[lv]], qpos being the running write
	// position (reset to qoff after the level drains). Each segment is
	// sized to the level's gate population (qstate deduplicates, so it
	// cannot overflow). One flat preallocated buffer keeps an enqueue to
	// a single indexed store — the slice-append variant dominated sweep
	// profiles once the kernels went SIMD. qoff is shared.
	qbuf []Sig
	qoff []int32
	qpos []int32

	dffPending []Sig // DFFs whose D input saw an event since the last Latch
	dffPendSet []bool
	dffChanged []Sig // DFFs whose latched state changed since the last Eval
	dffChgSet  []bool

	allDirty   bool // next Eval must be a full oblivious sweep
	latchAll   bool // next Latch must scan every flip-flop
	hooksDirty bool // a hook set changed: next Eval revisits hooked gates

	evals  uint64 // gate evaluations performed
	events uint64 // signal value changes propagated
}

// NewEventSim compiles a netlist into a width-1 simulator that uses
// event-driven incremental evaluation. It is bit-for-bit equivalent to
// NewSim's oblivious evaluator (cross-checked in tests) and much faster on
// low-activity workloads.
func NewEventSim(n *Netlist) (*Sim, error) { return NewEventSimWidth(n, 1) }

// NewEventSimWidth is NewEventSim at w lane words (64*w lanes) per signal.
func NewEventSimWidth(n *Netlist, w int) (*Sim, error) {
	s, c, err := newSim(n, w)
	if err != nil {
		return nil, err
	}
	s.inc = newIncState(c)
	return s, nil
}

// EventDriven reports whether this simulator evaluates incrementally.
func (s *Sim) EventDriven() bool { return s.inc != nil }

func newIncState(c *compiled) *incState {
	ng := len(c.level)
	return &incState{
		qstate:     append([]int32(nil), c.level...),
		maxLevel:   c.maxLevel,
		combIdx:    c.combIdx,
		combFan:    c.combFan,
		dffIdx:     c.dffIdx,
		dffFan:     c.dffFan,
		dffs:       c.dffs,
		qbuf:       make([]Sig, len(c.order)),
		qoff:       c.qoff,
		qpos:       append([]int32(nil), c.qoff[:c.maxLevel+1]...),
		dffPendSet: make([]bool, ng),
		dffChgSet:  make([]bool, ng),
		allDirty:   true,
		latchAll:   true,
	}
}

// enqueue schedules one combinational gate into its level's queue
// segment unless already pending (qstate negative). Dequeue restores the
// positive level (the sweep knows it from its loop variable).
func (inc *incState) enqueue(sig Sig) {
	if lv := inc.qstate[sig]; lv >= 0 {
		inc.qstate[sig] = -lv
		p := inc.qpos[lv]
		inc.qbuf[p] = sig
		inc.qpos[lv] = p + 1
	}
}

// invalidate marks the whole simulator dirty; the next Eval performs one
// oblivious sweep to re-establish the incremental invariant.
func (s *Sim) invalidate() {
	if s.inc != nil {
		s.inc.allDirty = true
	}
}

// propagate schedules the consumers of a changed signal.
func (s *Sim) propagate(sig Sig) {
	inc := s.inc
	for _, c := range inc.combFan[inc.combIdx[sig]:inc.combIdx[sig+1]] {
		inc.enqueue(c)
	}
	for _, d := range inc.dffFan[inc.dffIdx[sig]:inc.dffIdx[sig+1]] {
		if !inc.dffPendSet[d] {
			inc.dffPendSet[d] = true
			inc.dffPending = append(inc.dffPending, d)
		}
	}
}

func (s *Sim) markDFFChanged(sig Sig) {
	inc := s.inc
	if !inc.dffChgSet[sig] {
		inc.dffChgSet[sig] = true
		inc.dffChanged = append(inc.dffChanged, sig)
	}
}

// presentSource re-presents a source gate's output (DFF state, constant,
// or externally driven input) with injection hooks applied. For DFF and
// Input gates, state holds the raw (uninjected) value, so hook changes —
// including DropLaneFaults disarming — are reversible.
func (s *Sim) presentSource(sig Sig) {
	g := &s.n.Gates[sig]
	w := s.w
	o := int(sig) * w
	v := s.tout[:w]
	switch g.Kind {
	case DFF, Input:
		copy(v, s.state[o:o+w])
	case Const0:
		for k := range v {
			v[k] = 0
		}
	case Const1:
		for k := range v {
			v[k] = ^uint64(0)
		}
	}
	if h := s.hookIdx[sig]; h >= 0 {
		s.applyHooks(h, 0, v)
	}
	cur := s.val[o : o+w]
	if wordsEqual(cur, v) {
		return
	}
	copy(cur, v)
	s.uni[sig] = allEqual(v)
	s.inc.events++
	s.propagate(sig)
}

// evalFull re-establishes the incremental invariant with one oblivious
// sweep, discarding any pending queues.
func (s *Sim) evalFull() {
	inc := s.inc
	s.evalOblivious()
	inc.evals += uint64(len(s.order))
	if s.w < 8 {
		// Re-establish the uniformity index from the freshly computed
		// words. At the SIMD widths the batched oblivious sweep already
		// maintained it (sources in presentAllSources, batched gates from
		// the kernel flags, hooked gates after patching).
		w := s.w
		for sig := range s.uni {
			o := sig * w
			s.uni[sig] = allEqual(s.val[o : o+w])
		}
	}
	for lv := int32(1); lv <= inc.maxLevel; lv++ {
		lo := inc.qoff[lv]
		for _, sig := range inc.qbuf[lo:inc.qpos[lv]] {
			inc.qstate[sig] = lv
		}
		inc.qpos[lv] = lo
	}
	for _, sig := range inc.dffPending {
		inc.dffPendSet[sig] = false
	}
	inc.dffPending = inc.dffPending[:0]
	for _, sig := range inc.dffChanged {
		inc.dffChgSet[sig] = false
	}
	inc.dffChanged = inc.dffChanged[:0]
	inc.allDirty = false
	inc.latchAll = true
}

// evalEvent is the incremental Eval: prologue (hooked gates and changed
// flip-flops), then one ascending sweep over the level queues.
func (s *Sim) evalEvent() {
	inc := s.inc
	if inc.allDirty {
		s.evalFull()
		return
	}
	gates := s.n.Gates
	// Gates whose hook set changed since the last Eval re-present (sources)
	// or re-queue (combinational) once, releasing or installing injections.
	// Entries emptied by ReplaceFaults are pruned afterwards: they needed
	// exactly this one revisit to release their stale injected values, and
	// from then on they are ordinary unhooked gates.
	if inc.hooksDirty {
		inc.hooksDirty = false
		prune := false
		for _, sig := range s.hooked {
			switch gates[sig].Kind {
			case DFF, Const0, Const1, Input:
				s.presentSource(sig)
			default:
				inc.enqueue(sig)
			}
			if len(s.hooks[s.hookIdx[sig]]) == 0 {
				prune = true
			}
		}
		if prune {
			s.pruneHooks()
		}
	}
	// Flip-flops whose latched state changed present their new output.
	for _, sig := range inc.dffChanged {
		inc.dffChgSet[sig] = false
		s.presentSource(sig)
	}
	inc.dffChanged = inc.dffChanged[:0]
	switch s.w {
	case 8:
		s.sweep8()
		return
	case 16:
		s.sweep16()
		return
	case 32:
		s.sweep32()
		return
	case 64:
		s.sweep64()
		return
	}
	w := s.w
	out := s.tout[:w]
	for lv := int32(1); lv <= inc.maxLevel; lv++ {
		lo, hi := inc.qoff[lv], inc.qpos[lv]
		if lo == hi {
			continue
		}
		// Same-level gates never schedule each other (levels strictly
		// increase along fanout), so the segment is complete on entry.
		for _, sig := range inc.qbuf[lo:hi] {
			inc.qstate[sig] = lv
			s.computeInto(sig, out)
			inc.evals++
			o := int(sig) * w
			cur := s.val[o : o+w]
			if !wordsEqual(cur, out) {
				copy(cur, out)
				inc.events++
				s.propagate(sig)
			}
		}
		inc.qpos[lv] = lo
	}
}

// uniformInputs reports whether every input of a combinational gate is
// lane-uniform.
func uniformInputs(uni []bool, g *Gate) bool {
	switch g.Kind.NumInputs() {
	case 1:
		return uni[g.In[0]]
	case 2:
		return uni[g.In[0]] && uni[g.In[1]]
	}
	return uni[g.In[0]] && uni[g.In[1]] && uni[g.In[2]]
}

// latchEvent clocks only the flip-flops whose D input saw an event (or
// every flip-flop after a full sweep). Hooked flip-flops always latch: a
// D-pin injection changes the latched value without any D-input event.
func (s *Sim) latchEvent() {
	inc := s.inc
	if inc.latchAll {
		inc.latchAll = false
		for _, sig := range inc.dffPending {
			inc.dffPendSet[sig] = false
		}
		inc.dffPending = inc.dffPending[:0]
		for _, sig := range inc.dffs {
			s.latchOne(sig)
		}
		return
	}
	// Only flip-flops with a D-pin injection record need the unconditional
	// latch (the injection changes their latched value without a D event);
	// output-hooked flip-flops latch on D events like any other.
	for _, sig := range s.hookedDFFs {
		if !inc.dffPendSet[sig] {
			s.latchOne(sig)
		}
	}
	for _, sig := range inc.dffPending {
		inc.dffPendSet[sig] = false
		s.latchOne(sig)
	}
	inc.dffPending = inc.dffPending[:0]
}

// LoadState broadcasts a recorded flip-flop snapshot (bit i of bits is the
// state of dffs[i]) into all lanes (every lane word), replacing the
// current state, and invalidates derived signal values. Used to
// fast-forward a fault pass to a golden checkpoint.
func (s *Sim) LoadState(dffs []Sig, bits []uint64) {
	w := s.w
	for i, sig := range dffs {
		var word uint64
		if bits[i>>6]>>(uint(i)&63)&1 != 0 {
			word = ^uint64(0)
		}
		o := int(sig) * w
		st := s.state[o : o+w]
		for k := range st {
			st[k] = word
		}
	}
	s.invalidate()
}

// RestoreState is LoadState without the invalidation: it broadcasts the
// snapshot into all lanes like LoadState, but instead of marking the whole
// simulator dirty it marks only the flip-flops whose state actually
// changed, so the next Eval re-evaluates their fanout cones and leaves the
// rest of the netlist's established values alone. This is the warm-restart
// path of fused fault passes: consecutive passes of one checkpoint window
// start from nearby golden states, so the diff is small and the oblivious
// re-sweep LoadState would force is almost entirely wasted. Falls back to
// LoadState on an oblivious simulator or one that is already fully dirty
// (where there is no established invariant worth preserving).
func (s *Sim) RestoreState(dffs []Sig, bits []uint64) {
	if s.inc == nil || s.inc.allDirty {
		s.LoadState(dffs, bits)
		return
	}
	inc := s.inc
	w := s.w
	for i, sig := range dffs {
		var word uint64
		if bits[i>>6]>>(uint(i)&63)&1 != 0 {
			word = ^uint64(0)
		}
		o := int(sig) * w
		st := s.state[o : o+w]
		changed := false
		for k := range st {
			if st[k] != word {
				st[k] = word
				changed = true
			}
		}
		if changed {
			// Present the new output on the next Eval, and force the next
			// Latch to recapture D: the latch-skip optimization assumes
			// state holds the D value of the last Latch, which the restore
			// just broke for this flip-flop — its post-Eval D value may
			// differ from the restored state without any D event firing.
			s.markDFFChanged(sig)
			if !inc.dffPendSet[sig] {
				inc.dffPendSet[sig] = true
				inc.dffPending = append(inc.dffPending, sig)
			}
		}
	}
}

// SetLaneState overwrites one lane's flip-flop state with a recorded
// snapshot, leaving the other lanes untouched. In event-driven mode the
// changed flip-flops are marked so the next Eval presents them.
func (s *Sim) SetLaneState(lane int, dffs []Sig, bits []uint64) {
	wi := lane >> 6
	m := uint64(1) << uint(lane&63)
	w := s.w
	for i, sig := range dffs {
		var b uint64
		if bits[i>>6]>>(uint(i)&63)&1 != 0 {
			b = m
		}
		p := int(sig)*w + wi
		old := s.state[p]
		nw := old&^m | b
		if nw != old {
			s.state[p] = nw
			if s.inc != nil {
				s.markDFFChanged(sig)
			}
		}
	}
}

// DropLaneFaults disarms every fault injection assigned to the given lane.
// The hooks stay installed but become inert for the lane; the hook
// mutation marks hooked gates for one re-evaluation on the next Eval,
// which releases the injected values.
func (s *Sim) DropLaneFaults(lane int) {
	wi := int32(lane >> 6)
	m := uint64(1) << uint(lane&63)
	changed := false
	for _, g := range s.hooked {
		h := s.hookIdx[g]
		dropped := false
		for j := range s.hooks[h] {
			if s.hooks[h][j].word == wi && s.hooks[h][j].mask&m != 0 {
				s.hooks[h][j].mask = 0
				s.hooks[h][j].stuck = 0
				dropped = true
			}
		}
		if dropped {
			s.compileHook(h)
			changed = true
		}
	}
	if changed && s.inc != nil {
		s.inc.hooksDirty = true
	}
}

// StateBits collects the lane-0 state of the given flip-flops as a bitset
// (bit i = dffs[i]); dst must hold (len(dffs)+63)/64 words.
func (s *Sim) StateBits(dffs []Sig, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	w := s.w
	for i, sig := range dffs {
		dst[i>>6] |= (s.state[int(sig)*w] & 1) << (uint(i) & 63)
	}
}

// EvalStats reports the cumulative gate evaluations and value-change
// events performed by the event-driven evaluator (zero in oblivious mode).
func (s *Sim) EvalStats() (evals, events uint64) {
	if s.inc == nil {
		return 0, 0
	}
	return s.inc.evals, s.inc.events
}
