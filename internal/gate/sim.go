package gate

import (
	"fmt"
	"math"
)

// MaxLaneWords is the widest supported lane word: 64 uint64 words per
// signal, i.e. up to 4096 independent machines per simulation.
const MaxLaneWords = 64

// FaultSite identifies a single stuck-at fault location: a pin of a gate.
// Pin 0 is the gate output (equivalently the stem of the driven signal);
// pins 1..3 are the gate's input pins 0..2 (fanout-branch faults).
type FaultSite struct {
	Gate  Sig
	Pin   int8
	Stuck bool // true: stuck-at-1, false: stuck-at-0
}

func (f FaultSite) String() string {
	v := 0
	if f.Stuck {
		v = 1
	}
	if f.Pin == 0 {
		return fmt.Sprintf("g%d/out s-a-%d", f.Gate, v)
	}
	return fmt.Sprintf("g%d/in%d s-a-%d", f.Gate, f.Pin-1, v)
}

// LaneFault assigns a fault site to one of the simulator's lanes
// (64*LaneWords lanes; lane L lives in bit L%64 of lane word L/64).
type LaneFault struct {
	Site FaultSite
	Lane int
}

// laneInject is the compiled per-gate injection record. The injection is
// confined to a single bit of a single lane word, so faults in different
// lanes never interact regardless of the simulator width.
type laneInject struct {
	pin   int8
	word  int32  // which lane word of the signal carries this fault
	mask  uint64 // 1 bit set: the lane carrying this fault
	stuck uint64 // mask when stuck-at-1, 0 when stuck-at-0
}

// patchEntry is one injected lane word of a hooked gate with every armed
// injection merged per operand: apply in to pin p means
// v = v&^pMask | pStuck. Lane masks of distinct faults never overlap (one
// site occupies one lane), so OR-merging is exact.
type patchEntry struct {
	word              int32
	in                bool // any armed input-pin injection in this word
	aMask, aStuck     uint64
	bMask, bStuck     uint64
	cMask, cStuck     uint64
	outMask, outStuck uint64
}

// Sim is a cycle-accurate, bit-parallel simulator over a fixed netlist.
// Each signal carries W lane words of 64 bits (W a power of two up to
// MaxLaneWords): one independent machine per bit lane, up to 4096
// machines at W=64. Lanes are used either for test patterns
// (combinational characterization, W=1) or faulty machines (fault
// simulation, any W).
//
// A Step evaluates all combinational logic from the current inputs and DFF
// outputs, then latches every DFF. Faults registered via SetFaults are
// injected only into their assigned lane.
//
// Every Sim on one netlist shares the netlist's read-only compiled form
// (compile.go), so a second simulator costs its own signal and hook state,
// not another compile. A netlist must not be edited once a simulator has
// been built on it.
type Sim struct {
	n     *Netlist
	order []Sig // shared: the compiled topological order
	w     int   // lane words per signal

	val   []uint64 // current signal values, signal s at [s*w : s*w+w]
	state []uint64 // DFF latched state (and raw driven value for Input gates)

	hookIdx []int32 // per signal: -1 or index into hooks
	hooks   [][]laneInject
	hooked  []Sig // signals that currently have hooks, for cheap clearing

	// patch is the compiled form of hooks, rebuilt whenever a hook set
	// changes (SetFaults, ReplaceFaults, DropLaneFaults): per hooked gate,
	// one entry per distinct injected lane word with the pin injections
	// merged into per-operand masks. Hooked gates are re-patched on every
	// evaluation — they are the permanently dirty gates of the event
	// engine — so the per-cycle patch must not re-derive this from the
	// raw injection list (a quadratic loop over hooks per injected word);
	// compiling once per hook-set change amortizes it to O(injected words)
	// per evaluation.
	patch [][]patchEntry
	// hookedDFFs lists the flip-flops carrying a D-pin injection record
	// (armed or disarmed): the ones latchEvent must clock every cycle
	// because the injection changes their latched value without any
	// D-input event. Scanning this instead of the whole hooked list keeps
	// the per-Latch overhead proportional to the D-pin fault sites.
	hookedDFFs []Sig

	// uni marks signals whose lane words are all equal (every machine
	// agrees). In a fault pass most switching activity is the golden
	// machine's own, identical in every lane, so the event sweeps evaluate
	// all-uniform-input gates over a single scalar word and broadcast on
	// change instead of running the full-width kernels. Advisory and
	// conservative: val always holds the true words; uni is set only on
	// writes that are provably uniform (and by the equality fold of the
	// full path, so uniformity recovers after divergent lanes conform).
	uni []bool

	// Scratch lane words: ta for D-pin hook application in latchOne, tout
	// for source presentation and event-mode output compare.
	ta, tout [MaxLaneWords]uint64

	inc *incState // non-nil: event-driven incremental evaluation (event.go)

	// Compiled kernel plan (batch.go), resolved once at construction for
	// the SIMD widths (w >= 8) so the steady-state eval loop carries no
	// per-gate kind/width/backend branching: kern/comp are the per-kind
	// AVX2 batch and raw-compute kernel tables at this width (nil when
	// SIMD is unavailable or disabled at construction),
	// goKern the width-bound Go run kernel, and rg the per-signal operand
	// lane-word offsets every batched path reads instead of re-deriving
	// them gate by gate (unused operands stay offset 0 — an in-bounds
	// dead load, never a branch). rg and obl, the oblivious level plan,
	// are the netlist's shared per-width plan; batch holds this sim's
	// per-kind pending runs of the current sweep level, oblFlags its
	// kernel flag scratch for the oblivious runs, kstats the dispatch
	// counters.
	kern     *[numKinds]batchKernel
	comp     *[numKinds]compKernel
	goKern   func(val []uint64, kind Kind, gates []runGate, flags []uint8)
	rg       []runGate
	batch    [numKinds]batchList
	obl      *oblPlan
	oblFlags []uint8
	kstats   KernelStats
}

// NewSim compiles a netlist into a width-1 (64-lane) simulator. The
// netlist must validate.
func NewSim(n *Netlist) (*Sim, error) { return NewSimWidth(n, 1) }

// NewSimWidth compiles a netlist into a simulator carrying w lane words
// (64*w lanes) per signal. w must be a power of two in [1, MaxLaneWords].
func NewSimWidth(n *Netlist, w int) (*Sim, error) {
	s, _, err := newSim(n, w)
	return s, err
}

// newSim builds a simulator's own state over the netlist's shared
// compiled form, which it also returns.
func newSim(n *Netlist, w int) (*Sim, *compiled, error) {
	if w < 1 || w > MaxLaneWords || w&(w-1) != 0 {
		return nil, nil, fmt.Errorf("gate: lane words must be a power of two in [1,%d]; got %d", MaxLaneWords, w)
	}
	if int64(len(n.Gates))*int64(w) > math.MaxInt32 {
		// runGate addresses lane words with int32 offsets (batch.go).
		return nil, nil, fmt.Errorf("gate: netlist too large for %d lane words (%d gates)", w, len(n.Gates))
	}
	c, wp, err := n.compile(w)
	if err != nil {
		return nil, nil, err
	}
	s := &Sim{
		n:       n,
		order:   c.order,
		w:       w,
		val:     make([]uint64, len(n.Gates)*w),
		state:   make([]uint64, len(n.Gates)*w),
		hookIdx: make([]int32, len(n.Gates)),
		hooks:   make([][]laneInject, 0, 64),
		uni:     make([]bool, len(n.Gates)),
	}
	for i := range s.hookIdx {
		s.hookIdx[i] = -1
	}
	if wp != nil {
		// Resolve the dispatch tables for this width and take the shared
		// operand offsets and level runs, so evaluation is a flat walk
		// over resolved kernel calls.
		wi := widthIdx(w)
		s.goKern = goBatchKernels[wi]
		if SIMDEnabled() {
			s.kern = archBatchKernels(wi)
			s.comp = archCompKernels(wi)
		}
		s.rg, s.obl = wp.rg, wp.obl
		s.oblFlags = make([]uint8, wp.obl.maxRun)
	}
	return s, c, nil
}

// compileRunGates precomputes each signal's runGate record: lane-word
// offsets of the output and (up to three) input operands. Source kinds
// (Input/Const/DFF) get a record too — only dst is meaningful there —
// so indexing by signal is uniform. Unused operand slots stay 0: the
// scalar gathers read val[0] harmlessly and the kernels never touch
// them.
func compileRunGates(n *Netlist, w int) []runGate {
	rg := make([]runGate, len(n.Gates))
	w32 := int32(w)
	for i := range n.Gates {
		g := &n.Gates[i]
		r := &rg[i]
		r.dst = int32(i) * w32
		switch g.Kind.NumInputs() {
		case 3:
			r.c = int32(g.In[2]) * w32
			fallthrough
		case 2:
			r.b = int32(g.In[1]) * w32
			fallthrough
		case 1:
			r.a = int32(g.In[0]) * w32
		}
	}
	return rg
}

// Netlist returns the compiled netlist.
func (s *Sim) Netlist() *Netlist { return s.n }

// LaneWords reports the number of 64-bit lane words per signal.
func (s *Sim) LaneWords() int { return s.w }

// Lanes reports the number of independent machine lanes (64 * LaneWords).
func (s *Sim) Lanes() int { return 64 * s.w }

// CombGates reports the number of combinational gates: the per-Eval gate
// evaluation cost of the oblivious engine.
func (s *Sim) CombGates() int { return len(s.order) }

// Reset clears all flip-flop state and signal values.
func (s *Sim) Reset() {
	for i := range s.state {
		s.state[i] = 0
		s.val[i] = 0
	}
	if s.inc != nil {
		s.inc.allDirty = true
		s.inc.latchAll = true
	}
}

// SetFaults installs the given lane faults, replacing any previous set.
// Lanes must be in [0, 64*LaneWords).
func (s *Sim) SetFaults(faults []LaneFault) {
	s.ClearFaults()
	for _, lf := range faults {
		s.installFault(lf)
	}
	s.compileHooks()
	s.invalidate()
}

// compileHooks rebuilds every hooked gate's patch entries and the
// D-pin-hooked flip-flop list after a wholesale hook-set change.
func (s *Sim) compileHooks() {
	s.hookedDFFs = s.hookedDFFs[:0]
	for _, g := range s.hooked {
		h := s.hookIdx[g]
		s.compileHook(h)
		if s.n.Gates[g].Kind == DFF && hasPinInject(s.hooks[h]) {
			s.hookedDFFs = append(s.hookedDFFs, g)
		}
	}
}

// hasPinInject reports whether the list carries an input-pin injection
// record, armed or disarmed. Disarmed records count: a flip-flop whose
// D-pin injection was just disarmed still needs its always-latch until the
// next wholesale hook change, so the clean D value gets recaptured.
func hasPinInject(hooks []laneInject) bool {
	for i := range hooks {
		if hooks[i].pin != 0 {
			return true
		}
	}
	return false
}

// compileHook rebuilds one gate's patch entries from its raw injection
// list, merging armed injections per (word, pin) and dropping disarmed
// ones.
func (s *Sim) compileHook(h int32) {
	entries := s.patch[h][:0]
	for _, inj := range s.hooks[h] {
		if inj.mask == 0 {
			continue // disarmed by DropLaneFaults
		}
		var pe *patchEntry
		for i := range entries {
			if entries[i].word == inj.word {
				pe = &entries[i]
				break
			}
		}
		if pe == nil {
			entries = append(entries, patchEntry{word: inj.word})
			pe = &entries[len(entries)-1]
		}
		switch inj.pin {
		case 0:
			pe.outMask |= inj.mask
			pe.outStuck |= inj.stuck
		case 1:
			pe.in = true
			pe.aMask |= inj.mask
			pe.aStuck |= inj.stuck
		case 2:
			pe.in = true
			pe.bMask |= inj.mask
			pe.bStuck |= inj.stuck
		case 3:
			pe.in = true
			pe.cMask |= inj.mask
			pe.cStuck |= inj.stuck
		}
	}
	s.patch[h] = entries
}

// installFault compiles one lane fault into its gate's hook list, creating
// the hook entry on first use.
func (s *Sim) installFault(lf LaneFault) {
	if lf.Lane < 0 || lf.Lane >= 64*s.w {
		panic(fmt.Sprintf("gate: lane %d out of range [0,%d)", lf.Lane, 64*s.w))
	}
	g := lf.Site.Gate
	if g < 0 || int(g) >= len(s.n.Gates) {
		panic(fmt.Sprintf("gate: fault site gate %d out of range", g))
	}
	inj := laneInject{
		pin:  lf.Site.Pin,
		word: int32(lf.Lane >> 6),
		mask: 1 << uint(lf.Lane&63),
	}
	if lf.Site.Stuck {
		inj.stuck = inj.mask
	}
	if s.hookIdx[g] < 0 {
		s.hookIdx[g] = int32(len(s.hooks))
		s.hooks = append(s.hooks, nil)
		s.patch = append(s.patch, nil)
		s.hooked = append(s.hooked, g)
	}
	h := s.hookIdx[g]
	s.hooks[h] = append(s.hooks[h], inj)
}

// ReplaceFaults swaps the installed fault set for a new one by diffing
// hook sets instead of tearing everything down: where SetFaults marks the
// whole simulator dirty (one oblivious sweep on the next Eval),
// ReplaceFaults empties the current hook lists in place, installs the new
// injections, and only marks the union of old and new hooked gates for
// re-evaluation. Gates that lose every hook are revisited once by the next
// Eval — releasing their stale injected values — and then pruned from the
// hooked set. On an oblivious simulator, or an event simulator that is
// already fully dirty, it is identical to SetFaults.
func (s *Sim) ReplaceFaults(faults []LaneFault) {
	if s.inc == nil || s.inc.allDirty {
		s.SetFaults(faults)
		return
	}
	inc := s.inc
	for _, g := range s.hooked {
		h := s.hookIdx[g]
		if s.n.Gates[g].Kind == DFF {
			// A D-pin injection lives in the flip-flop's latched state, not
			// its hook-applied output; removing it silently would leave the
			// injected bit latched until the next genuine D event. Pend the
			// flip-flop so the next Latch recaptures its clean D value.
			for _, inj := range s.hooks[h] {
				if inj.pin != 0 {
					if !inc.dffPendSet[g] {
						inc.dffPendSet[g] = true
						inc.dffPending = append(inc.dffPending, g)
					}
					break
				}
			}
		}
		s.hooks[h] = s.hooks[h][:0]
	}
	for _, lf := range faults {
		s.installFault(lf)
	}
	s.compileHooks()
	inc.hooksDirty = true
}

// pruneHooks compacts away hooked-gate entries whose hook list is empty
// (every injection removed by ReplaceFaults). Only called after the
// emptied gates were re-presented or re-queued by the hooksDirty prologue,
// so their stale injected values are already released. Compaction keeps
// the hookIdx[hooked[i]] == i layout the hook machinery relies on.
func (s *Sim) pruneHooks() {
	kept := 0
	for _, g := range s.hooked {
		h := s.hookIdx[g]
		if len(s.hooks[h]) == 0 {
			s.hookIdx[g] = -1
			continue
		}
		s.hooks[kept] = s.hooks[h]
		s.patch[kept] = s.patch[h]
		s.hooked[kept] = g
		s.hookIdx[g] = int32(kept)
		kept++
	}
	s.hooked = s.hooked[:kept]
	s.hooks = s.hooks[:kept]
	s.patch = s.patch[:kept]
}

// ClearFaults removes all installed faults.
func (s *Sim) ClearFaults() {
	for _, g := range s.hooked {
		s.hookIdx[g] = -1
	}
	s.hooked = s.hooked[:0]
	s.hooks = s.hooks[:0]
	s.patch = s.patch[:0]
	s.hookedDFFs = s.hookedDFFs[:0]
	s.invalidate()
}

// driveInput stores the raw driven lane words of a primary input (in
// state, so fault injections stay reversible), presents its hooked value,
// and in event-driven mode schedules consumers on change. The same word
// is broadcast into every lane word.
func (s *Sim) driveInput(sig Sig, word uint64) {
	w := s.w
	o := int(sig) * w
	st := s.state[o : o+w]
	for k := range st {
		st[k] = word
	}
	v := st
	if h := s.hookIdx[sig]; h >= 0 {
		t := s.tout[:w]
		copy(t, st)
		s.applyHooks(h, 0, t)
		v = t
	}
	cur := s.val[o : o+w]
	if wordsEqual(cur, v) {
		return
	}
	copy(cur, v)
	s.uni[sig] = allEqual(v)
	if s.inc != nil && !s.inc.allDirty {
		s.inc.events++
		s.propagate(sig)
	}
}

// wordsEqual compares two equal-length lane-word slices.
func wordsEqual(a, b []uint64) bool {
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// allEqual reports whether every lane word of a signal value agrees.
func allEqual(v []uint64) bool {
	u := v[0]
	for _, x := range v[1:] {
		if x != u {
			return false
		}
	}
	return true
}

// SetBusUniform drives an input bus with the same value in every lane.
// Bit i of value drives signal i of the bus (all-zeros/all-ones words).
func (s *Sim) SetBusUniform(name string, value uint64) {
	sigs := s.n.InputBus(name)
	for i, sig := range sigs {
		var w uint64
		if value>>uint(i)&1 != 0 {
			w = ^uint64(0)
		}
		s.driveInput(sig, w)
	}
}

// SetBusWords drives an input bus with per-lane values for the first 64
// lanes: words[i] is lane word 0 for bit i of the bus. Lane words past the
// first are cleared (only meaningful on width-1 simulators, where this
// drives all lanes).
func (s *Sim) SetBusWords(name string, words []uint64) {
	sigs := s.n.InputBus(name)
	if len(words) != len(sigs) {
		panic(fmt.Sprintf("gate: SetBusWords(%q): got %d words, bus width %d", name, len(words), len(sigs)))
	}
	w := s.w
	for i, sig := range sigs {
		o := int(sig) * w
		st := s.state[o : o+w]
		st[0] = words[i]
		for k := 1; k < w; k++ {
			st[k] = 0
		}
		v := st
		if h := s.hookIdx[sig]; h >= 0 {
			t := s.tout[:w]
			copy(t, st)
			s.applyHooks(h, 0, t)
			v = t
		}
		cur := s.val[o : o+w]
		if wordsEqual(cur, v) {
			continue
		}
		copy(cur, v)
		s.uni[sig] = allEqual(v)
		if s.inc != nil && !s.inc.allDirty {
			s.inc.events++
			s.propagate(sig)
		}
	}
}

// BusWords reads an output bus as per-bit lane-0 words into dst, which
// must have the bus width.
func (s *Sim) BusWords(name string, dst []uint64) {
	sigs := s.n.OutputBus(name)
	if len(dst) != len(sigs) {
		panic(fmt.Sprintf("gate: BusWords(%q): got %d words, bus width %d", name, len(dst), len(sigs)))
	}
	for i, sig := range sigs {
		dst[i] = s.val[int(sig)*s.w]
	}
}

// BusLane extracts the value of an output bus in a single lane
// (lane in [0, 64*LaneWords)).
func (s *Sim) BusLane(name string, lane int) uint64 {
	sigs := s.n.OutputBus(name)
	wi, bit := lane>>6, uint(lane&63)
	var v uint64
	for i, sig := range sigs {
		v |= (s.val[int(sig)*s.w+wi] >> bit & 1) << uint(i)
	}
	return v
}

// SigWord returns lane word 0 of a signal (observation capture; the only
// lane word on width-1 simulators).
func (s *Sim) SigWord(sig Sig) uint64 { return s.val[int(sig)*s.w] }

// SigWords returns the signal's full lane-word slice (read-only view into
// the simulator state; valid until the next mutation).
func (s *Sim) SigWords(sig Sig) []uint64 {
	o := int(sig) * s.w
	return s.val[o : o+s.w]
}

// applyHooks applies a hooked gate's fault injections for one pin (0 = the
// gate output, 1 = the first input — a flip-flop's D) to the lane words in
// v, from the compiled patch entries.
func (s *Sim) applyHooks(h int32, pin int8, v []uint64) {
	for i := range s.patch[h] {
		pe := &s.patch[h][i]
		switch pin {
		case 0:
			v[pe.word] = v[pe.word]&^pe.outMask | pe.outStuck
		case 1:
			v[pe.word] = v[pe.word]&^pe.aMask | pe.aStuck
		}
	}
}

// computeInto evaluates one combinational gate (with injection hooks) into
// dst, which must hold LaneWords words and may alias the signal's val
// slice (the combinational graph is acyclic, so dst never aliases an
// input).
func (s *Sim) computeInto(sig Sig, dst []uint64) {
	// Hot path at the wide widths: fixed-size array kernels carry no
	// bounds checks and unroll. Hooked gates (the permanently dirty fault
	// sites, re-evaluated every cycle in event mode) take the same kernels;
	// an injection is confined to one bit of one lane word, so patchHooks
	// repairs just the affected words afterwards instead of copying whole
	// operands through the scratch buffers.
	switch s.w {
	case 8:
		s.computeInto8(sig, (*[8]uint64)(dst))
	case 16:
		s.computeInto16(sig, (*[16]uint64)(dst))
	case 32:
		s.computeInto32(sig, (*[32]uint64)(dst))
	case 64:
		s.computeInto64(sig, (*[64]uint64)(dst))
	default:
		s.computeIntoGeneric(sig, dst)
	}
	if h := s.hookIdx[sig]; h >= 0 {
		s.patchHooks(sig, h, dst)
	}
}

// patchHooks repairs the injected words of a hooked gate's freshly
// computed output from the compiled patch entries: each word carrying an
// armed input-pin injection is recomputed once from its scalar pin values
// with the merged input masks applied, then output (pin 0) injections are
// masked into dst directly. One entry per injected word — the per-cycle
// cost no longer scales with the square of the gate's injection count.
func (s *Sim) patchHooks(sig Sig, h int32, dst []uint64) {
	g := &s.n.Gates[sig]
	w := s.w
	val := s.val
	for i := range s.patch[h] {
		pe := &s.patch[h][i]
		k := int(pe.word)
		if pe.in {
			var a, b, c uint64
			switch g.Kind.NumInputs() {
			case 3:
				c = val[int(g.In[2])*w+k]
				fallthrough
			case 2:
				b = val[int(g.In[1])*w+k]
				fallthrough
			case 1:
				a = val[int(g.In[0])*w+k]
			}
			a = a&^pe.aMask | pe.aStuck
			b = b&^pe.bMask | pe.bStuck
			c = c&^pe.cMask | pe.cStuck
			dst[k] = evalWord(g.Kind, a, b, c)
		}
		dst[k] = dst[k]&^pe.outMask | pe.outStuck
	}
}

// evalWord evaluates one combinational gate over a single lane word.
func evalWord(kind Kind, a, b, c uint64) uint64 {
	switch kind {
	case Buf:
		return a
	case Not:
		return ^a
	case And2:
		return a & b
	case Or2:
		return a | b
	case Nand2:
		return ^(a & b)
	case Nor2:
		return ^(a | b)
	case Xor2:
		return a ^ b
	case Xnor2:
		return ^(a ^ b)
	case Mux2:
		return a&^c | b&c
	}
	panic(fmt.Sprintf("gate: unexpected kind %s in eval order", kind))
}

// computeIntoGeneric is the any-width fallback evaluation.
func (s *Sim) computeIntoGeneric(sig Sig, dst []uint64) {
	g := &s.n.Gates[sig]
	w := s.w
	val := s.val
	var a, b, c []uint64
	switch g.Kind.NumInputs() {
	case 1:
		o := int(g.In[0]) * w
		a = val[o : o+w]
	case 2:
		o0, o1 := int(g.In[0])*w, int(g.In[1])*w
		a, b = val[o0:o0+w], val[o1:o1+w]
	case 3:
		o0, o1, o2 := int(g.In[0])*w, int(g.In[1])*w, int(g.In[2])*w
		a, b, c = val[o0:o0+w], val[o1:o1+w], val[o2:o2+w]
	}
	switch g.Kind {
	case Buf:
		copy(dst, a)
	case Not:
		for k := range dst {
			dst[k] = ^a[k]
		}
	case And2:
		for k := range dst {
			dst[k] = a[k] & b[k]
		}
	case Or2:
		for k := range dst {
			dst[k] = a[k] | b[k]
		}
	case Nand2:
		for k := range dst {
			dst[k] = ^(a[k] & b[k])
		}
	case Nor2:
		for k := range dst {
			dst[k] = ^(a[k] | b[k])
		}
	case Xor2:
		for k := range dst {
			dst[k] = a[k] ^ b[k]
		}
	case Xnor2:
		for k := range dst {
			dst[k] = ^(a[k] ^ b[k])
		}
	case Mux2:
		for k := range dst {
			dst[k] = a[k]&^c[k] | b[k]&c[k]
		}
	default:
		panic(fmt.Sprintf("gate: unexpected kind %s in eval order", g.Kind))
	}
}

// Eval evaluates combinational logic from the current primary inputs and
// flip-flop state without latching. Primary outputs are valid afterwards.
func (s *Sim) Eval() {
	if s.inc != nil {
		s.evalEvent()
		return
	}
	s.evalOblivious()
}

// evalOblivious re-evaluates every gate in topological order. At the
// SIMD widths the combinational levels run as contiguous same-kind
// batches (batch.go); narrower sims take the per-gate loop.
func (s *Sim) evalOblivious() {
	s.presentAllSources()
	if s.w >= 8 {
		s.evalLevelsBatched()
		return
	}
	val := s.val
	w := s.w
	for _, sig := range s.order {
		o := int(sig) * w
		s.computeInto(sig, val[o:o+w])
	}
}

// presentAllSources presents DFF state, constants, and driven inputs with
// output-fault injection, maintaining the uniformity index.
func (s *Sim) presentAllSources() {
	gates := s.n.Gates
	val := s.val
	w := s.w
	for i := range gates {
		k := gates[i].Kind
		if k != DFF && k != Const0 && k != Const1 && k != Input {
			continue
		}
		o := i * w
		dst := val[o : o+w]
		switch k {
		case DFF, Input:
			copy(dst, s.state[o:o+w]) // raw latched/driven value; see driveInput
		case Const0:
			for j := range dst {
				dst[j] = 0
			}
		case Const1:
			for j := range dst {
				dst[j] = ^uint64(0)
			}
		}
		if h := s.hookIdx[i]; h >= 0 {
			s.applyHooks(h, 0, dst)
		}
		s.uni[i] = allEqual(dst)
	}
}

// Latch clocks every DFF, capturing its (possibly fault-injected) D input.
func (s *Sim) Latch() {
	if s.inc != nil {
		s.latchEvent()
		return
	}
	gates := s.n.Gates
	for i := range gates {
		if gates[i].Kind == DFF {
			s.latchOne(Sig(i))
		}
	}
}

// latchOne clocks a single flip-flop, applying D-input injection hooks.
// In event-driven mode a changed flip-flop is marked for presentation.
func (s *Sim) latchOne(sig Sig) {
	w := s.w
	od := int(s.n.Gates[sig].In[0]) * w
	d := s.val[od : od+w]
	if h := s.hookIdx[sig]; h >= 0 {
		t := s.ta[:w]
		copy(t, d)
		s.applyHooks(h, 1, t)
		d = t
	}
	o := int(sig) * w
	st := s.state[o : o+w]
	if wordsEqual(st, d) {
		return
	}
	copy(st, d)
	if s.inc != nil {
		s.markDFFChanged(sig)
	}
}

// Step performs one full clock cycle: Eval then Latch.
func (s *Sim) Step() {
	s.Eval()
	s.Latch()
}
