package gate

import "fmt"

// compiled is the read-only form of a netlist that every simulator on it
// shares: the validated topological order, levels, fan-out CSR, flip-flop
// list and level-queue layout, plus, per SIMD lane width, the runGate
// operand offsets and the oblivious level runs. The first NewSim or
// NewEventSim on a netlist builds it (lazily, so building a netlist does
// no simulator work) and nothing writes it afterwards, so any number of
// simulators, on any goroutines, read it at once. A Sim owns only its
// mutable state: signal values, flip-flop state, fault hooks, the
// event-queue positions and the scratch its kernels write.
type compiled struct {
	// sum fingerprints the gates and component table the form was
	// compiled from; a later simulator on an edited netlist sees a
	// different sum and is refused instead of reusing a stale compile.
	sum uint64

	order    []Sig   // topological order of the combinational gates
	level    []int32 // per signal: combinational level (sources at 0)
	maxLevel int32

	// CSR fan-out of each signal, split into combinational consumers
	// (scheduled into level queues) and flip-flop D inputs (scheduled
	// into the latch-pending set).
	combIdx []int32
	combFan []Sig
	dffIdx  []int32
	dffFan  []Sig

	dffs []Sig // every flip-flop signal, for full latches

	// qoff[lv] is where level lv's segment starts in an event
	// simulator's level-queue buffer; each segment holds the level's
	// whole gate population, and qoff[maxLevel+1] == len(order).
	qoff []int32

	wide [4]*widePlan // per SIMD width (widthIdx), built on first use
}

// widePlan is the compiled kernel plan of one SIMD lane width: every
// signal's operand lane-word offsets, and the oblivious level plan built
// from them.
type widePlan struct {
	rg  []runGate
	obl *oblPlan
}

// compile returns the netlist's shared compiled form and, for a SIMD
// width (w >= 8), that width's kernel plan, building whichever is missing.
// A netlist that fails validation is not cached: no simulator was built on
// it, so it may still be repaired. One whose gates or components changed
// since its compiled form was built is an error.
func (n *Netlist) compile(w int) (*compiled, *widePlan, error) {
	sum := n.fingerprint()
	n.compMu.Lock()
	defer n.compMu.Unlock()
	c := n.comp
	if c == nil {
		var err error
		if c, err = newCompiled(n, sum); err != nil {
			return nil, nil, err
		}
		n.comp = c
	} else if c.sum != sum {
		return nil, nil, fmt.Errorf("gate: netlist %q was edited after its first simulator was built; its simulators share one compiled form, so build a new netlist instead", n.Name)
	}
	if w < 8 {
		return c, nil, nil
	}
	wi := widthIdx(w)
	if c.wide[wi] == nil {
		rg := compileRunGates(n, w)
		c.wide[wi] = &widePlan{rg: rg, obl: buildOblivPlan(n, c, rg)}
	}
	return c, c.wide[wi], nil
}

// fingerprint hashes everything a compiled form is derived from: each
// gate's kind, inputs and component, and the component table's length
// (which Validate checks component ids against).
func (n *Netlist) fingerprint() uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h := uint64(len(n.Gates))*m1 ^ uint64(len(n.CompNames))
	for i := range n.Gates {
		g := &n.Gates[i]
		h = (h ^ (uint64(uint32(g.In[0])) | uint64(uint32(g.In[1]))<<32)) * m1
		h = (h ^ (uint64(uint32(g.In[2])) | uint64(g.Kind)<<32 | uint64(uint16(g.Comp))<<40)) * m2
		h ^= h >> 29
	}
	return h
}

func newCompiled(n *Netlist, sum uint64) (*compiled, error) {
	if err := n.checkPins(); err != nil {
		return nil, err
	}
	order, err := n.levelize()
	if err != nil {
		return nil, err
	}
	ng := len(n.Gates)
	c := &compiled{sum: sum, order: order, level: make([]int32, ng)}
	for _, sig := range order {
		g := &n.Gates[sig]
		lv := int32(0)
		for p := 0; p < g.Kind.NumInputs(); p++ {
			if l := c.level[g.In[p]] + 1; l > lv {
				lv = l
			}
		}
		c.level[sig] = lv
		if lv > c.maxLevel {
			c.maxLevel = lv
		}
	}
	combCnt := make([]int32, ng+1)
	dffCnt := make([]int32, ng+1)
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind == DFF {
			c.dffs = append(c.dffs, Sig(i))
			dffCnt[g.In[0]+1]++
			continue
		}
		for p := 0; p < g.Kind.NumInputs(); p++ {
			combCnt[g.In[p]+1]++
		}
	}
	for i := 0; i < ng; i++ {
		combCnt[i+1] += combCnt[i]
		dffCnt[i+1] += dffCnt[i]
	}
	c.combIdx, c.dffIdx = combCnt, dffCnt
	c.combFan = make([]Sig, combCnt[ng])
	c.dffFan = make([]Sig, dffCnt[ng])
	combPos := append([]int32(nil), combCnt[:ng]...)
	dffPos := append([]int32(nil), dffCnt[:ng]...)
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind == DFF {
			d := g.In[0]
			c.dffFan[dffPos[d]] = Sig(i)
			dffPos[d]++
			continue
		}
		for p := 0; p < g.Kind.NumInputs(); p++ {
			in := g.In[p]
			c.combFan[combPos[in]] = Sig(i)
			combPos[in]++
		}
	}
	lvlCnt := make([]int32, c.maxLevel+1)
	for _, sig := range order {
		lvlCnt[c.level[sig]]++
	}
	c.qoff = make([]int32, c.maxLevel+2)
	for lv := int32(0); lv <= c.maxLevel; lv++ {
		c.qoff[lv+1] = c.qoff[lv] + lvlCnt[lv]
	}
	return c, nil
}
