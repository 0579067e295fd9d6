package gate

import (
	"fmt"
	"sort"
	"sync"
)

// Sig identifies a signal in a netlist: the index of the gate driving it.
type Sig int32

// NoSig is the zero-like sentinel for an unconnected signal.
const NoSig Sig = -1

// Gate is one cell instance. In holds the driven signal for each connected
// input pin (see Kind.NumInputs); unused pins are NoSig. Comp tags the gate
// with the RT-level component it belongs to, for per-component gate counts
// and fault coverage.
type Gate struct {
	Kind Kind
	In   [3]Sig
	Comp CompID
}

// CompID identifies an RT-level component region within a netlist.
type CompID int16

// GlueComp is the default component for gates created outside any explicit
// component region ("glue logic" in the paper's terminology).
const GlueComp CompID = 0

// Netlist is a flat gate-level circuit with named primary inputs and
// outputs. Gates are stored in creation order; signal i is driven by
// Gates[i].
type Netlist struct {
	Name  string
	Gates []Gate

	// CompNames maps CompID to the component name. Index 0 is glue.
	CompNames []string

	inputs  []portDef
	outputs []portDef

	inputByName map[string]int

	// comp is the compiled form every simulator on the netlist shares,
	// built by the first one (compile.go); compMu guards building it.
	compMu sync.Mutex
	comp   *compiled
}

type portDef struct {
	name string
	sigs []Sig
}

// NewNetlist returns an empty netlist with the glue component predefined.
func NewNetlist(name string) *Netlist {
	return &Netlist{
		Name:        name,
		CompNames:   []string{"GL"},
		inputByName: make(map[string]int),
	}
}

// AddComponent registers a new component region and returns its id.
func (n *Netlist) AddComponent(name string) CompID {
	n.CompNames = append(n.CompNames, name)
	return CompID(len(n.CompNames) - 1)
}

// NumSignals reports the number of signals (== number of gates).
func (n *Netlist) NumSignals() int { return len(n.Gates) }

// add appends a gate and returns the signal it drives.
func (n *Netlist) add(g Gate) Sig {
	n.Gates = append(n.Gates, g)
	return Sig(len(n.Gates) - 1)
}

// AddInputBus declares a named primary input bus of the given width and
// returns its signals, least-significant bit first.
func (n *Netlist) AddInputBus(name string, width int, comp CompID) []Sig {
	if _, dup := n.inputByName[name]; dup {
		panic(fmt.Sprintf("gate: duplicate input bus %q", name))
	}
	sigs := make([]Sig, width)
	for i := range sigs {
		sigs[i] = n.add(Gate{Kind: Input, In: [3]Sig{NoSig, NoSig, NoSig}, Comp: comp})
	}
	n.inputByName[name] = len(n.inputs)
	n.inputs = append(n.inputs, portDef{name: name, sigs: sigs})
	return sigs
}

// AddOutputBus declares a named primary output bus driven by sigs
// (least-significant bit first).
func (n *Netlist) AddOutputBus(name string, sigs []Sig) {
	cp := make([]Sig, len(sigs))
	copy(cp, sigs)
	n.outputs = append(n.outputs, portDef{name: name, sigs: cp})
}

// InputBus returns the signals of a declared input bus.
func (n *Netlist) InputBus(name string) []Sig {
	i, ok := n.inputByName[name]
	if !ok {
		panic(fmt.Sprintf("gate: unknown input bus %q", name))
	}
	return n.inputs[i].sigs
}

// OutputBus returns the signals of a declared output bus.
func (n *Netlist) OutputBus(name string) []Sig {
	for _, p := range n.outputs {
		if p.name == name {
			return p.sigs
		}
	}
	panic(fmt.Sprintf("gate: unknown output bus %q", name))
}

// InputNames lists the declared input buses in declaration order.
func (n *Netlist) InputNames() []string {
	names := make([]string, len(n.inputs))
	for i, p := range n.inputs {
		names[i] = p.name
	}
	return names
}

// OutputNames lists the declared output buses in declaration order.
func (n *Netlist) OutputNames() []string {
	names := make([]string, len(n.outputs))
	for i, p := range n.outputs {
		names[i] = p.name
	}
	return names
}

// ObservedSignals returns every signal referenced by an output bus, in a
// stable order with duplicates removed. These are the primary outputs used
// as fault-observation points.
func (n *Netlist) ObservedSignals() []Sig {
	seen := make(map[Sig]bool)
	var sigs []Sig
	for _, p := range n.outputs {
		for _, s := range p.sigs {
			if !seen[s] {
				seen[s] = true
				sigs = append(sigs, s)
			}
		}
	}
	return sigs
}

// DFFSignals returns every flip-flop signal in creation order. This is the
// canonical ordering for DFF state snapshots (see Sim.StateBits/LoadState).
func (n *Netlist) DFFSignals() []Sig {
	var sigs []Sig
	for i := range n.Gates {
		if n.Gates[i].Kind == DFF {
			sigs = append(sigs, Sig(i))
		}
	}
	return sigs
}

// GateCount reports the netlist area in NAND2 equivalents, per component and
// in total. The per-component slice is indexed by CompID.
func (n *Netlist) GateCount() (perComp []float64, total float64) {
	perComp = make([]float64, len(n.CompNames))
	for _, g := range n.Gates {
		a := g.Kind.NAND2Equivalents()
		perComp[g.Comp] += a
		total += a
	}
	return perComp, total
}

// CellCount reports the number of cell instances per kind (excluding
// Input/Const pseudo-cells when countPseudo is false).
func (n *Netlist) CellCount(countPseudo bool) map[Kind]int {
	m := make(map[Kind]int)
	for _, g := range n.Gates {
		if !countPseudo && (g.Kind == Input || g.Kind == Const0 || g.Kind == Const1) {
			continue
		}
		m[g.Kind]++
	}
	return m
}

// Validate checks structural sanity: every connected input pin references an
// existing signal, arity matches the kind, and the combinational part is
// acyclic. It returns a descriptive error for the first problem found.
func (n *Netlist) Validate() error {
	if err := n.checkPins(); err != nil {
		return err
	}
	_, err := n.levelize()
	return err
}

// checkPins is Validate without the cycle check: pin arity, pin targets and
// component ids.
func (n *Netlist) checkPins() error {
	for i, g := range n.Gates {
		want := g.Kind.NumInputs()
		for p := 0; p < 3; p++ {
			in := g.In[p]
			if p < want {
				if in < 0 || int(in) >= len(n.Gates) {
					return fmt.Errorf("gate %d (%s): input pin %d references invalid signal %d", i, g.Kind, p, in)
				}
			} else if in != NoSig {
				return fmt.Errorf("gate %d (%s): input pin %d connected but kind has arity %d", i, g.Kind, p, want)
			}
		}
		if int(g.Comp) >= len(n.CompNames) || g.Comp < 0 {
			return fmt.Errorf("gate %d (%s): invalid component id %d", i, g.Kind, g.Comp)
		}
	}
	return nil
}

// levelize returns a topological evaluation order for the combinational
// gates. Input, Const and DFF outputs are sources and are excluded from the
// order. It fails if the combinational logic contains a cycle.
func (n *Netlist) levelize() ([]Sig, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]uint8, len(n.Gates))
	order := make([]Sig, 0, len(n.Gates))

	isSource := func(k Kind) bool {
		return k == Input || k == Const0 || k == Const1 || k == DFF
	}

	// Iterative DFS to avoid deep recursion on long logic chains
	// (e.g. 32-bit ripple carry inside a 17k-gate netlist).
	type frame struct {
		sig Sig
		pin int
	}
	var stack []frame
	for root := range n.Gates {
		if state[root] != unvisited || isSource(n.Gates[root].Kind) {
			state[root] = done
			continue
		}
		stack = append(stack[:0], frame{Sig(root), 0})
		state[root] = visiting
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			g := &n.Gates[f.sig]
			if f.pin < g.Kind.NumInputs() {
				in := g.In[f.pin]
				f.pin++
				if isSource(n.Gates[in].Kind) || state[in] == done {
					continue
				}
				if state[in] == visiting {
					return nil, fmt.Errorf("gate: combinational cycle through signal %d (%s)", in, n.Gates[in].Kind)
				}
				state[in] = visiting
				stack = append(stack, frame{in, 0})
				continue
			}
			state[f.sig] = done
			order = append(order, f.sig)
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Signals int
	DFFs    int
	Area    float64 // NAND2 equivalents
	Levels  int     // combinational depth
}

// Stats computes summary statistics. Depth is the longest combinational
// path measured in cells.
func (n *Netlist) Stats() Stats {
	var st Stats
	st.Signals = len(n.Gates)
	_, st.Area = n.GateCount()
	depth := make([]int, len(n.Gates))
	order, err := n.levelize()
	if err != nil {
		st.Levels = -1
		return st
	}
	for _, g := range n.Gates {
		if g.Kind == DFF {
			st.DFFs++
		}
	}
	max := 0
	for _, s := range order {
		g := &n.Gates[s]
		d := 0
		for p := 0; p < g.Kind.NumInputs(); p++ {
			if dd := depth[g.In[p]] + 1; dd > d {
				d = dd
			}
		}
		depth[s] = d
		if d > max {
			max = d
		}
	}
	st.Levels = max
	return st
}

// ComponentOf returns the component name a signal belongs to.
func (n *Netlist) ComponentOf(s Sig) string {
	return n.CompNames[n.Gates[s].Comp]
}

// SortedComponentNames returns component names sorted alphabetically,
// useful for deterministic report iteration.
func (n *Netlist) SortedComponentNames() []string {
	names := append([]string(nil), n.CompNames...)
	sort.Strings(names)
	return names
}
