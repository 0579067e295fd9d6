package gate

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteNetlist serializes a netlist to a line-oriented text format:
//
//	netlist <name>
//	comp <name>           (one per component, in id order)
//	g <kind> <in0> <in1> <in2> <comp>   (one per gate, signal = line order)
//	inbus <name> <sig...>
//	outbus <name> <sig...>
//
// Unconnected pins are written as '-'. The format round-trips exactly.
func WriteNetlist(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "netlist %s\n", n.Name)
	for _, c := range n.CompNames {
		fmt.Fprintf(bw, "comp %s\n", c)
	}
	pin := func(s Sig) string {
		if s == NoSig {
			return "-"
		}
		return strconv.Itoa(int(s))
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		fmt.Fprintf(bw, "g %s %s %s %s %d\n", g.Kind, pin(g.In[0]), pin(g.In[1]), pin(g.In[2]), g.Comp)
	}
	for _, p := range n.inputs {
		fmt.Fprintf(bw, "inbus %s%s\n", p.name, sigList(p.sigs))
	}
	for _, p := range n.outputs {
		fmt.Fprintf(bw, "outbus %s%s\n", p.name, sigList(p.sigs))
	}
	return bw.Flush()
}

func sigList(sigs []Sig) string {
	var sb strings.Builder
	for _, s := range sigs {
		fmt.Fprintf(&sb, " %d", s)
	}
	return sb.String()
}

// kindByName resolves a cell kind name.
func kindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// ReadNetlist parses the format written by WriteNetlist and validates the
// result. Netlists arrive from cache artifacts and remote hosts, so every
// number is parsed at the width it is stored in (32-bit signals, 16-bit
// component ids) and every signal reference is range-checked: malformed
// input is an error, never a truncated value or a later panic.
func ReadNetlist(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var n *Netlist
	line := 0
	compCount := 0
	parseSig := func(tok string) (Sig, error) {
		v, err := strconv.ParseInt(tok, 10, 32)
		return Sig(v), err
	}
	parsePin := func(tok string) (Sig, error) {
		if tok == "-" {
			return NoSig, nil
		}
		return parseSig(tok)
	}
	parseSigs := func(toks []string) ([]Sig, error) {
		sigs := make([]Sig, len(toks))
		for i, t := range toks {
			v, err := parseSig(t)
			if err != nil {
				return nil, err
			}
			sigs[i] = v
		}
		return sigs, nil
	}
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "netlist":
			if len(fields) != 2 {
				return nil, fmt.Errorf("gate: line %d: netlist wants a name", line)
			}
			n = NewNetlist(fields[1])
		case "comp":
			if n == nil {
				return nil, fmt.Errorf("gate: line %d: comp before netlist", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("gate: line %d: comp wants a name", line)
			}
			// Component 0 (glue) is predefined; replace its name first.
			if compCount == 0 {
				n.CompNames[0] = fields[1]
			} else {
				n.AddComponent(fields[1])
			}
			compCount++
		case "g":
			if n == nil || len(fields) != 6 {
				return nil, fmt.Errorf("gate: line %d: bad gate line", line)
			}
			k, ok := kindByName(fields[1])
			if !ok {
				return nil, fmt.Errorf("gate: line %d: unknown kind %q", line, fields[1])
			}
			var g Gate
			g.Kind = k
			for p := 0; p < 3; p++ {
				s, err := parsePin(fields[2+p])
				if err != nil {
					return nil, fmt.Errorf("gate: line %d: bad pin %q", line, fields[2+p])
				}
				g.In[p] = s
			}
			comp, err := strconv.ParseInt(fields[5], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("gate: line %d: bad comp id", line)
			}
			g.Comp = CompID(comp)
			n.Gates = append(n.Gates, g)
		case "inbus":
			if n == nil || len(fields) < 2 {
				return nil, fmt.Errorf("gate: line %d: bad inbus", line)
			}
			sigs, err := parseSigs(fields[2:])
			if err != nil {
				return nil, fmt.Errorf("gate: line %d: bad inbus signals", line)
			}
			if _, dup := n.inputByName[fields[1]]; dup {
				return nil, fmt.Errorf("gate: line %d: duplicate inbus %q", line, fields[1])
			}
			n.inputByName[fields[1]] = len(n.inputs)
			n.inputs = append(n.inputs, portDef{name: fields[1], sigs: sigs})
		case "outbus":
			if n == nil || len(fields) < 2 {
				return nil, fmt.Errorf("gate: line %d: bad outbus", line)
			}
			sigs, err := parseSigs(fields[2:])
			if err != nil {
				return nil, fmt.Errorf("gate: line %d: bad outbus signals", line)
			}
			n.outputs = append(n.outputs, portDef{name: fields[1], sigs: sigs})
		default:
			return nil, fmt.Errorf("gate: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == nil {
		return nil, fmt.Errorf("gate: empty netlist file")
	}
	// Input gates declared via inbus must actually be Input cells.
	for _, p := range n.inputs {
		for _, s := range p.sigs {
			if s < 0 || int(s) >= len(n.Gates) || n.Gates[s].Kind != Input {
				return nil, fmt.Errorf("gate: inbus %q signal %d is not an INPUT cell", p.name, s)
			}
		}
	}
	for _, p := range n.outputs {
		for _, s := range p.sigs {
			if s < 0 || int(s) >= len(n.Gates) {
				return nil, fmt.Errorf("gate: outbus %q signal %d is out of range (%d signals)", p.name, s, len(n.Gates))
			}
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
