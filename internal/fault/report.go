package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gate"
)

// CompCoverage is fault coverage aggregated over one RT-level component,
// the per-row data of Table 5.
type CompCoverage struct {
	Name     string
	Total    int // collapsed faults in the component
	Detected int
	TotalW   int // equivalence-weighted faults
	DetW     int
	// MOFC is the "missed overall fault coverage": the percentage of the
	// whole processor's (weighted) faults that escape inside this
	// component.
	MOFC float64
}

// FC reports the component's weighted fault coverage in percent.
func (c CompCoverage) FC() float64 {
	if c.TotalW == 0 {
		return 0
	}
	return 100 * float64(c.DetW) / float64(c.TotalW)
}

// Report is the per-component breakdown of a fault-simulation result.
type Report struct {
	Components []CompCoverage
	Overall    CompCoverage
}

// NewReport aggregates a result by component, ordering components in the
// paper's Table 5 order when present (functional, control, hidden, glue).
func NewReport(n *gate.Netlist, r *Result) *Report {
	byComp := make(map[gate.CompID]*CompCoverage)
	overall := CompCoverage{Name: "Plasma"}
	for i, f := range r.Faults {
		cc := byComp[f.Comp]
		if cc == nil {
			cc = &CompCoverage{Name: n.CompNames[f.Comp]}
			byComp[f.Comp] = cc
		}
		cc.Total++
		cc.TotalW += f.Equiv
		overall.Total++
		overall.TotalW += f.Equiv
		if r.Detected(i) {
			cc.Detected++
			cc.DetW += f.Equiv
			overall.Detected++
			overall.DetW += f.Equiv
		}
	}
	rep := &Report{Overall: overall}
	for _, cc := range byComp {
		if overall.TotalW > 0 {
			cc.MOFC = 100 * float64(cc.TotalW-cc.DetW) / float64(overall.TotalW)
		}
		rep.Components = append(rep.Components, *cc)
	}
	sort.Slice(rep.Components, func(i, j int) bool {
		oi, oj := tableOrder(rep.Components[i].Name), tableOrder(rep.Components[j].Name)
		if oi != oj {
			return oi < oj
		}
		return rep.Components[i].Name < rep.Components[j].Name
	})
	return rep
}

// tableOrder gives the Table 5 row order of the Plasma components.
var table5Order = []string{"RegF", "MulD", "ALU", "BSH", "MCTRL", "PCL", "CTRL", "BMUX", "PLN", "GL"}

func tableOrder(name string) int {
	for i, n := range table5Order {
		if n == name {
			return i
		}
	}
	return len(table5Order)
}

// String renders the report in the layout of Table 5.
func (rep *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %8s %8s %7s %7s\n", "Component", "Faults", "Detect", "FC%", "MOFC%")
	for _, c := range rep.Components {
		fmt.Fprintf(&sb, "%-10s %8d %8d %7.2f %7.2f\n", c.Name, c.TotalW, c.DetW, c.FC(), c.MOFC)
	}
	ov := rep.Overall
	fmt.Fprintf(&sb, "%-10s %8d %8d %7.2f\n", ov.Name, ov.TotalW, ov.DetW,
		100*float64(ov.DetW)/float64(max(1, ov.TotalW)))
	return sb.String()
}

// ByName returns the coverage row of a component, if present.
func (rep *Report) ByName(name string) (CompCoverage, bool) {
	for _, c := range rep.Components {
		if c.Name == name {
			return c, true
		}
	}
	return CompCoverage{}, false
}
