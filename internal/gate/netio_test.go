package gate

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func buildSmallSeq() *Netlist {
	b := NewBuilder("tiny")
	b.BeginComponent("CNT")
	a := b.Input("en")
	q := b.DFFPlaceholder()
	b.ConnectD(q, b.Xor(q, a))
	b.Output("q", q)
	b.EndComponent()
	return b.N
}

func TestNetlistRoundTrip(t *testing.T) {
	n := buildSmallSeq()
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, n); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Name != n.Name || len(n2.Gates) != len(n.Gates) {
		t.Fatalf("shape differs: %s/%d vs %s/%d", n2.Name, len(n2.Gates), n.Name, len(n.Gates))
	}
	for i := range n.Gates {
		if n.Gates[i] != n2.Gates[i] {
			t.Fatalf("gate %d differs: %+v vs %+v", i, n.Gates[i], n2.Gates[i])
		}
	}
	if len(n2.CompNames) != len(n.CompNames) || n2.CompNames[1] != "CNT" {
		t.Fatalf("components differ: %v", n2.CompNames)
	}

	// Both must simulate identically.
	s1, err := NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSim(n2)
	if err != nil {
		t.Fatal(err)
	}
	s1.Reset()
	s2.Reset()
	for i := 0; i < 10; i++ {
		v := uint64(i & 1)
		s1.SetBusUniform("en", v)
		s2.SetBusUniform("en", v)
		s1.Step()
		s2.Step()
		s1.Eval()
		s2.Eval()
		if s1.BusLane("q", 0) != s2.BusLane("q", 0) {
			t.Fatalf("round-tripped netlist diverges at cycle %d", i)
		}
	}
}

func TestReadNetlistErrors(t *testing.T) {
	cases := []string{
		"",
		"g AND2 0 1 - 0",                     // gate before netlist
		"netlist x\ng BOGUS - - - 0",         // unknown kind
		"netlist x\ng AND2 9 9 - 0",          // dangling pins
		"netlist x\nfrob",                    // unknown directive
		"netlist x\ng NOT zz - - 0",          // bad pin token
		"netlist x\ninbus a 0",               // inbus referencing non-input
		"netlist x\ncomp a\ncomp a\nbadline", // tokens
		// Out-of-range outbus signal (the simulator would index past val).
		"netlist x\ncomp glue\ng INPUT - - - 0\ninbus a 0\noutbus o 5",
		// Values that wrap when narrowed: signal 2^32 would read as 0,
		// comp 65536 as 0.
		"netlist x\ng INPUT - - - 0\ng NOT 4294967296 - - 0\ninbus a 0\noutbus o 1",
		"netlist x\ng INPUT - - - 65536\ninbus a 0\noutbus o 0",
		"netlist x\ng INPUT - - - 0\ninbus a 4294967296",
		"netlist x\ng INPUT - - - 0\noutbus o 4294967296",
	}
	for _, src := range cases {
		if _, err := ReadNetlist(strings.NewReader(src)); err == nil {
			t.Errorf("ReadNetlist(%q) succeeded", src)
		}
	}
}

// FuzzReadNetlist feeds arbitrary text to ReadNetlist. Input it rejects
// must come back as an error, never a panic; input it accepts must
// round-trip through WriteNetlist to the same text and must build a
// simulator that evaluates and reads every output bus without panicking.
// The seed corpus holds the out-of-range outbus and wraparound cases of
// TestReadNetlistErrors plus netlists written by WriteNetlist.
func FuzzReadNetlist(f *testing.F) {
	for _, n := range []*Netlist{buildSmallSeq(), randSeqNetlist(rand.New(rand.NewSource(5)), 6, 60, 6)} {
		var buf bytes.Buffer
		if err := WriteNetlist(&buf, n); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("netlist x\ncomp glue\ng INPUT - - - 0\ninbus a 0\noutbus o 5")
	f.Add("netlist x\ng INPUT - - - 0\ng NOT 4294967296 - - 0\ninbus a 0\noutbus o 1")
	f.Add("netlist x\ng INPUT - - - 65536\ninbus a 0\noutbus o 0")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ReadNetlist(strings.NewReader(src))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteNetlist(&first, n); err != nil {
			t.Fatal(err)
		}
		n2, err := ReadNetlist(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted netlist does not re-read: %v\n%s", err, first.String())
		}
		if err := WriteNetlist(&second, n2); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("round trip changed the netlist:\n%s\n---\n%s", first.String(), second.String())
		}
		s, err := NewSim(n)
		if err != nil {
			return
		}
		s.Reset()
		s.Eval()
		for _, name := range n.OutputNames() {
			s.BusLane(name, 0)
		}
	})
}

func TestVCDWriter(t *testing.T) {
	b := NewBuilder("vcd")
	d := b.Input("d")
	q := b.DFF(d)
	b.Output("q", q)
	s, err := NewSim(b.N)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	v, err := NewVCDWriter(&buf, s, map[string][]Sig{
		"d": b.N.InputBus("d"),
		"q": {q},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	for i := 0; i < 4; i++ {
		s.SetBusUniform("d", uint64(i&1))
		s.Eval()
		v.Sample()
		s.Latch()
	}
	if v.Err() != nil {
		t.Fatal(v.Err())
	}
	out := buf.String()
	for _, want := range []string{"$timescale", "$var wire 1", "$enddefinitions", "#0", "b1 ", "#1"} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// Value-change encoding: no change means no re-dump; with d toggling
	// every cycle there must be at least 4 timestamps.
	if strings.Count(out, "#") < 4 {
		t.Errorf("too few timestamps:\n%s", out)
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate VCD id %q at %d", id, i)
		}
		seen[id] = true
	}
}
