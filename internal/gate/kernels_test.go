package gate

import (
	"fmt"
	"math/rand"
	"testing"
)

// simdWidths are the lane-word counts with specialized batch kernels,
// indexed as widthIdx maps them.
var simdWidths = []int{8, 16, 32, 64}

// buildRun lays out one same-kind run over a fresh val image: n dst
// slots followed by 3n operand slots, all filled with random words.
// Unused operand offsets stay zero, exactly as the sweeps build them.
// A third of the gates get lane-uniform operands (so the output is
// uniform) and a third get their computed output pre-stored at dst (so
// the change fold must report unchanged).
func buildRun(r *rand.Rand, kind Kind, w, n int) (val []uint64, gates []runGate) {
	val = make([]uint64, (n+3*n)*w)
	for i := range val {
		val[i] = r.Uint64()
	}
	arity := kind.NumInputs()
	for i := 0; i < n; i++ {
		g := runGate{dst: int32(i * w)}
		ops := []*int32{&g.a, &g.b, &g.c}
		for p := 0; p < arity; p++ {
			*ops[p] = int32((n + 3*i + p) * w)
		}
		if i%3 == 1 {
			// Lane-uniform operands: broadcast word 0 of each input.
			for p := 0; p < arity; p++ {
				o := int(*ops[p])
				for k := 1; k < w; k++ {
					val[o+k] = val[o]
				}
			}
		}
		if i%3 == 2 {
			// Pre-store the computed output: the kernel must flag this
			// gate unchanged.
			for k := 0; k < w; k++ {
				val[int(g.dst)+k] = evalWord(kind,
					val[int(g.a)+k], val[int(g.b)+k], val[int(g.c)+k])
			}
		}
		gates = append(gates, g)
	}
	return val, gates
}

// refBatch is a straight-line scalar model of the batch-kernel contract,
// written independently of the generated kernels: outputs into val, one
// change/uniformity flag byte per gate.
func refBatch(val []uint64, kind Kind, gates []runGate, flags []uint8, w int) {
	for i := range gates {
		g := &gates[i]
		var diff, nun, u uint64
		for k := 0; k < w; k++ {
			o := evalWord(kind, val[int(g.a)+k], val[int(g.b)+k], val[int(g.c)+k])
			if k == 0 {
				u = o
			}
			diff |= val[int(g.dst)+k] ^ o
			nun |= o ^ u
			val[int(g.dst)+k] = o
		}
		flags[i] = batchFlags(diff, nun)
	}
}

func compareRun(t *testing.T, tag string, want, got []uint64, wantF, gotF []uint8) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: val[%d] = %#x, want %#x", tag, i, got[i], want[i])
		}
	}
	for i := range wantF {
		if wantF[i] != gotF[i] {
			t.Fatalf("%s: flags[%d] = %#x, want %#x", tag, i, gotF[i], wantF[i])
		}
	}
}

// checkRunEquivalence runs one (kind, width, run) case through the
// scalar reference, the generated Go kernel, and the AVX2 kernel when
// this host runs it, asserting bit-identical outputs and flag bytes.
func checkRunEquivalence(t *testing.T, kind Kind, w int, val []uint64, gates []runGate) {
	t.Helper()
	n := len(gates)
	refVal := append([]uint64(nil), val...)
	refFlags := make([]uint8, n)
	refBatch(refVal, kind, gates, refFlags, w)

	goVal := append([]uint64(nil), val...)
	goFlags := make([]uint8, n)
	goBatchKernels[widthIdx(w)](goVal, kind, gates, goFlags)
	compareRun(t, fmt.Sprintf("go kernel %s w=%d", kind, w), refVal, goVal, refFlags, goFlags)

	if !SIMDAvailable() {
		return
	}
	k := archBatchKernels(widthIdx(w))[kind]
	if k == nil {
		t.Fatalf("no AVX2 batch kernel for %s w=%d", kind, w)
	}
	asmVal := append([]uint64(nil), val...)
	asmFlags := make([]uint8, n)
	k(&asmVal[0], &gates[0], &asmFlags[0], n)
	compareRun(t, fmt.Sprintf("avx2 kernel %s w=%d", kind, w), refVal, asmVal, refFlags, asmFlags)
}

// TestBatchKernelEquivalence asserts the AVX2 batch kernels and
// the generated Go run kernels are bit-identical to an independent scalar
// model across every kind, every SIMD width, and random run shapes —
// including crafted uniform-output and unchanged-output gates.
func TestBatchKernelEquivalence(t *testing.T) {
	for _, w := range simdWidths {
		for kind := Buf; kind <= Mux2; kind++ {
			r := rand.New(rand.NewSource(int64(w)*100 + int64(kind)))
			for trial := 0; trial < 24; trial++ {
				n := 1 + r.Intn(33)
				val, gates := buildRun(r, kind, w, n)
				checkRunEquivalence(t, kind, w, val, gates)
			}
		}
	}
}

// FuzzBatchKernels drives all kernel implementations with fuzzed run
// shapes and operand bits, asserting they never disagree.
func FuzzBatchKernels(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(42), uint8(6), uint8(31))
	f.Add(int64(-7), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, nSel uint8) {
		kind := Buf + Kind(int(kindSel)%int(Mux2-Buf+1))
		n := 1 + int(nSel)%32
		for _, w := range simdWidths {
			r := rand.New(rand.NewSource(seed))
			val, gates := buildRun(r, kind, w, n)
			checkRunEquivalence(t, kind, w, val, gates)
		}
	})
}

// TestRawComputeKernelEquivalence asserts the AVX2 raw-compute kernels
// match evalWord word for word across kinds and widths.
func TestRawComputeKernelEquivalence(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no assembly kernels on this host/build")
	}
	r := rand.New(rand.NewSource(11))
	for wi, w := range simdWidths {
		comp := archCompKernels(wi)
		a := make([]uint64, w)
		b := make([]uint64, w)
		c := make([]uint64, w)
		dst := make([]uint64, w)
		for kind := Buf; kind <= Mux2; kind++ {
			k := comp[kind]
			if k == nil {
				t.Fatalf("no AVX2 raw-compute kernel for %s w=%d", kind, w)
			}
			for trial := 0; trial < 16; trial++ {
				for j := 0; j < w; j++ {
					a[j], b[j], c[j], dst[j] = r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()
				}
				k(&dst[0], &a[0], &b[0], &c[0])
				for j := 0; j < w; j++ {
					if want := evalWord(kind, a[j], b[j], c[j]); dst[j] != want {
						t.Fatalf("%s w=%d word %d = %#x, want %#x", kind, w, j, dst[j], want)
					}
				}
			}
		}
	}
}

// TestSetSIMD exercises the on/off switch: SetSIMD returns the previous
// setting, SIMDEnabled and SIMDKernelName follow it (avx2 only where the
// host has the kernels), and simulators capture the setting at
// construction.
func TestSetSIMD(t *testing.T) {
	prev := SetSIMD(false)
	defer SetSIMD(prev)
	off := "generic"
	if builtPurego {
		off = "purego"
	}
	on := off
	if SIMDAvailable() {
		on = "avx2"
	}
	n := randSeqNetlist(rand.New(rand.NewSource(1)), 4, 40, 4)
	mkSim := func() *Sim {
		s, err := NewSimWidth(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if SIMDEnabled() || SIMDKernelName() != off {
		t.Fatalf("after SetSIMD(false): enabled=%v name=%q, want false/%q", SIMDEnabled(), SIMDKernelName(), off)
	}
	offSim := mkSim()
	if was := SetSIMD(true); was {
		t.Fatal("SetSIMD(true) reported SIMD was already on")
	}
	if SIMDEnabled() != SIMDAvailable() || SIMDKernelName() != on {
		t.Fatalf("after SetSIMD(true): enabled=%v name=%q, want %v/%q", SIMDEnabled(), SIMDKernelName(), SIMDAvailable(), on)
	}
	onSim := mkSim()
	if was := SetSIMD(false); !was {
		t.Fatal("SetSIMD(false) reported SIMD was already off")
	}
	if offSim.kern != nil || offSim.comp != nil {
		t.Fatal("a sim built with SIMD off captured assembly kernels")
	}
	if (onSim.kern != nil) != SIMDAvailable() || (onSim.comp != nil) != SIMDAvailable() {
		t.Fatalf("a sim built with SIMD on captured kern=%v comp=%v on a host with SIMD=%v",
			onSim.kern != nil, onSim.comp != nil, SIMDAvailable())
	}
}

// TestSimTierEquivalence runs the same faulted random circuit on the
// AVX2 kernels and on the generic Go path (SIMD on and off), on both
// engines, asserting every signal word agrees cycle for cycle and that
// the uniformity index never claims a divergent signal uniform. It also
// checks the dispatch counters attribute runs to the right kernel
// family. On a host without AVX2 both halves run the generic kernels.
func TestSimTierEquivalence(t *testing.T) {
	prev := SetSIMD(true)
	defer SetSIMD(prev)
	for _, w := range simdWidths {
		r := rand.New(rand.NewSource(int64(w)))
		n := randSeqNetlist(r, 10, 300, 16)
		faults := randFaults(r, n, 48)
		var sims []*Sim
		var tags []string
		for _, simd := range []bool{true, false} {
			SetSIMD(simd)
			ob, err := NewSimWidth(n, w)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEventSimWidth(n, w)
			if err != nil {
				t.Fatal(err)
			}
			name := SIMDKernelName()
			sims = append(sims, ob, ev)
			tags = append(tags, name+"/obliv", name+"/event")
		}
		for _, s := range sims {
			s.Reset()
			s.SetFaults(faults)
		}
		ref := sims[0]
		for cyc := 0; cyc < 120; cyc++ {
			in := r.Uint64()
			for _, s := range sims {
				s.SetBusUniform("in", in)
				s.Step()
			}
			for si, s := range sims[1:] {
				for i := range ref.val {
					if s.val[i] != ref.val[i] {
						t.Fatalf("w=%d cycle %d: val[%d] diverges: %s=%#x %s=%#x",
							w, cyc, i, tags[0], ref.val[i], tags[si+1], s.val[i])
					}
				}
			}
			for si, s := range sims {
				for sig := range s.n.Gates {
					if s.uni[sig] && !allEqual(s.val[sig*w:(sig+1)*w]) {
						t.Fatalf("w=%d cycle %d %s: uni[%d] set but lanes diverge", w, cyc, tags[si], sig)
					}
				}
			}
		}
		for si, s := range sims {
			ks := s.KernelStats()
			generic := s.kern == nil
			if generic && (ks.GenericRuns == 0 || ks.SIMDRuns != 0) {
				t.Errorf("w=%d %s stats: SIMDRuns=%d GenericRuns=%d", w, tags[si], ks.SIMDRuns, ks.GenericRuns)
			}
			if !generic && (ks.SIMDRuns == 0 || ks.GenericRuns != 0) {
				t.Errorf("w=%d %s stats: SIMDRuns=%d GenericRuns=%d", w, tags[si], ks.SIMDRuns, ks.GenericRuns)
			}
		}
	}
}
