// Command gen emits the width-specialized gate-evaluation kernel matrix
// for package gate from one kind table, replacing the hand-mirrored
// copies that used to live in kernels.go/sim.go/event.go:
//
//   - kernels_generated.go: the computeInto8/16/32/64 array kernels, the
//     batched event sweeps sweep8/16/32/64, and the batchEvalGo8/16/32/64
//     run kernels (the portable reference the AVX2 kernels must match
//     bit-for-bit, and the kernels every other host runs);
//   - kernels_amd64.go / kernels_amd64.s: declarations, dispatch tables,
//     and the assembly for the AVX2 backend, the one assembly tier.
//
// Run via go generate ./internal/gate (the directive sits in batch.go).
// scripts/check.sh regenerates and fails on any diff, so the committed
// output can never drift from this single source of truth.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

// kind describes one combinational cell of the library (gate.Kind order).
type kind struct {
	Name  string // Go identifier of the Kind constant
	Arity int
}

var kinds = []kind{
	{"Buf", 1},
	{"Not", 1},
	{"And2", 2},
	{"Or2", 2},
	{"Nand2", 2},
	{"Nor2", 2},
	{"Xor2", 2},
	{"Xnor2", 2},
	{"Mux2", 3},
}

// widths are the lane-word counts that get specialized kernels. Narrower
// sims (1/2/4 words) use the generic slice paths.
var widths = []int{8, 16, 32, 64}

// expr is the scalar word function of a kind over operands a/b/c at
// index idx. This is the single definition every emitted kernel (Go and
// asm alike) is derived from.
func expr(name, idx string) string {
	a := "a[" + idx + "]"
	b := "b[" + idx + "]"
	c := "c[" + idx + "]"
	switch name {
	case "Buf":
		return a
	case "Not":
		return "^" + a
	case "And2":
		return a + " & " + b
	case "Or2":
		return a + " | " + b
	case "Nand2":
		return "^(" + a + " & " + b + ")"
	case "Nor2":
		return "^(" + a + " | " + b + ")"
	case "Xor2":
		return a + " ^ " + b
	case "Xnor2":
		return "^(" + a + " ^ " + b + ")"
	case "Mux2":
		return a + "&^" + c + " | " + b + "&" + c
	}
	panic("gen: unknown kind " + name)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gen: ")
	writeGo("kernels_generated.go", genGo())
	writeGo("kernels_amd64.go", genDecls())
	writeRaw("kernels_amd64.s", genAmd64Asm())
}

func writeGo(name string, src []byte) {
	out, err := format.Source(src)
	if err != nil {
		log.Fatalf("format %s: %v\n%s", name, err, src)
	}
	writeRaw(name, out)
}

func writeRaw(name string, out []byte) {
	if err := os.WriteFile(name, out, 0o644); err != nil {
		log.Fatal(err)
	}
}

const header = "// Code generated by \"go run ./gen\"; DO NOT EDIT.\n\n"

// ---------------------------------------------------------------------------
// kernels_generated.go

func genGo() []byte {
	var b bytes.Buffer
	b.WriteString(header)
	fmt.Fprintf(&b, "package gate\n\nimport \"fmt\"\n")
	for _, w := range widths {
		genComputeInto(&b, w)
	}
	for _, w := range widths {
		genBatchEvalGo(&b, w)
	}
	fmt.Fprintf(&b, "\n// goBatchKernels maps widthIdx(w) to the portable run kernel; Sim\n// construction resolves it once so dispatchBatch never switches on width.\nvar goBatchKernels = [%d]func(val []uint64, kind Kind, gates []runGate, flags []uint8){", len(widths))
	for i, w := range widths {
		if i > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "batchEvalGo%d", w)
	}
	fmt.Fprintf(&b, "}\n")
	for _, w := range widths {
		genSweep(&b, w)
	}
	for _, w := range widths {
		genRawCompute(&b, w)
	}
	return b.Bytes()
}

// genRawCompute emits the hooked-path recompute dispatcher: the raw
// (unhooked) output of one gate into out, through the raw-compute kernel
// resolved at Sim construction when the sim has one, else computeInto.
// patchHooks repairs the injected words afterwards.
func genRawCompute(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, `
// rawCompute%[1]d computes sig's raw (unhooked) output into out at %[1]d lane
// words, through the raw-compute kernel resolved at construction. Unused
// operand offsets in the compiled runGate are zero, so &val[r.b]/&val[r.c]
// stay in bounds and the kernel never reads them.
func (s *Sim) rawCompute%[1]d(sig Sig, out *[%[1]d]uint64) {
	if s.comp != nil {
		if k := s.comp[s.n.Gates[sig].Kind]; k != nil {
			r := &s.rg[sig]
			val := s.val
			k(&out[0], &val[r.a], &val[r.b], &val[r.c])
			return
		}
	}
	s.computeInto%[1]d(sig, out)
}
`, w)
}

// genComputeInto emits the per-gate array kernel: fixed-size array
// pointers let every word loop run bounds-check-free with a fixed trip
// count the compiler unrolls. Used for hooked gates (followed by
// patchHooks) and by the computeInto dispatcher.
func genComputeInto(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, `
// computeInto%[1]d is computeInto specialized to %[1]d lane words and no
// injection hooks.
func (s *Sim) computeInto%[1]d(sig Sig, dst *[%[1]d]uint64) {
	g := &s.n.Gates[sig]
	val := s.val
	a := (*[%[1]d]uint64)(val[int(g.In[0])*%[1]d:])
	switch g.Kind {
`, w)
	for _, k := range kinds {
		fmt.Fprintf(b, "\tcase %s:\n", k.Name)
		if k.Arity >= 2 {
			fmt.Fprintf(b, "\t\tb := (*[%d]uint64)(val[int(g.In[1])*%d:])\n", w, w)
		}
		if k.Arity >= 3 {
			fmt.Fprintf(b, "\t\tc := (*[%d]uint64)(val[int(g.In[2])*%d:])\n", w, w)
		}
		if k.Name == "Buf" {
			fmt.Fprintf(b, "\t\t*dst = *a\n")
			continue
		}
		fmt.Fprintf(b, "\t\tfor k := range dst {\n\t\t\tdst[k] = %s\n\t\t}\n", expr(k.Name, "k"))
	}
	fmt.Fprintf(b, `	default:
		panic(fmt.Sprintf("gate: unexpected kind %%s in eval order", g.Kind))
	}
}
`)
}

// genBatchEvalGo emits the portable run kernel: one contiguous
// same-kind run of gates, outputs written straight into val plus one
// change/uniformity flag byte per gate. This is the bit-exact reference
// the assembly kernels are fuzzed against.
func genBatchEvalGo(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, `
// batchEvalGo%[1]d evaluates one contiguous same-kind run of gates at %[1]d
// lane words: outputs are written into val and each gate gets a
// change/uniformity flag byte. Bit-exact reference for the asm kernels.
func batchEvalGo%[1]d(val []uint64, kind Kind, gates []runGate, flags []uint8) {
	switch kind {
`, w)
	for _, k := range kinds {
		fmt.Fprintf(b, "\tcase %s:\n\t\tfor i := range gates {\n\t\t\tg := &gates[i]\n", k.Name)
		fmt.Fprintf(b, "\t\t\ta := (*[%d]uint64)(val[g.a:])\n", w)
		if k.Arity >= 2 {
			fmt.Fprintf(b, "\t\t\tb := (*[%d]uint64)(val[g.b:])\n", w)
		}
		if k.Arity >= 3 {
			fmt.Fprintf(b, "\t\t\tc := (*[%d]uint64)(val[g.c:])\n", w)
		}
		fmt.Fprintf(b, "\t\t\tcur := (*[%d]uint64)(val[g.dst:])\n", w)
		fmt.Fprintf(b, "\t\t\tu := %s\n", expr(k.Name, "0"))
		fmt.Fprintf(b, "\t\t\tdiff := cur[0] ^ u\n\t\t\tcur[0] = u\n\t\t\tvar nun uint64\n")
		fmt.Fprintf(b, "\t\t\tfor k := 1; k < %d; k++ {\n", w)
		fmt.Fprintf(b, "\t\t\t\to := %s\n", expr(k.Name, "k"))
		fmt.Fprintf(b, "\t\t\t\tdiff |= cur[k] ^ o\n\t\t\t\tnun |= o ^ u\n\t\t\t\tcur[k] = o\n\t\t\t}\n")
		fmt.Fprintf(b, "\t\t\tflags[i] = batchFlags(diff, nun)\n\t\t}\n")
	}
	fmt.Fprintf(b, `	default:
		panic(fmt.Sprintf("gate: unexpected kind %%s in batch run", kind))
	}
}
`)
}

// genSweep emits the batched level-queue sweep of evalEvent: hooked
// gates scalar full-width (patchHooks), all-uniform-input gates via the
// scalar fast path, everything else deferred into per-kind contiguous
// runs flushed once per level. Same-level gates are mutually independent
// (levels strictly increase along fanout), so the deferral cannot change
// any value, eval count, or event count. Operand offsets come from the
// compiled per-signal runGate records (Sim.rg), so the steady-state loop
// never re-derives offsets or branches on a gate's input count.
func genSweep(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, `
// sweep%[1]d is the level-queue sweep of evalEvent specialized to %[1]d lane
// words: hooked gates evaluate scalar full-width (then patchHooks), gates
// with all-lane-uniform inputs take a one-word fast path, and the rest
// are batched into per-kind contiguous runs dispatched at the end of the
// level (see flushBatches). The XOR-fold change test avoids the memequal
// call an array compare would cost at these sizes. Scalar operand
// gathers read through the compiled runGate offsets; unused operands are
// offset zero, so val[r.b]/val[r.c] are in-bounds dead loads rather than
// branches.
func (s *Sim) sweep%[1]d() {
	inc := s.inc
	gates := s.n.Gates
	uni := s.uni
	val := s.val
	rg := s.rg
	out := (*[%[1]d]uint64)(s.tout[:%[1]d])
	for lv := int32(1); lv <= inc.maxLevel; lv++ {
		lo, hi := inc.qoff[lv], inc.qpos[lv]
		if lo == hi {
			continue
		}
		// Same-level gates never schedule each other (levels strictly
		// increase along fanout), so the segment is complete on entry.
		for _, sig := range inc.qbuf[lo:hi] {
			inc.qstate[sig] = lv
			inc.evals++
			g := &gates[sig]
			r := &rg[sig]
			if h := s.hookIdx[sig]; h >= 0 {
				s.kstats.ScalarEvals++
				// A hooked gate with all-lane-uniform inputs computes its
				// raw output as one scalar word broadcast; only the
				// injected words differ, and patchHooks recomputes those.
				if uniformInputs(uni, g) {
					u := evalWord(g.Kind, val[r.a], val[r.b], val[r.c])
					for k := range out {
						out[k] = u
					}
				} else {
					s.rawCompute%[1]d(sig, out)
				}
				s.patchHooks(sig, h, s.tout[:%[1]d])
				cur := (*[%[1]d]uint64)(val[r.dst:])
				u := out[0]
				var diff, nun uint64
				for k := range cur {
					diff |= cur[k] ^ out[k]
					nun |= out[k] ^ u
				}
				uni[sig] = nun == 0
				if diff != 0 {
					*cur = *out
					inc.events++
					s.propagate(sig)
				}
				continue
			}
			if uniformInputs(uni, g) {
				s.kstats.UniformHits++
				u := evalWord(g.Kind, val[r.a], val[r.b], val[r.c])
				cur := (*[%[1]d]uint64)(val[r.dst:])
				if uni[sig] && cur[0] == u {
					continue
				}
				for k := range cur {
					cur[k] = u
				}
				uni[sig] = true
				inc.events++
				s.propagate(sig)
				continue
			}
			bl := &s.batch[g.Kind]
			bl.gates = append(bl.gates, *r)
			bl.sigs = append(bl.sigs, sig)
		}
		inc.qpos[lv] = lo
		s.flushBatches()
	}
}
`, w)
}

// ---------------------------------------------------------------------------
// kernels_amd64.go

func genDecls() []byte {
	var b bytes.Buffer
	b.WriteString(header)
	fmt.Fprintf(&b, "//go:build !purego\n\npackage gate\n")
	b.WriteString(`
// AVX2 batch kernels (kernels_amd64.s). Each evaluates one contiguous
// run of same-kind gates at a fixed lane width, writing outputs into val
// and one change/uniformity flag byte per gate; bit-exact with the
// batchEvalGo* reference (asserted by TestBatchKernelEquivalence and
// FuzzBatchKernels).
`)
	for _, w := range widths {
		for _, k := range kinds {
			fmt.Fprintf(&b, "\n//go:noescape\nfunc k%sW%d(val *uint64, gates *runGate, flags *uint8, n int)\n", k.Name, w)
		}
	}
	genTable(&b, "avx2Kernels", "batchKernel", "k", "the AVX2 run kernel")
	b.WriteString(`
// AVX2 raw-compute kernels (kernels_amd64.s). Each writes one gate's
// unhooked output into dst with no change/uniformity fold — the hooked
// recompute path, where patchHooks repairs the injected words and the
// change fold runs against the previous patched value in Go.
`)
	for _, w := range widths {
		for _, k := range kinds {
			fmt.Fprintf(&b, "\n//go:noescape\nfunc kComp%sW%d(dst, a, b, c *uint64)\n", k.Name, w)
		}
	}
	genTable(&b, "avx2Comp", "compKernel", "kComp", "the raw-compute kernel")
	return b.Bytes()
}

// genTable emits a dispatch table mapping widthIdx(w) and gate kind to
// the kernel symbol prefix+Kind+W+width.
func genTable(b *bytes.Buffer, table, typ, prefix, what string) {
	fmt.Fprintf(b, "\n// %s maps widthIdx(w) and gate kind to %s.\nvar %s = [%d][numKinds]%s{\n", table, what, table, len(widths), typ)
	for i, w := range widths {
		fmt.Fprintf(b, "\t%d: {", i)
		for j, k := range kinds {
			if j > 0 {
				fmt.Fprintf(b, ", ")
			}
			fmt.Fprintf(b, "%s: %s%sW%d", k.Name, prefix, k.Name, w)
		}
		fmt.Fprintf(b, "},\n")
	}
	fmt.Fprintf(b, "}\n")
}

// ---------------------------------------------------------------------------
// kernels_amd64.s

// AVX2 register plan (fixed across all kernels):
//
//	DI  val base          SI  current runGate     R8 flags   R9 n
//	AX/BX/CX/DX           operand/dst pointers (a/b/c/dst)
//	R10/R11               flag scratch
//	Y0  gate output chunk Y2..Y5 temps
//	Y12 diff accumulator  Y13 not-uniform accumulator
//	Y14 broadcast of output word 0                Y15 all-ones
func genAmd64Asm() []byte {
	var b bytes.Buffer
	b.WriteString(header)
	fmt.Fprintf(&b, "//go:build !purego\n\n#include \"textflag.h\"\n")
	for _, w := range widths {
		for _, k := range kinds {
			genAsmKernel(&b, k, w)
		}
	}
	for _, w := range widths {
		for _, k := range kinds {
			genAsmCompKernel(&b, k, w)
		}
	}
	return b.Bytes()
}

// needsOnes reports whether the kind's chunk computation complements via
// the all-ones register Y15.
func needsOnes(name string) bool {
	switch name {
	case "Not", "Nand2", "Nor2", "Xnor2":
		return true
	}
	return false
}

func genAsmKernel(b *bytes.Buffer, k kind, w int) {
	name := fmt.Sprintf("k%sW%d", k.Name, w)
	fmt.Fprintf(b, `
// func %s(val *uint64, gates *runGate, flags *uint8, n int)
// %s over a run of %d-lane-word gates: out written to val[g.dst:],
// flags[i] = changed|uniform<<1 (see batchFlags).
TEXT ·%s(SB), NOSPLIT, $0-32
	MOVQ val+0(FP), DI
	MOVQ gates+8(FP), SI
	MOVQ flags+16(FP), R8
	MOVQ n+24(FP), R9
	TESTQ R9, R9
	JZ done
`, name, k.Name, w, name)
	if needsOnes(k.Name) {
		fmt.Fprintf(b, "\tVPCMPEQD Y15, Y15, Y15\n")
	}
	fmt.Fprintf(b, "gate:\n")
	// Operand pointers: runGate is {dst, a, b, c int32} = offsets 0/4/8/12.
	fmt.Fprintf(b, "\tMOVL 0(SI), DX\n\tLEAQ (DI)(DX*8), DX\n")
	fmt.Fprintf(b, "\tMOVL 4(SI), AX\n\tLEAQ (DI)(AX*8), AX\n")
	if k.Arity >= 2 {
		fmt.Fprintf(b, "\tMOVL 8(SI), BX\n\tLEAQ (DI)(BX*8), BX\n")
	}
	if k.Arity >= 3 {
		fmt.Fprintf(b, "\tMOVL 12(SI), CX\n\tLEAQ (DI)(CX*8), CX\n")
	}
	fmt.Fprintf(b, "\tVPXOR Y12, Y12, Y12\n\tVPXOR Y13, Y13, Y13\n")
	for c := 0; c < w/4; c++ {
		off := c * 32
		emitChunk(b, k, off)
		// Fold change (old^new) and store.
		fmt.Fprintf(b, "\tVPXOR %d(DX), Y0, Y4\n\tVPOR Y4, Y12, Y12\n\tVMOVDQU Y0, %d(DX)\n", off, off)
		if c == 0 {
			// Output word 0 just landed in Y0's low qword: broadcast it
			// for the uniformity fold.
			fmt.Fprintf(b, "\tVPBROADCASTQ X0, Y14\n")
		}
		fmt.Fprintf(b, "\tVPXOR Y14, Y0, Y5\n\tVPOR Y5, Y13, Y13\n")
	}
	fmt.Fprintf(b, `	XORL R10, R10
	XORL R11, R11
	VPTEST Y12, Y12
	SETNE R10
	VPTEST Y13, Y13
	SETEQ R11
	ADDL R11, R11
	ORL R11, R10
	MOVB R10, (R8)
	INCQ R8
	ADDQ $16, SI
	DECQ R9
	JNZ gate
done:
	VZEROUPPER
	RET
`)
}

// emitChunk emits the Y0 computation of one 4-word output chunk at byte
// offset off, reading operands at off(AX)/off(BX)/off(CX). Shared by the
// batch kernels and the raw-compute kernels; Y15 holds all-ones for the
// complementing kinds (needsOnes).
func emitChunk(b *bytes.Buffer, k kind, off int) {
	switch k.Name {
	case "Buf":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n", off)
	case "Not":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n\tVPXOR Y15, Y0, Y0\n", off)
	case "And2":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n\tVPAND %d(BX), Y0, Y0\n", off, off)
	case "Or2":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n\tVPOR %d(BX), Y0, Y0\n", off, off)
	case "Nand2":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n\tVPAND %d(BX), Y0, Y0\n\tVPXOR Y15, Y0, Y0\n", off, off)
	case "Nor2":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n\tVPOR %d(BX), Y0, Y0\n\tVPXOR Y15, Y0, Y0\n", off, off)
	case "Xor2":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n\tVPXOR %d(BX), Y0, Y0\n", off, off)
	case "Xnor2":
		fmt.Fprintf(b, "\tVMOVDQU %d(AX), Y0\n\tVPXOR %d(BX), Y0, Y0\n\tVPXOR Y15, Y0, Y0\n", off, off)
	case "Mux2":
		// Y2 = c; Y3 = ^c & a (VPANDN: dst = ^src1 & src2, Plan9
		// operands reversed); Y4 = c & b; Y0 = Y3 | Y4.
		fmt.Fprintf(b, "\tVMOVDQU %d(CX), Y2\n\tVPANDN %d(AX), Y2, Y3\n\tVPAND %d(BX), Y2, Y4\n\tVPOR Y4, Y3, Y0\n", off, off, off)
	}
}

// genAsmCompKernel emits the raw-compute kernel: one gate's unhooked
// output written to dst, no change/uniformity fold. Used by the hooked
// recompute path, where patchHooks repairs the injected words afterwards
// and the change fold happens against the previous patched value in Go.
func genAsmCompKernel(b *bytes.Buffer, k kind, w int) {
	name := fmt.Sprintf("kComp%sW%d", k.Name, w)
	fmt.Fprintf(b, `
// func %s(dst, a, b, c *uint64)
// Raw %s output at %d lane words into dst (no flags, no change fold).
TEXT ·%s(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), AX
`, name, k.Name, w, name)
	if k.Arity >= 2 {
		fmt.Fprintf(b, "\tMOVQ b+16(FP), BX\n")
	}
	if k.Arity >= 3 {
		fmt.Fprintf(b, "\tMOVQ c+24(FP), CX\n")
	}
	if needsOnes(k.Name) {
		fmt.Fprintf(b, "\tVPCMPEQD Y15, Y15, Y15\n")
	}
	for c := 0; c < w/4; c++ {
		off := c * 32
		emitChunk(b, k, off)
		fmt.Fprintf(b, "\tVMOVDQU Y0, %d(DI)\n", off)
	}
	fmt.Fprintf(b, "\tVZEROUPPER\n\tRET\n")
}
