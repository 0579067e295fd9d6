package gate

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// runDigest simulates cycles clock cycles of a fresh simulator carrying
// the given faults under seeded inputs and hashes every signal and state
// word after every Eval: two runs agree on the digest only if they agree
// on every value of every cycle.
func runDigest(t *testing.T, n *Netlist, w int, event bool, faults []LaneFault, seed int64, cycles int) uint64 {
	var s *Sim
	var err error
	if event {
		s, err = NewEventSimWidth(n, w)
	} else {
		s, err = NewSimWidth(n, w)
	}
	if err != nil {
		t.Error(err)
		return 0
	}
	s.SetFaults(faults)
	r := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	for c := 0; c < cycles; c++ {
		s.SetBusUniform("in", r.Uint64())
		s.Eval()
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s.val[0])), 8*len(s.val)))
		s.Latch()
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s.state[0])), 8*len(s.state)))
	}
	return h.Sum64()
}

// TestSharedCompileConcurrent runs simulators that share one compiled
// netlist — event and oblivious, at scalar and SIMD widths, each with its
// own fault set — on concurrent goroutines (run under -race by
// scripts/check.sh), starting on a netlist no simulator has compiled yet,
// and requires each to match the same run made alone on an identical
// netlist.
func TestSharedCompileConcurrent(t *testing.T) {
	build := func() *Netlist { return randSeqNetlist(rand.New(rand.NewSource(11)), 12, 600, 32) }
	type job struct {
		w      int
		event  bool
		faults []LaneFault
	}
	ref := build()
	r := rand.New(rand.NewSource(5))
	var jobs []job
	for i, w := range []int{1, 2, 8, 8, 16, 64, 64} {
		jobs = append(jobs, job{w: w, event: i%3 != 2, faults: randFaults(r, ref, 64*w)})
	}
	want := make([]uint64, len(jobs))
	for i, j := range jobs {
		want[i] = runDigest(t, ref, j.w, j.event, j.faults, int64(i), 60)
	}

	shared := build()
	got := make([]uint64, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i] = runDigest(t, shared, j.w, j.event, j.faults, int64(i), 60)
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if got[i] != want[i] {
			t.Errorf("job %d (w=%d event=%v): concurrent run on the shared compile differs from the run alone", i, jobs[i].w, jobs[i].event)
		}
	}
}

// TestSecondSimAllocation bounds what a simulator costs once its netlist
// is compiled: its own signal values and flip-flop state (16 bytes per
// gate per lane word) plus at most 256 KiB of per-gate bookkeeping, in a
// handful of allocations — never another copy of the compiled form.
func TestSecondSimAllocation(t *testing.T) {
	n := randSeqNetlist(rand.New(rand.NewSource(3)), 32, 7500, 500)
	for _, w := range []int{1, 8, 64} {
		if _, err := NewEventSimWidth(n, w); err != nil {
			t.Fatal(err)
		}
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := NewEventSimWidth(n, w); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		allocs := (after.Mallocs - before.Mallocs) / runs
		limit := uint64(16*w*len(n.Gates) + 256<<10)
		t.Logf("w=%d: %d B in %d allocations (limit %d B)", w, bytes, allocs, limit)
		if bytes > limit || allocs >= 100 {
			t.Errorf("w=%d: second simulator allocates %d B in %d allocations, want <= %d B in < 100", w, bytes, allocs, limit)
		}
	}
}

// TestEditedNetlistRefused: a netlist edited after its first simulator
// would leave the shared compiled form stale, so later simulators on it
// are refused with an error instead of silently simulating the old
// circuit.
func TestEditedNetlistRefused(t *testing.T) {
	b := NewBuilder("edit")
	in := b.InputBus("in", 2)
	b.Output("o", b.And(in[0], in[1]))
	if _, err := NewEventSim(b.N); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimWidth(b.N, 8); err != nil {
		t.Fatalf("a second width on an unchanged netlist: %v", err)
	}
	b.N.Gates[len(b.N.Gates)-1].Kind = Or2
	if _, err := NewSim(b.N); err == nil || !strings.Contains(err.Error(), "edited") {
		t.Fatalf("simulator on a netlist with a rewired gate: err = %v, want an edited-netlist error", err)
	}
	b.N.Gates[len(b.N.Gates)-1].Kind = And2
	if _, err := NewSim(b.N); err != nil {
		t.Fatalf("netlist restored to its compiled form: %v", err)
	}
	b.Not(in[0])
	if _, err := NewEventSimWidth(b.N, 16); err == nil || !strings.Contains(err.Error(), "edited") {
		t.Fatalf("simulator on a netlist with an added gate: err = %v, want an edited-netlist error", err)
	}
}
