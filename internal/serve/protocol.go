// Package serve is the warm-state grading service: a long-running server
// that constructs the expensive immutable grading state exactly once — the
// synthesized core, captured golden traces (through the content-addressed
// disk cache when one is armed), the collapsed fault universe, pass plans
// from fault.PlanPasses, and the SIMD kernel dispatch tables that come
// with the first simulator build — and then grades test programs for many
// concurrent clients against that shared state. Each request costs one
// fault simulation on an already-warm simulator (fault.Warm), never a
// synthesis, capture, plan, or simulator construction.
//
// The wire protocol reuses internal/shard's length-prefixed CRC-guarded
// gob framing (one persistent shard.Encoder/Decoder stream per direction).
// A connection opens with one
// server-to-client Info frame describing the immutable state; after that
// the client writes Request frames and reads one Response frame per
// request, in order. Concurrency comes from concurrent connections: the
// server grades up to its pool size of requests in parallel.
//
// Results are bit-identical to an in-process fault.Simulate of the same
// golden, faults and options (asserted under concurrent load in tests):
// detection outcomes are independent of pass packing, lane width and
// which warm simulator carries a pass, so serving a grade changes where
// the work runs, never what it computes.
package serve

import (
	"repro/internal/fault"
)

// Info is the handshake frame the server writes once per connection: the
// identity of the immutable state every grade on this server shares. A
// client uses it to decide whether the server is grading the world it
// expects (library, netlist, universe) and to elide the fault list from
// full-universe requests.
type Info struct {
	// Lib is the technology library name the core was synthesized with.
	Lib string
	// NetlistHash is the content address (cache.NetlistHash) of the
	// synthesized netlist.
	NetlistHash string
	// UniverseHash identifies the server's full collapsed fault universe
	// (fault.UniverseHash); FaultCount is its length. A request with a nil
	// fault list grades exactly this universe.
	UniverseHash string
	FaultCount   int
	// Engine is the simulation engine every grade uses; CheckpointK the
	// golden-trace checkpoint interval; LaneWords the default per-pass
	// lane-width cap (0 = cost-model adaptive).
	Engine      fault.Engine
	CheckpointK int
	LaneWords   int
	// SIMD names the gate-evaluation kernel family in use
	// (gate.SIMDKernelName), for observability parity with the CLIs.
	SIMD string
}

// Request asks the server to grade one test program. The program rides in
// the frame (origin + words, the same self-describing form plasma.Golden
// records); the server memoizes the captured golden and the pass plan, so
// repeated grades of the same program pay for neither.
type Request struct {
	// Seq is an opaque client-chosen id echoed in the Response.
	Seq uint64
	// ProgOrigin/ProgWords are the program image; Cycles the golden
	// capture length in clock cycles.
	ProgOrigin uint32
	ProgWords  []uint32
	Cycles     int
	// Faults is the fault list to grade, in client order. nil means the
	// server's full universe (the hot path — no faults on the wire).
	Faults []fault.Fault
	// Sample/Seed, when Sample is nonzero, grade only the deterministic
	// fault.SampleFaults sample of the list; outcomes align to the sample
	// in its order, exactly as fault.Simulate's Result.Faults does.
	Sample int
	Seed   int64
	// LaneWords caps the per-pass lane width for this request's plan
	// (0 = the server default).
	LaneWords int
}

// Response is the per-request result frame: the per-fault outcomes of the
// graded (possibly sampled) fault list, aligned to its order, plus the
// per-grade work statistics.
type Response struct {
	Seq uint64
	// Err, when non-empty, reports a server-side failure for this request
	// (bad program, capture error); the connection stays usable.
	Err string
	// UniverseHash is fault.UniverseHash over the faults actually graded
	// (after sampling), so a client can verify alignment end to end.
	UniverseHash string
	// Cycles is the golden execution length; DetectedAt and
	// SignatureGroups are fault.Result outcomes for the graded list.
	Cycles          int
	DetectedAt      []int32
	SignatureGroups []uint8
	Stats           fault.SimStats
}
