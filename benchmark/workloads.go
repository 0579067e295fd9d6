package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/plasma"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/synth"
)

const (
	sampleSize  = 4096 // the historic sampled Table 5: one 64-word pass per phase
	shortSample = 256  // table5_* and dist_hosts in smoke-test runs
	warmSample  = 256  // dist_hosts set-up grade: ships every artifact, simulates little
	fragCycles  = 64   // the serve fragment: the first 64 cycles of the Phase A program
	fragSample  = 32   // faults graded per serve request
	checkEvery  = 50   // serve_generate checks every 50th request after the loop
	fleetSize   = 2    // dist_hosts worker hosts
)

type phase struct {
	name string
	id   core.PhaseID
}

var table5Phases = []phase{{"A", core.PhaseA}, {"AB", core.PhaseB}}

// fragPhase labels grades of the 64-cycle Phase A fragment.
const fragPhase = "A64"

// workload is one named benchmark workload.
type workload struct {
	name, why string
	// rate is the workload's nominal ops per second on the reference box.
	// A run does ceil(seconds × rate) ops: run length is an op count,
	// never a duration, so both sides of an A/B do identical work.
	rate     float64
	shortOps int
	// setups is how many times a run sets the system up: setup_s is the
	// median, and the last copy serves the timed ops. Cheap set-ups repeat
	// more, to steady the median.
	setups int
	// clients is the closed-loop client count; 0 means one per CPU.
	clients int
	// sample is the fault sample graded per grading call (0 = the full
	// universe, whose outcome does not depend on the seed).
	sample int
	// prepare builds, untimed, the references the checks need.
	prepare func(r *run) error
	// setup builds the system under test; it is timed as setup_s.
	setup func(r *run, sp span) (instance, error)
}

var workloads = []*workload{
	{
		name:     "table5_sampled",
		why:      "historic headline: Table 5 on a 4096-fault sample, one 64-word pass per phase, so gate kernels and golden capture dominate",
		rate:     1.0 / 3.2,
		shortOps: 1,
		setups:   15,
		clients:  1,
		sample:   sampleSize,
		prepare:  prepareCore,
		setup:    setupTable5,
	},
	{
		name:     "table5_full",
		why:      "full 38,910-fault Table 5: 13-14 passes per phase at widths 1-64 on all cores, so width policy, fusion and scheduling decide",
		rate:     1.0 / 15,
		shortOps: 1,
		setups:   15,
		clients:  1,
		prepare:  prepareCore,
		setup:    setupTable5,
	},
	{
		name:     "serve_regrade",
		why:      "sbstd round trips of one 64-cycle fragment from 2 clients; every request hits both memos, so the per-request fixed cost shows",
		rate:     1500,
		shortOps: 20,
		setups:   9,
		sample:   fragSample,
		prepare:  prepareRegrade,
		setup:    setupServe(false),
	},
	{
		name:     "serve_generate",
		why:      "sbstd as a generator loop uses it: every request is a fresh candidate that misses both memos and pays capture, plan and grade",
		rate:     160,
		shortOps: 20,
		setups:   9,
		sample:   fragSample,
		prepare:  prepareGenerate,
		setup:    setupServe(true),
	},
	{
		name:     "dist_hosts",
		why:      "table5_sampled graded through shard.GradeDist on 2 loopback worker hosts: partition, ship, wire, merge and re-dispatch cost",
		rate:     1.0 / 3,
		shortOps: 1,
		setups:   3,
		clients:  1,
		sample:   sampleSize,
		prepare:  prepareDist,
		setup:    setupDist,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// grade is one grading call an op made, kept for its check and for the
// per-layer counters.
type grade struct {
	phase  string
	res    *fault.Result
	rep    *fault.Report
	golden *plasma.Golden    // captured by the op; nil when the server captured it
	plan   []fault.PassGroup // traced ops only
	// planWall is the wall time of the extra fault.PlanPasses call behind
	// plan; the timed loop takes it out of the op's latency, so
	// trace.overhead counts only what the recorder costs.
	planWall time.Duration
	dist     *shard.DistStats
	// simCPU and simWall are process CPU and wall time across an
	// in-process fault.Simulate.
	simCPU, simWall time.Duration
}

// instance is one set-up copy of the system under test.
type instance interface {
	// op runs op i from client c. Its inputs depend only on the seed and i.
	op(c, i int, sp span) ([]grade, error)
	// check verifies op i's outputs; it runs untimed, right after the op.
	check(i int, gs []grade) error
	// finish runs the checks deferred past the timed loop and returns how
	// many ops they failed.
	finish() (failed int, err error)
	// layers adds the per-layer metrics only this instance can see.
	layers(m map[string]float64)
	// pids lists the worker processes the instance started.
	pids() []int
	// close stops everything the set-up started and waits for it.
	close() error
}

// buildCore is the set-up every workload starts with: synthesize the base
// core and collapse its fault universe.
func buildCore(sp span) (*plasma.CPU, []fault.Fault, error) {
	c := sp.child("plasma.build")
	cpu, err := plasma.BuildVariant(plasma.VariantBase, synth.NativeLib{})
	c.end()
	if err != nil {
		return nil, nil, err
	}
	c = sp.child("fault.universe")
	u := fault.Universe(cpu.Netlist)
	c.end()
	return cpu, u, nil
}

// prepareCore builds the benchmark's own core, universe and fault index,
// and checks the expected outputs were recorded for this universe.
func prepareCore(r *run) error {
	cpu, u, err := buildCore(span{})
	if err != nil {
		return err
	}
	if h := fault.UniverseHash(u); h != r.exp.UniverseHash {
		return fmt.Errorf("expected outputs were recorded for universe %.12s, this core has %.12s: regenerate them with -update", r.exp.UniverseHash, h)
	}
	r.cpu, r.universe = cpu, u
	r.comps = core.ClassifyNetlist(cpu.Netlist)
	r.index = make(map[fault.Fault]int, len(u))
	for i, f := range u {
		r.index[f] = i
	}
	if r.sample > 0 {
		r.sampled = fault.SampleFaults(u, r.sample, r.seed)
	} else {
		r.sampled = u
	}
	return nil
}

// capturePhase generates one Table 5 phase's self-test program and
// captures its golden run.
func capturePhase(cpu *plasma.CPU, comps []core.Component, id core.PhaseID, sp span) (*plasma.Golden, error) {
	c := sp.child("core.generate")
	st, err := core.GenerateSelfTest(comps, id)
	c.end()
	if err != nil {
		return nil, err
	}
	c = sp.child("plasma.capture")
	defer c.end()
	return plasma.CaptureGoldenK(cpu, st.Program, st.GateCycles(), plasma.DefaultCheckpointK)
}

// prepareDist adds the in-process reference grades dist_hosts checks
// every op against; their wall time is the work-amplification base.
func prepareDist(r *run) error {
	if err := prepareCore(r); err != nil {
		return err
	}
	r.ref = make(map[string]*fault.Result)
	for _, ph := range table5Phases {
		g, err := capturePhase(r.cpu, r.comps, ph.id, span{})
		if err != nil {
			return err
		}
		t := time.Now()
		res, err := fault.Simulate(r.cpu, g, r.universe, fault.Options{Sample: r.sample, Seed: r.seed, Workers: 1})
		if err != nil {
			return err
		}
		r.refWall += time.Since(t)
		r.ref[ph.name] = res
	}
	return nil
}

// table5 is the Table 5 flow: per phase, GenerateSelfTest → CaptureGoldenK
// → grade → NewReport, graded in-process or, with a fleet, through
// shard.GradeDist.
type table5 struct {
	r        *run
	cpu      *plasma.CPU
	comps    []core.Component
	universe []fault.Fault
	fleet    *fleet
}

func setupTable5(r *run, sp span) (instance, error) {
	cpu, u, err := buildCore(sp)
	if err != nil {
		return nil, err
	}
	return &table5{r: r, cpu: cpu, comps: core.ClassifyNetlist(cpu.Netlist), universe: u}, nil
}

func setupDist(r *run, sp span) (instance, error) {
	in, err := setupTable5(r, sp)
	if err != nil {
		return nil, err
	}
	t := in.(*table5)
	if t.fleet, err = startFleet(r.tmp, fleetSize); err != nil {
		return nil, err
	}
	// The first grade of each phase replicates the core and golden trace
	// to every host; a small sample keeps the simulation itself cheap.
	for _, ph := range table5Phases {
		g, err := capturePhase(t.cpu, t.comps, ph.id, sp)
		if err == nil {
			c := sp.child("shard.grade")
			var ds *shard.DistStats
			_, ds, err = shard.GradeDist(t.cpu, g, t.universe, t.fleet.options(warmSample, r.seed))
			c.end()
			if ds != nil {
				t.fleet.coldBytes += ds.BytesShipped
			}
		}
		if err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *table5) op(_, _ int, sp span) ([]grade, error) {
	gs := make([]grade, 0, len(table5Phases))
	for _, ph := range table5Phases {
		g, err := capturePhase(t.cpu, t.comps, ph.id, sp)
		if err != nil {
			return nil, err
		}
		gr := grade{phase: ph.name, golden: g}
		var c span
		if sp.traced() {
			c = sp.child("fault.plan")
			t0 := time.Now()
			gr.plan, _, err = fault.PlanPasses(t.cpu.Netlist, g, t.r.sampled, fault.EngineEvent, 0)
			gr.planWall = time.Since(t0)
			c.end()
			if err != nil {
				return nil, err
			}
		}
		if t.fleet != nil {
			c = sp.child("shard.grade")
			gr.res, gr.dist, err = shard.GradeDist(t.cpu, g, t.universe, t.fleet.options(t.r.sample, t.r.seed))
			c.end()
		} else {
			c = sp.child("fault.simulate")
			cpu0, w0 := selfCPU(), time.Now()
			gr.res, err = fault.Simulate(t.cpu, g, t.universe, fault.Options{Sample: t.r.sample, Seed: t.r.seed})
			gr.simWall, gr.simCPU = time.Since(w0), selfCPU()-cpu0
			c.end()
		}
		if err != nil {
			return nil, err
		}
		c = sp.child("fault.report")
		gr.rep = fault.NewReport(t.cpu.Netlist, gr.res)
		c.end()
		gs = append(gs, gr)
	}
	return gs, nil
}

func (t *table5) check(_ int, gs []grade) error {
	for _, g := range gs {
		if err := t.r.exp.checkFull(g.phase, g.res, t.r.index); err != nil {
			return err
		}
		if err := t.r.checkPinned(g.phase, g.res); err != nil {
			return err
		}
		if ref := t.r.ref[g.phase]; ref != nil {
			if err := sameOutcomes(g.res, ref); err != nil {
				return fmt.Errorf("phase %s vs in-process reference: %w", g.phase, err)
			}
		}
		ov := g.rep.Overall
		if fc := 100 * float64(ov.DetW) / float64(ov.TotalW); round2(fc) != round2(g.res.WeightedCoverage()) {
			return fmt.Errorf("phase %s: report coverage %.2f%%, result %.2f%%", g.phase, fc, g.res.WeightedCoverage())
		}
	}
	return nil
}

func (t *table5) finish() (int, error) { return 0, nil }

func (t *table5) layers(m map[string]float64) {
	if t.fleet != nil {
		m["shard.ship_bytes_cold"] = float64(t.fleet.coldBytes)
	}
}

func (t *table5) pids() []int {
	if t.fleet == nil {
		return nil
	}
	return t.fleet.pids()
}

func (t *table5) close() error {
	if t.fleet != nil {
		t.fleet.close()
	}
	return nil
}

// sameOutcomes reports whether two grades of the same fault list agree
// fault by fault.
func sameOutcomes(got, want *fault.Result) error {
	if len(got.DetectedAt) != len(want.DetectedAt) || len(got.SignatureGroups) != len(want.SignatureGroups) {
		return fmt.Errorf("%d outcomes, want %d", len(got.DetectedAt), len(want.DetectedAt))
	}
	for i := range want.DetectedAt {
		if got.DetectedAt[i] != want.DetectedAt[i] || got.SignatureGroups[i] != want.SignatureGroups[i] {
			return fmt.Errorf("fault %d: (%d, %#x), want (%d, %#x)", i,
				got.DetectedAt[i], got.SignatureGroups[i], want.DetectedAt[i], want.SignatureGroups[i])
		}
	}
	return nil
}

// fleet is dist_hosts' worker hosts: subprocesses of this binary serving
// shard sessions on loopback TCP, each with its own artifact cache, plus
// the coordinator-side cache the replication pushes from.
type fleet struct {
	cmds      []*exec.Cmd
	hosts     []shard.HostSpec
	cache     *cache.Cache
	coldBytes int64
}

// hostReady is the line a worker host prints once it listens.
const hostReady = "shard host listening on "

// addrWatcher is a worker's stdout: it hands the announced address over
// once and discards everything else.
type addrWatcher struct {
	buf  bytes.Buffer
	once sync.Once
	addr chan string
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.buf.Write(p)
	for {
		line, err := a.buf.ReadString('\n')
		if err != nil {
			a.buf.Reset()
			a.buf.WriteString(line)
			return len(p), nil
		}
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), hostReady); ok {
			a.once.Do(func() { a.addr <- v })
		}
	}
}

func startFleet(tmp string, n int) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	if f.cache, err = cache.Open(filepath.Join(dir, "coordinator")); err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		w := &addrWatcher{addr: make(chan string, 1)}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			shard.EnvHostAddr+"=127.0.0.1:0",
			shard.EnvCacheDir+"="+filepath.Join(dir, fmt.Sprintf("host%d", k)),
			"GOMAXPROCS=1")
		cmd.Stdout, cmd.Stderr = w, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			f.close()
			return nil, fmt.Errorf("start worker host: %w", err)
		}
		f.cmds = append(f.cmds, cmd)
		select {
		case addr := <-w.addr:
			f.hosts = append(f.hosts, shard.HostSpec{Addr: addr})
		case <-time.After(30 * time.Second):
			f.close()
			return nil, fmt.Errorf("worker host %d did not announce its address", k)
		}
	}
	return f, nil
}

func (f *fleet) options(sample int, seed int64) shard.DistOptions {
	return shard.DistOptions{Hosts: f.hosts, Workers: 1, Sample: sample, Seed: seed, Cache: f.cache}
}

func (f *fleet) pids() []int {
	out := make([]int, len(f.cmds))
	for i, c := range f.cmds {
		out[i] = c.Process.Pid
	}
	return out
}

// close kills the worker hosts and waits for them to exit.
func (f *fleet) close() {
	for _, c := range f.cmds {
		c.Process.Kill()
	}
	for _, c := range f.cmds {
		c.Wait() // reports the kill; the host has no other way to end
	}
	f.cmds = nil
}

// fragment is the serve workloads' base program: the Phase A self-test,
// of which a request grades the first fragCycles cycles.
func (r *run) fragment() (*asm.Program, error) {
	st, err := core.GenerateSelfTest(r.comps, core.PhaseA)
	if err != nil {
		return nil, err
	}
	return st.Program, nil
}

// referenceFragment grades a fragment program in-process.
func (r *run) referenceFragment(words []uint32, origin uint32) (*fault.Result, error) {
	g, err := plasma.CaptureGoldenK(r.cpu, &asm.Program{Origin: origin, Words: words}, fragCycles, plasma.DefaultCheckpointK)
	if err != nil {
		return nil, err
	}
	return fault.Simulate(r.cpu, g, r.universe, fault.Options{Sample: r.sample, Seed: r.seed, Workers: 1})
}

func prepareRegrade(r *run) error {
	if err := prepareCore(r); err != nil {
		return err
	}
	base, err := r.fragment()
	if err != nil {
		return err
	}
	ref, err := r.referenceFragment(base.Words, base.Origin)
	if err != nil {
		return err
	}
	r.ref = map[string]*fault.Result{fragPhase: ref}
	return r.checkPinned(fragPhase, ref)
}

func prepareGenerate(r *run) error {
	if err := prepareCore(r); err != nil {
		return err
	}
	base, err := r.fragment()
	if err != nil {
		return err
	}
	r.sites = redrawSites(base.Words[:min(len(base.Words), fragCycles)])
	if len(r.sites) == 0 {
		return fmt.Errorf("the fragment has no immediate operand to re-draw")
	}
	r.imms = drawImmediates(base.Words, r.sites, r.seed, r.total)
	return nil
}

// redrawSites lists the ALU-immediate instructions (addiu, slti, sltiu,
// andi, ori, xori, lui) among words whose 16-bit immediate a candidate
// generator re-draws: the operand patterns of the routine. Instructions
// writing a register some load or store in words uses as its base stay,
// so candidates keep their memory map.
func redrawSites(words []uint32) []int {
	bases := map[uint32]bool{}
	for _, w := range words {
		if f := isa.Decode(w); isa.IsLoad(f.Op) || isa.IsStore(f.Op) {
			bases[f.Rs] = true
		}
	}
	var sites []int
	for i, w := range words {
		f := isa.Decode(w)
		switch f.Op {
		case isa.OpAddiu, isa.OpSlti, isa.OpSltiu, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpLui:
			if !bases[f.Rt] {
				sites = append(sites, i)
			}
		}
	}
	return sites
}

// drawImmediates draws n candidates' immediates for the sites from the
// seed, every candidate distinct from the others and from the base
// program, so every serve_generate request misses the server's memos.
func drawImmediates(base []uint32, sites []int, seed int64, n int) [][]uint16 {
	rng := rand.New(rand.NewSource(seed))
	key := func(imms []uint16) string { return fmt.Sprint(imms) }
	baseImms := make([]uint16, len(sites))
	for k, s := range sites {
		baseImms[k] = uint16(base[s])
	}
	seen := map[string]bool{key(baseImms): true}
	out := make([][]uint16, 0, n)
	for len(out) < n {
		imms := make([]uint16, len(sites))
		for k := range imms {
			imms[k] = uint16(rng.Uint32())
		}
		if k := key(imms); !seen[k] {
			seen[k] = true
			out = append(out, imms)
		}
	}
	return out
}

// candidate is request i's program: the base image with the drawn
// immediates.
func (r *run) candidate(base []uint32, i int) []uint32 {
	words := append([]uint32(nil), base...)
	for k, s := range r.sites {
		words[s] = words[s]&^0xFFFF | uint32(r.imms[i][k])
	}
	return words
}

// served is a serve workload's system: an in-process serve.Server on a
// loopback listener and one persistent client connection per CPU.
type served struct {
	r        *run
	generate bool
	cpu      *plasma.CPU
	universe []fault.Fault
	base     *asm.Program

	srv     *serve.Server
	done    chan error
	serveSp span
	clients []*serve.Client
	stats0  serve.Stats

	mu   sync.Mutex
	kept map[int]*fault.Result // serve_generate: results checked in finish
}

func setupServe(generate bool) func(r *run, sp span) (instance, error) {
	return func(r *run, sp span) (instance, error) {
		cpu, u, err := buildCore(sp)
		if err != nil {
			return nil, err
		}
		c := sp.child("core.generate")
		st, err := core.GenerateSelfTest(core.ClassifyNetlist(cpu.Netlist), core.PhaseA)
		c.end()
		if err != nil {
			return nil, err
		}
		s := &served{r: r, generate: generate, cpu: cpu, universe: u, base: st.Program, kept: map[int]*fault.Result{}}
		c = sp.child("serve.new_server")
		s.srv, err = serve.NewServer(serve.Config{CPU: cpu, Pool: r.clients})
		c.end()
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.done = make(chan error, 1)
		s.serveSp = sp.child("serve.serve")
		go func() { s.done <- s.srv.Serve(ln) }()
		for k := 0; k < r.clients; k++ {
			cl, err := serve.Dial(ln.Addr().String())
			if err != nil {
				s.close()
				return nil, err
			}
			s.clients = append(s.clients, cl)
		}
		// One grade of the base fragment per client memoizes its golden and
		// plan and builds the pool's simulators: the steady state a
		// long-running daemon lives in.
		for _, cl := range s.clients {
			c = sp.child("serve.grade")
			_, err := cl.Grade(cpu, s.stub(st.Program.Words), u, s.options())
			c.end()
			if err != nil {
				s.close()
				return nil, err
			}
		}
		s.stats0 = s.srv.Stats()
		return s, nil
	}
}

// stub is a request's golden as Client.Grade reads it: only the program
// identity and cycle count travel; the server captures the trace.
func (s *served) stub(words []uint32) *plasma.Golden {
	return &plasma.Golden{ProgOrigin: s.base.Origin, ProgWords: words, Cycles: fragCycles}
}

func (s *served) options() fault.Options {
	return fault.Options{Sample: s.r.sample, Seed: s.r.seed}
}

func (s *served) op(c, i int, sp span) ([]grade, error) {
	words := s.base.Words
	if s.generate {
		words = s.r.candidate(words, i)
	}
	x := sp.child("serve.grade")
	res, err := s.clients[c].Grade(s.cpu, s.stub(words), s.universe, s.options())
	x.end()
	if err != nil {
		return nil, err
	}
	return []grade{{phase: fragPhase, res: res}}, nil
}

func (s *served) check(i int, gs []grade) error {
	res := gs[0].res
	if !s.generate {
		return sameOutcomes(res, s.r.ref[fragPhase])
	}
	if i%checkEvery == 0 {
		s.mu.Lock()
		s.kept[i] = res
		s.mu.Unlock()
	}
	return nil
}

// finish grades every kept serve_generate candidate in-process and
// compares; candidate 0 is also compared with its pinned digest.
func (s *served) finish() (int, error) {
	failed := 0
	for i, got := range s.kept {
		want, err := s.r.referenceFragment(s.r.candidate(s.base.Words, i), s.base.Origin)
		if err != nil {
			return failed, err
		}
		err = sameOutcomes(got, want)
		if err == nil && i == 0 {
			err = s.r.checkPinned(fragPhase, want)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "request %d: %v\n", i, err)
			failed++
		}
	}
	return failed, nil
}

func (s *served) layers(m map[string]float64) {
	st := s.srv.Stats()
	reqs := float64(st.Requests - s.stats0.Requests)
	if reqs > 0 {
		m["serve.server_ms"] = float64(st.LatencyNs-s.stats0.LatencyNs) / reqs / 1e6
	}
	capt := float64(st.GoldenCaptures - s.stats0.GoldenCaptures)
	builds := float64(st.PlanBuilds - s.stats0.PlanBuilds)
	hits := float64(st.GoldenHits-s.stats0.GoldenHits) + float64(st.PlanHits-s.stats0.PlanHits)
	m["serve.golden_captures"] = capt
	m["serve.plan_builds"] = builds
	if tot := capt + builds + hits; tot > 0 {
		m["serve.memo_hit_ratio"] = hits / tot
	}
	m["serve.cold_sims"] = float64(st.ColdSims - s.stats0.ColdSims)
	m["serve.warm_grades"] = float64(st.WarmGrades - s.stats0.WarmGrades)
}

func (s *served) pids() []int { return nil }

func (s *served) close() error {
	for _, cl := range s.clients {
		cl.Close()
	}
	err := s.srv.Shutdown(10 * time.Second)
	if serr := <-s.done; err == nil {
		err = serr
	}
	s.serveSp.end()
	return err
}
