package shard

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/plasma"
)

// The grading coordinator. Each host runs a persistent worker session
// (remote.go) on its own artifact cache, the coordinator replicates the
// netlist/CPU/golden artifacts push-on-miss, partitions the pass plan by
// host capacity (weighted LPT), dispatches one shard per host,
// re-dispatches the longest-running outstanding shard to any host that
// goes idle (first bit-identical result wins), and merges with
// fault.MergeShards. A partial merge is never returned: a shard whose
// primary attempts fail twice with no duplicate to cover it fails the
// whole run.

// DefaultTimeout is the per-attempt wall-clock budget when
// DistOptions.Timeout is zero.
const DefaultTimeout = 15 * time.Minute

// HostSpec describes one remote worker host.
type HostSpec struct {
	// Addr is the TCP address of a listening worker host ("host:port",
	// see EnvHostAddr / sbst -shard-serve); empty for exec hosts.
	Addr string
	// Argv, when non-empty, makes this an exec host: the argv is spawned
	// with the session environment marker set and the session runs over
	// its stdin/stdout. EnvCacheDir is set to the coordinator's cache
	// directory, so a local child shares it. An ssh wrapper argv ("ssh h2
	// sbst -shard-session") turns any reachable machine running the same
	// binary into a worker — environment does not cross ssh, hence the
	// explicit flag on the remote end, and the remote worker keeps its own
	// cache.
	Argv []string
	// Weight is the host's relative grading capacity for the partitioner;
	// 0 means 1, or the calibrated value when DistOptions.Calibrate is
	// set. Only ratios matter.
	Weight float64

	// dial, when set (tests), opens the session transport directly —
	// an in-process Host over pipes, or a fault-injecting wrapper.
	dial func() (io.ReadWriteCloser, error)
}

// Name returns the host's display name for stats and errors.
func (s HostSpec) Name() string {
	if s.Addr != "" {
		return s.Addr
	}
	if len(s.Argv) > 0 {
		return strings.Join(s.Argv, " ")
	}
	return "(pipe)"
}

// ParseHosts parses a -hosts flag value: comma-separated host entries,
// each either a TCP address ("host:port") or an exec argv prefixed with
// "exec:" (fields split on whitespace), optionally suffixed with
// "=WEIGHT" giving the host's relative capacity:
//
//	10.0.0.2:7777=2,10.0.0.3:7777,exec:ssh h4 sbst -shard-session=1.5
//
// A suffix after the last '=' that does not parse as a positive float is
// part of the address/argv, not a weight.
func ParseHosts(spec string) ([]HostSpec, error) {
	var out []HostSpec
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		var weight float64
		if i := strings.LastIndex(ent, "="); i >= 0 {
			if w, err := strconv.ParseFloat(ent[i+1:], 64); err == nil && w > 0 {
				weight, ent = w, ent[:i]
			}
		}
		if rest, ok := strings.CutPrefix(ent, "exec:"); ok {
			argv := strings.Fields(rest)
			if len(argv) == 0 {
				return nil, fmt.Errorf("shard: empty exec host in %q", ent)
			}
			out = append(out, HostSpec{Argv: argv, Weight: weight})
			continue
		}
		if !strings.Contains(ent, ":") {
			return nil, fmt.Errorf("shard: host %q has no port (use host:port, or exec:argv)", ent)
		}
		out = append(out, HostSpec{Addr: ent, Weight: weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shard: empty hosts spec")
	}
	return out, nil
}

// LocalHosts returns n exec hosts that each re-execute the running
// binary as a session worker: the host list of `-shards N`. The binary
// must call ServeIfWorker first thing in main (or TestMain).
func LocalHosts(n int) ([]HostSpec, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shard: resolve own binary: %w", err)
	}
	hosts := make([]HostSpec, n)
	for i := range hosts {
		hosts[i] = HostSpec{Argv: []string{exe}}
	}
	return hosts, nil
}

// FlagHosts builds the host list of the -hosts and -shards CLI flags:
// the parsed -hosts spec, or LocalHosts(shards) when shards > 1, or nil
// (grade in-process) when neither is set. Setting both is an error.
func FlagHosts(hosts string, shards int) ([]HostSpec, error) {
	switch {
	case hosts != "" && shards > 1:
		return nil, fmt.Errorf("-shards and -hosts are mutually exclusive (-shards N is N local exec hosts)")
	case hosts != "":
		return ParseHosts(hosts)
	case shards > 1:
		return LocalHosts(shards)
	}
	return nil, nil
}

// FlagWorkers is the per-host fault.Simulate worker count of the -workers
// and -shards CLI flags: an explicit -workers wins, and otherwise the N
// local sessions of -shards N split this machine's GOMAXPROCS between
// them, so together they never fan out past the cores they share. Without
// -shards, 0 stands (each host or the in-process grade uses its own
// GOMAXPROCS).
func FlagWorkers(workers, shards int) int {
	if workers > 0 || shards <= 1 {
		return workers
	}
	return max(1, runtime.GOMAXPROCS(0)/shards)
}

// DistOptions tunes a distributed grading run.
type DistOptions struct {
	// Hosts are the remote workers. A host that cannot be dialed is
	// recorded in the stats and excluded (the run degrades to the live
	// hosts); no reachable host at all is an error.
	Hosts []HostSpec
	// Timeout bounds each dispatch attempt's wall clock, including the
	// artifact pushes (0 = DefaultTimeout).
	Timeout time.Duration
	// Engine, LaneWords and Workers pass through to each host's
	// fault.Simulate, as in fault.Options.
	Engine    fault.Engine
	LaneWords int
	Workers   int
	// Sample and Seed apply fault.SampleFaults before partitioning.
	Sample int
	Seed   int64
	// Cache is the coordinator-side artifact store the replication pushes
	// read from. nil uses a private temporary directory; a persistent
	// cache plus persistent worker caches make re-grades ship zero bytes.
	// Local exec hosts open this directory themselves and ship nothing.
	Cache *cache.Cache
	// Calibrate derives the weight of hosts without an explicit spec
	// weight from a short calibration kernel run on each (weight =
	// cores/elapsed; explicit weights always win).
	Calibrate bool
}

// HostStats is one host's share of a distributed run. Unless noted, the
// fields are coordinator-observed.
type HostStats struct {
	Name   string
	Weight float64 // effective partition weight
	Cores  int     // worker-reported GOMAXPROCS
	// Err records a dial/hello failure; the host graded nothing.
	Err string
	// Shards is the number of primary shards the partitioner assigned;
	// Dispatches counts grade attempts actually sent (retries and
	// straggler duplicates included); Retries counts second attempts
	// after a failure; FailedAttempts counts attempts that failed;
	// Duplicates counts straggler re-dispatches run on this host.
	Shards, Dispatches, Retries, FailedAttempts, Duplicates int
	// ShipBytes/ShipNs measure artifact replication to this host (bytes
	// pushed and wall clock, 0/≈0 on a warm worker cache); QueueNs sums
	// the host's idle gaps between dispatches (scheduler wait); SimNs
	// sums the worker-reported simulation wall clock; WallNs sums whole
	// attempt wall clocks as the coordinator saw them.
	ShipBytes                      int64
	ShipNs, QueueNs, SimNs, WallNs int64
}

// DistStats describes a distributed grading run.
type DistStats struct {
	// Hosts has one entry per configured host, in DistOptions order,
	// including unreachable ones (Err set).
	Hosts []HostStats
	// Shards is the number of non-empty shards; Redispatched counts
	// straggler duplicates dispatched.
	Shards, Redispatched int
	// BytesShipped is the artifact bytes pushed into worker caches (each
	// content hash at most once per worker; 0 when every worker was warm).
	BytesShipped int64
	// ShipNs, PartitionNs and MergeNs break out the coordinator-side
	// overhead; Wall is the whole run.
	ShipNs, PartitionNs, MergeNs int64
	Wall                         time.Duration
}

// String renders the run as a compact per-host breakdown.
func (s *DistStats) String() string {
	var b strings.Builder
	live := 0
	for _, h := range s.Hosts {
		if h.Err == "" {
			live++
		}
	}
	fmt.Fprintf(&b, "hosts             %d live of %d\n", live, len(s.Hosts))
	fmt.Fprintf(&b, "shards            %d (%d straggler re-dispatches)\n", s.Shards, s.Redispatched)
	fmt.Fprintf(&b, "artifacts pushed  %d B in %.1fms\n", s.BytesShipped, float64(s.ShipNs)/1e6)
	fmt.Fprintf(&b, "partition / merge %.1fms / %.1fms\n", float64(s.PartitionNs)/1e6, float64(s.MergeNs)/1e6)
	fmt.Fprintf(&b, "wall clock        %.3fs", s.Wall.Seconds())
	for _, h := range s.Hosts {
		if h.Err != "" {
			fmt.Fprintf(&b, "\n  %-15s DOWN: %s", h.Name, h.Err)
			continue
		}
		fmt.Fprintf(&b, "\n  %-15s w=%.2f %d shards, %d dispatches (%d retries, %d dups, %d failed)",
			h.Name, h.Weight, h.Shards, h.Dispatches, h.Retries, h.Duplicates, h.FailedAttempts)
		fmt.Fprintf(&b, "\n  %-15s ship %d B/%.1fms, queue %.1fms, sim %.3fs, wall %.3fs", "",
			h.ShipBytes, float64(h.ShipNs)/1e6, float64(h.QueueNs)/1e6,
			float64(h.SimNs)/1e9, float64(h.WallNs)/1e9)
	}
	return b.String()
}

// GradeDist fault-simulates a fault list across worker hosts and merges
// the per-shard detections with fault.MergeShards. The merged
// DetectedAt, SignatureGroups and coverage are bit-identical to an
// unsharded fault.Simulate of the same options (asserted by the
// package's equivalence tests): per-fault outcomes do not depend on pass
// packing, and the partition only regroups passes. That is also what
// makes straggler duplicates safe: any host's result for a shard is the
// same bits, so the first one to arrive wins.
//
// Robustness: a failed dispatch attempt (transport error, timeout,
// worker-side error) is retried exactly once on the same host over a
// fresh session, with the artifacts force-re-pushed (healing a corrupt
// worker cache entry); a second failure fails the run unless a straggler
// duplicate of that shard completes elsewhere — a partial merge is never
// returned. Hosts that cannot be dialed at all are excluded up front and
// recorded in the stats.
func GradeDist(cpu *plasma.CPU, golden *plasma.Golden, faults []fault.Fault, opt DistOptions) (*fault.Result, *DistStats, error) {
	if len(opt.Hosts) == 0 {
		return nil, nil, fmt.Errorf("shard: GradeDist needs at least one host")
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	faults = fault.SampleFaults(faults, opt.Sample, opt.Seed)
	start := time.Now()

	c := opt.Cache
	if c == nil {
		dir, err := os.MkdirTemp("", "sbst-dist-")
		if err != nil {
			return nil, nil, fmt.Errorf("shard: %w", err)
		}
		defer os.RemoveAll(dir)
		if c, err = cache.Open(dir); err != nil {
			return nil, nil, err
		}
	}
	cpuKey, _, err := c.PutCPU(cpu)
	if err != nil {
		return nil, nil, err
	}
	goldenKey, _, err := c.PutGolden(golden)
	if err != nil {
		return nil, nil, err
	}
	refs := []ArtifactRef{
		{Kind: cache.KindNetlist, Key: cpuKey},
		{Kind: cache.KindCPU, Key: cpuKey},
		{Kind: cache.KindGolden, Key: goldenKey},
	}
	// Pin the run's artifacts for its whole duration: a straggler or
	// retry may need to push them long after the first dispatch, and a
	// concurrent LRU sweep must not evict them mid-run.
	for _, ref := range refs {
		c.Pin(ref.Kind, ref.Key)
	}
	defer func() {
		for _, ref := range refs {
			c.Unpin(ref.Kind, ref.Key)
		}
	}()

	stats := &DistStats{Hosts: make([]HostStats, len(opt.Hosts))}
	conns := make([]*hostConn, len(opt.Hosts))
	var cwg sync.WaitGroup
	for i := range opt.Hosts {
		stats.Hosts[i].Name = opt.Hosts[i].Name()
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			hc, err := dialHost(opt.Hosts[i], c.Dir(), timeout)
			if err != nil {
				stats.Hosts[i].Err = err.Error()
				return
			}
			conns[i] = hc
			stats.Hosts[i].Cores = hc.cores
		}(i)
	}
	cwg.Wait()
	var live []int // live[slot] = index into opt.Hosts/stats.Hosts
	for i, hc := range conns {
		if hc != nil {
			live = append(live, i)
		}
	}
	defer func() {
		for _, hc := range conns {
			if hc != nil {
				hc.shutdown()
			}
		}
	}()
	if len(live) == 0 {
		firstErr := ""
		for _, h := range stats.Hosts {
			if h.Err != "" {
				firstErr = h.Err
				break
			}
		}
		return nil, stats, fmt.Errorf("shard: no reachable hosts (first failure: %s)", firstErr)
	}

	// Effective weights: explicit spec weight, else calibration (when
	// requested), else 1.
	weights := make([]float64, len(live))
	if opt.Calibrate {
		var wg sync.WaitGroup
		for slot, hi := range live {
			if opt.Hosts[hi].Weight > 0 {
				continue
			}
			wg.Add(1)
			go func(slot, hi int) {
				defer wg.Done()
				hc := conns[hi]
				if err := hc.enc.WriteFrame(&sessionFrame{Kind: frameCalibrate}); err != nil {
					return // weight stays 0 → 1; the grade dispatch will surface the error
				}
				var f sessionFrame
				if err := hc.dec.ReadFrame(&f); err != nil || f.Kind != frameCalibrated || f.Ns <= 0 {
					return
				}
				cores := hc.cores
				if cores < 1 {
					cores = 1
				}
				weights[slot] = float64(cores) * 1e9 / float64(f.Ns)
			}(slot, hi)
		}
		wg.Wait()
	}
	for slot, hi := range live {
		if opt.Hosts[hi].Weight > 0 {
			weights[slot] = opt.Hosts[hi].Weight
		}
		if weights[slot] <= 0 {
			weights[slot] = 1
		}
		stats.Hosts[hi].Weight = weights[slot]
	}

	pStart := time.Now()
	parts, skipped, err := PartitionWeighted(cpu.Netlist, golden, faults, opt.Engine, opt.LaneWords, weights)
	stats.PartitionNs = time.Since(pStart).Nanoseconds()
	if err != nil {
		return nil, stats, err
	}
	var shards []*distShard
	for slot := range live {
		if len(parts[slot]) == 0 {
			continue
		}
		idxs := parts[slot]
		sub := make([]fault.Fault, len(idxs))
		for k, idx := range idxs {
			sub[k] = faults[idx]
		}
		id := len(shards)
		shards = append(shards, &distShard{
			id:   id,
			idxs: idxs,
			host: slot,
			req: &Request{
				Shard:        id,
				CPUKey:       cpuKey,
				GoldenKey:    goldenKey,
				Faults:       sub,
				UniverseHash: fault.UniverseHash(sub),
				Engine:       opt.Engine,
				LaneWords:    opt.LaneWords,
				Workers:      opt.Workers,
			},
			cancels: make(map[int]func()),
		})
		stats.Hosts[live[slot]].Shards++
	}
	stats.Shards = len(shards)

	g := &distGrader{
		run:     &distRun{shards: shards},
		conns:   conns,
		hosts:   opt.Hosts,
		live:    live,
		stats:   stats,
		cache:   c,
		refs:    refs,
		timeout: timeout,
	}
	if len(shards) > 0 {
		dispatchStart := time.Now()
		var wg sync.WaitGroup
		for slot := range live {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				g.hostLoop(slot, dispatchStart)
			}(slot)
		}
		wg.Wait()
	}
	if err := g.run.failure(); err != nil {
		return nil, stats, err
	}

	results := make([]*fault.Result, len(shards))
	for i, s := range shards {
		if s.resp == nil {
			return nil, stats, fmt.Errorf("shard %d of %d: never graded", i, len(shards))
		}
		results[i] = scatter(faults, s.idxs, golden.Cycles, s.resp.DetectedAt, s.resp.SignatureGroups, s.resp.Stats)
	}
	var merged *fault.Result
	if len(results) == 0 {
		// Every fault was provably undetectable (empty pass plan): the
		// merged result is the all-undetected scatter, same as Simulate.
		merged = scatter(faults, nil, golden.Cycles, nil, nil, fault.SimStats{})
	} else {
		mStart := time.Now()
		merged, err = fault.MergeShards(results...)
		stats.MergeNs = time.Since(mStart).Nanoseconds()
		if err != nil {
			return nil, stats, err
		}
	}
	stats.Wall = time.Since(start)
	for _, hi := range live {
		h := &stats.Hosts[hi]
		stats.BytesShipped += h.ShipBytes
		stats.ShipNs += h.ShipNs
		stats.Redispatched += h.Duplicates
	}

	// Per-shard stats sum cleanly except the whole-run quantities each
	// worker reported for itself: golden-trace sizes describe the one
	// shipped trace, and the partition (not the workers) skipped the
	// never-activated faults.
	merged.Stats.GoldenDenseBytes = golden.DenseStateBytes()
	merged.Stats.GoldenStoredBytes = golden.StoredStateBytes()
	merged.Stats.TraceDenseBytes = golden.DenseTraceBytes()
	merged.Stats.TraceStoredBytes = golden.StoredTraceBytes()
	merged.Stats.SkippedFaults += skipped
	merged.Stats.ShardBytesShipped = stats.BytesShipped
	merged.Stats.DistHosts = int64(len(live))
	merged.Stats.DistRedispatched = int64(stats.Redispatched)
	merged.Stats.DistShipNs = stats.ShipNs
	merged.Stats.DistMergeNs = stats.MergeNs
	for _, hi := range live {
		h := &stats.Hosts[hi]
		merged.Stats.ShardsLaunched += int64(h.Dispatches)
		merged.Stats.ShardsRetried += int64(h.Retries)
		merged.Stats.ShardsFailed += int64(h.FailedAttempts)
		merged.Stats.ShardWallNs += h.WallNs
	}
	return merged, stats, nil
}

// distShard is one unit of dispatch: a fault-index subset bound to a
// primary host, with the scheduling state the straggler and failure
// machinery needs.
type distShard struct {
	id   int
	idxs []int
	host int // primary live-host slot
	req  *Request

	// All fields below are guarded by distRun.mu.
	started      bool
	startedAt    time.Time
	done         bool
	resp         *Response
	dup          bool // a straggler duplicate has been dispatched
	primTerminal bool // primary host exhausted its attempts
	dupTerminal  bool
	primErr      error
	cancels      map[int]func() // in-flight attempt cancels, by token
	nextToken    int
}

// distRun is the shared scheduler state of one GradeDist call.
type distRun struct {
	mu     sync.Mutex
	shards []*distShard
	err    error
}

func (d *distRun) failure() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// next hands a host its next unit of work: its own unstarted primary
// shards first, then — once idle — a straggler duplicate of the
// longest-running outstanding shard no one has duplicated yet. Returns
// nil when nothing useful remains for this host.
func (d *distRun) next(slot int) (s *distShard, dup bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, false
	}
	for _, s := range d.shards {
		if s.host == slot && !s.started {
			s.started = true
			s.startedAt = time.Now()
			return s, false
		}
	}
	var pick *distShard
	for _, s := range d.shards {
		if s.started && !s.done && !s.dup && !s.primTerminal && s.host != slot {
			if pick == nil || s.startedAt.Before(pick.startedAt) {
				pick = s
			}
		}
	}
	if pick != nil {
		pick.dup = true
		return pick, true
	}
	return nil, false
}

// markDone records a shard's first successful response and cancels the
// shard's other in-flight attempts (their hosts move on to new work).
// Returns false when the shard was already completed by a racing
// duplicate — the results are bit-identical, so the loser is dropped.
func (d *distRun) markDone(s *distShard, resp *Response) bool {
	d.mu.Lock()
	if s.done || d.err != nil {
		d.mu.Unlock()
		return false
	}
	s.done = true
	s.resp = resp
	cancels := make([]func(), 0, len(s.cancels))
	for _, cancel := range s.cancels {
		cancels = append(cancels, cancel)
	}
	d.mu.Unlock()
	for _, cancel := range cancels {
		go cancel()
	}
	return true
}

// reportTerminal records that one side (primary after both attempts, or
// a duplicate after its single attempt) has given up on a shard. The
// shard — and with it the run — is lost when the primary is terminal and
// no duplicate is left to cover it; a partial merge is never an option.
func (d *distRun) reportTerminal(s *distShard, dup bool, err error) {
	d.mu.Lock()
	if s.done {
		d.mu.Unlock()
		return
	}
	if dup {
		s.dupTerminal = true
	} else {
		s.primTerminal = true
		s.primErr = err
	}
	lost := s.primTerminal && (!s.dup || s.dupTerminal)
	var cancels []func()
	if lost && d.err == nil {
		reason := s.primErr
		if reason == nil {
			reason = err
		}
		d.err = fmt.Errorf("shard %d of %d: %w", s.id, len(d.shards), reason)
		// Abort everything in flight: the run cannot succeed anymore.
		for _, o := range d.shards {
			for _, cancel := range o.cancels {
				cancels = append(cancels, cancel)
			}
		}
	}
	d.mu.Unlock()
	for _, cancel := range cancels {
		go cancel()
	}
}

// finished reports whether dispatching this shard has become pointless.
func (d *distRun) finished(s *distShard) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return s.done || d.err != nil
}

func (d *distRun) registerCancel(s *distShard, cancel func()) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	tok := s.nextToken
	s.nextToken++
	s.cancels[tok] = cancel
	return tok
}

func (d *distRun) unregisterCancel(s *distShard, tok int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(s.cancels, tok)
}

// distGrader bundles the per-run constants of the dispatch machinery.
type distGrader struct {
	run     *distRun
	conns   []*hostConn // by opt.Hosts index; mutated only by the owning host loop
	hosts   []HostSpec
	live    []int
	stats   *DistStats
	cache   *cache.Cache
	refs    []ArtifactRef
	timeout time.Duration
}

// hostLoop drives one live host: primary shards, then straggler duty,
// until no work remains or the run has failed. Each host's loop is the
// only goroutine touching its connection and its HostStats entry.
func (g *distGrader) hostLoop(slot int, dispatchStart time.Time) {
	hs := &g.stats.Hosts[g.live[slot]]
	lastBusy := dispatchStart
	for {
		s, dup := g.run.next(slot)
		if s == nil {
			return
		}
		hs.QueueNs += time.Since(lastBusy).Nanoseconds()
		if dup {
			hs.Duplicates++
		}
		g.runShard(slot, s, dup)
		lastBusy = time.Now()
	}
}

// runShard runs one shard on one host: a dispatch attempt, then — for
// primary dispatches — one retry over a fresh session with the
// artifacts force-pushed. Duplicates get a single attempt; their
// failures only matter if the primary is already terminal.
func (g *distGrader) runShard(slot int, s *distShard, dup bool) {
	hs := &g.stats.Hosts[g.live[slot]]
	attempts := 2
	if dup {
		attempts = 1
	}
	var firstErr error
	for a := 0; a < attempts; a++ {
		if g.run.finished(s) {
			return
		}
		hs.Dispatches++
		resp, err := g.attempt(slot, s, a > 0)
		if err == nil {
			hs.SimNs += resp.WallNs
			g.run.markDone(s, resp)
			return
		}
		// The session is mid-protocol in an unknown state (or already
		// torn down by a cancel): drop it; the next attempt re-dials.
		g.dropConn(slot)
		if g.run.finished(s) {
			return // cancelled because a duplicate won, or the run failed
		}
		hs.FailedAttempts++
		if a+1 < attempts {
			firstErr = err
			hs.Retries++
			continue
		}
		if dup {
			g.run.reportTerminal(s, true, err)
		} else {
			g.run.reportTerminal(s, false, fmt.Errorf("worker failed twice: attempt 1: %v; attempt 2 (retry): %v", firstErr, err))
		}
		return
	}
}

// conn returns the host's live session, dialing a fresh one if the
// previous attempt tore it down.
func (g *distGrader) conn(slot int) (*hostConn, error) {
	if g.conns[g.live[slot]] == nil {
		hc, err := dialHost(g.hosts[g.live[slot]], g.cache.Dir(), g.timeout)
		if err != nil {
			return nil, err
		}
		g.conns[g.live[slot]] = hc
	}
	return g.conns[g.live[slot]], nil
}

func (g *distGrader) dropConn(slot int) {
	if hc := g.conns[g.live[slot]]; hc != nil {
		hc.close()
		g.conns[g.live[slot]] = nil
	}
}

// attempt drives one dispatch through the session protocol under the
// attempt deadline: replicate missing artifacts (all of them when force
// is set — the retry path, healing corrupt worker entries), then grade.
func (g *distGrader) attempt(slot int, s *distShard, force bool) (*Response, error) {
	hs := &g.stats.Hosts[g.live[slot]]
	hc, err := g.conn(slot)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tok := g.run.registerCancel(s, hc.close)
	defer g.run.unregisterCancel(s, tok)
	var timedOut atomic.Bool
	timer := time.AfterFunc(g.timeout, func() {
		timedOut.Store(true)
		hc.close()
	})
	defer timer.Stop()
	fail := func(err error) (*Response, error) {
		if timedOut.Load() {
			return nil, fmt.Errorf("timed out after %v: %w", g.timeout, err)
		}
		return nil, err
	}

	shipStart := time.Now()
	want := g.refs
	if !force {
		if err := hc.enc.WriteFrame(&sessionFrame{Kind: frameHave, Refs: g.refs}); err != nil {
			return fail(err)
		}
		var wf sessionFrame
		if err := hc.dec.ReadFrame(&wf); err != nil {
			return fail(err)
		}
		if wf.Kind != frameWant {
			return fail(fmt.Errorf("shard: want frame has kind %d", wf.Kind))
		}
		want = wf.Refs
	}
	for _, ref := range want {
		data, err := g.cache.ReadArtifact(ref.Kind, ref.Key)
		if err != nil {
			return fail(err)
		}
		if err := hc.enc.WriteFrame(&sessionFrame{Kind: framePut, Ref: ref, Data: data}); err != nil {
			return fail(err)
		}
		var ack sessionFrame
		if err := hc.dec.ReadFrame(&ack); err != nil {
			return fail(err)
		}
		if ack.Kind != framePutOK {
			return fail(fmt.Errorf("shard: put ack has kind %d", ack.Kind))
		}
		if ack.Err != "" {
			return fail(fmt.Errorf("shard: host rejected %s %s: %s", ref.Kind, ref.Key, ack.Err))
		}
		hs.ShipBytes += int64(len(data))
	}
	hs.ShipNs += time.Since(shipStart).Nanoseconds()

	if err := hc.enc.WriteFrame(&sessionFrame{Kind: frameGrade, Req: s.req}); err != nil {
		return fail(err)
	}
	var rf sessionFrame
	if err := hc.dec.ReadFrame(&rf); err != nil {
		return fail(err)
	}
	if rf.Kind != frameResult || rf.Resp == nil {
		return fail(fmt.Errorf("shard: result frame has kind %d", rf.Kind))
	}
	if rf.Resp.Err != "" {
		return nil, fmt.Errorf("worker error: %s", rf.Resp.Err)
	}
	if err := checkResponse(s.req, rf.Resp); err != nil {
		return nil, err
	}
	hs.WallNs += time.Since(start).Nanoseconds()
	return rf.Resp, nil
}

// checkResponse validates a worker's response against its request.
func checkResponse(req *Request, resp *Response) error {
	if resp.Shard != req.Shard {
		return fmt.Errorf("response for shard %d, want %d", resp.Shard, req.Shard)
	}
	if resp.UniverseHash != req.UniverseHash {
		return fmt.Errorf("response universe %s, want %s", resp.UniverseHash, req.UniverseHash)
	}
	if len(resp.DetectedAt) != len(req.Faults) || len(resp.SignatureGroups) != len(req.Faults) {
		return fmt.Errorf("response carries %d detections and %d signatures for %d faults",
			len(resp.DetectedAt), len(resp.SignatureGroups), len(req.Faults))
	}
	return nil
}

// hostConn is the coordinator's side of one worker session.
type hostConn struct {
	enc   *Encoder
	dec   *Decoder
	cores int
	// close hard-stops the transport (idempotent; pending reads fail) —
	// the cancel/timeout path. shutdown is the clean end-of-run path.
	close    func()
	shutdown func()
}

// dialHost opens a session to a host over its transport and consumes the
// hello frame, under the attempt timeout so a wedged host cannot stall
// the dial phase. Exec hosts are pointed at cacheDir, the coordinator's
// cache.
func dialHost(spec HostSpec, cacheDir string, timeout time.Duration) (*hostConn, error) {
	var rw io.ReadWriter
	var closeFn, shutdownFn func()
	switch {
	case spec.dial != nil:
		rwc, err := spec.dial()
		if err != nil {
			return nil, fmt.Errorf("shard: host %s: %w", spec.Name(), err)
		}
		var once sync.Once
		closeFn = func() { once.Do(func() { rwc.Close() }) }
		shutdownFn = closeFn
		rw = rwc
	case len(spec.Argv) > 0:
		w, err := startExecEnv([]string{EnvSession + "=1", EnvCacheDir + "=" + cacheDir}, spec.Argv[0], spec.Argv[1:]...)
		if err != nil {
			return nil, fmt.Errorf("shard: host %s: %w", spec.Name(), err)
		}
		closeFn = func() { w.Kill(); _ = w.Wait() }
		shutdownFn = func() {
			// Close the request stream so the worker exits cleanly (and
			// removes its temp cache); escalate to Kill if it lingers.
			_ = w.CloseWrite()
			t := time.AfterFunc(5*time.Second, w.Kill)
			_ = w.Wait()
			t.Stop()
		}
		rw = w
	default:
		conn, err := net.Dial("tcp", spec.Addr)
		if err != nil {
			return nil, fmt.Errorf("shard: host %s: %w", spec.Name(), err)
		}
		var once sync.Once
		closeFn = func() { once.Do(func() { conn.Close() }) }
		shutdownFn = closeFn
		rw = conn
	}
	hc := &hostConn{enc: NewEncoder(rw), dec: NewDecoder(rw), close: closeFn, shutdown: shutdownFn}
	timer := time.AfterFunc(timeout, closeFn)
	defer timer.Stop()
	var hello sessionFrame
	if err := hc.dec.ReadFrame(&hello); err != nil {
		closeFn()
		return nil, fmt.Errorf("shard: host %s hello: %w", spec.Name(), err)
	}
	if hello.Kind != frameHello || hello.Proto != sessionProto {
		closeFn()
		return nil, fmt.Errorf("shard: host %s speaks session protocol %d, want %d", spec.Name(), hello.Proto, sessionProto)
	}
	hc.cores = hello.Cores
	return hc, nil
}

// scatter expands a shard's subset-aligned outcomes to a full-fault-list
// Result (ungraded lanes stay undetected) for fault.MergeShards.
func scatter(faults []fault.Fault, idxs []int, cycles int, detectedAt []int32, sigGroups []uint8, stats fault.SimStats) *fault.Result {
	r := &fault.Result{
		Faults:          faults,
		DetectedAt:      make([]int32, len(faults)),
		SignatureGroups: make([]uint8, len(faults)),
		Cycles:          cycles,
		Stats:           stats,
	}
	for i := range r.DetectedAt {
		r.DetectedAt[i] = -1
	}
	for k, idx := range idxs {
		r.DetectedAt[idx] = detectedAt[k]
		r.SignatureGroups[idx] = sigGroups[k]
	}
	return r
}
