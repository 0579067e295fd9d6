package shard

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
	"repro/internal/synth"
)

// TestMain makes this test binary a valid exec host: when the coordinator
// re-executes it with the session marker set (LocalHosts, exec HostSpecs),
// ServeIfWorker serves the session and exits before any test runs.
func TestMain(m *testing.M) {
	ServeIfWorker()
	os.Exit(m.Run())
}

var testCPU *plasma.CPU

func getCPU(t *testing.T) *plasma.CPU {
	t.Helper()
	if testCPU == nil {
		c, err := plasma.Build(synth.NativeLib{})
		if err != nil {
			t.Fatal(err)
		}
		testCPU = c
	}
	return testCPU
}

const testProgram = `
	li $t0, 0x1000
	li $t1, 0xa5a5
	sw $t1, 0($t0)
	lw $t2, 0($t0)
	addu $t3, $t2, $t1
	sw $t3, 4($t0)
	xor $t4, $t2, $t1
	sw $t4, 8($t0)
`

func captureTestGolden(t *testing.T, cycles int) *plasma.Golden {
	t.Helper()
	prog, err := asm.Assemble(testProgram+"\nh__: j h__\nnop\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plasma.CaptureGolden(getCPU(t), prog, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSample(t *testing.T) int {
	if testing.Short() {
		return 256
	}
	return 2048
}

// requireSameResult asserts two results carry bit-identical outcomes.
func requireSameResult(t *testing.T, got, want *fault.Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Fatalf("cycles = %d, want %d", got.Cycles, want.Cycles)
	}
	if len(got.Faults) != len(want.Faults) {
		t.Fatalf("fault count = %d, want %d", len(got.Faults), len(want.Faults))
	}
	for i := range want.Faults {
		if got.Faults[i].Site != want.Faults[i].Site {
			t.Fatalf("fault %d is %v, want %v", i, got.Faults[i].Site, want.Faults[i].Site)
		}
		if got.DetectedAt[i] != want.DetectedAt[i] {
			t.Fatalf("fault %d detected at %d, want %d", i, got.DetectedAt[i], want.DetectedAt[i])
		}
		if got.SignatureGroups[i] != want.SignatureGroups[i] {
			t.Fatalf("fault %d signature group %d, want %d", i, got.SignatureGroups[i], want.SignatureGroups[i])
		}
	}
	if got.Coverage() != want.Coverage() {
		t.Fatalf("coverage %v, want %v", got.Coverage(), want.Coverage())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	req := &Request{
		Shard:        3,
		CPUKey:       "cpu-abc",
		GoldenKey:    "golden-def",
		Faults:       []fault.Fault{{Site: gate.FaultSite{Gate: 7, Pin: 1, Stuck: true}, Comp: 2, Equiv: 4}},
		UniverseHash: "deadbeef",
		Engine:       fault.EngineOblivious,
		LaneWords:    8,
		Workers:      2,
	}
	// Two frames of one stream: the first carries the gob type
	// descriptors, so the second is smaller and decodes into a buffer the
	// first already grew.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < 2; i++ {
		if err := enc.WriteFrame(req); err != nil {
			t.Fatal(err)
		}
	}
	stream := append([]byte(nil), buf.Bytes()...)
	dec := NewDecoder(&buf)
	for i := 0; i < 2; i++ {
		var got Request
		if err := dec.ReadFrame(&got); err != nil {
			t.Fatal(err)
		}
		if got.Shard != req.Shard || got.UniverseHash != req.UniverseHash ||
			len(got.Faults) != 1 || got.Faults[0] != req.Faults[0] ||
			got.Engine != req.Engine || got.LaneWords != req.LaneWords || got.Workers != req.Workers {
			t.Fatalf("frame %d: round trip mangled the request: %+v vs %+v", i, got, req)
		}
	}

	// A stream that ends mid-header, mid-payload of a frame that grows the
	// buffer, or mid-payload of a frame that fits the grown buffer is an
	// explicit truncation error, not a bare EOF or decode garbage.
	for _, cut := range []int{4, len(stream) / 2, len(stream) - 3} {
		d := NewDecoder(bytes.NewReader(stream[:cut]))
		var err error
		for err == nil {
			var r Request
			err = d.ReadFrame(&r)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("cut at %d: err = %v, want truncation", cut, err)
		}
	}

	// A flipped payload bit fails the CRC before gob ever sees it.
	first := stream[:8+binary.LittleEndian.Uint32(stream[:4])]
	corrupt := append([]byte(nil), first...)
	corrupt[len(corrupt)-1] ^= 0x40
	var r Request
	if err := NewDecoder(bytes.NewReader(corrupt)).ReadFrame(&r); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupted payload: err = %v, want CRC mismatch", err)
	}

	// An absurd declared length is rejected without allocating it.
	huge := append([]byte(nil), first...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if err := NewDecoder(bytes.NewReader(huge)).ReadFrame(&r); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized frame: err = %v, want limit error", err)
	}
}

// TestDecoderBoundsLyingHeader sends a header that declares a 1 GiB
// payload (inside the frame limit) and then ends the stream. The read
// must fail as a truncation, and the decoder must not have allocated the
// declared length up front: sbstd and every TCP worker host accept these
// headers from the network.
func TestDecoderBoundsLyingHeader(t *testing.T) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var f sessionFrame
	err := NewDecoder(bytes.NewReader(hdr[:])).ReadFrame(&f)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("a lying 1 GiB header cost %d MiB of allocation, want < 8 MiB", got>>20)
	}
}

func TestPartitionDeterministicAndComplete(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	faults := fault.SampleFaults(fault.Universe(cpu.Netlist), testSample(t), 1)

	for _, shards := range []int{1, 2, 3, 7} {
		weights := make([]float64, shards)
		first, skipped, err := PartitionWeighted(cpu.Netlist, g, faults, fault.EngineEvent, 0, weights)
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != shards {
			t.Fatalf("%d shards requested, %d groups returned", shards, len(first))
		}
		seen := make(map[int]int)
		total := 0
		for _, grp := range first {
			for _, idx := range grp {
				if idx < 0 || idx >= len(faults) {
					t.Fatalf("index %d out of range", idx)
				}
				seen[idx]++
				total++
			}
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("fault %d assigned to %d shards", idx, n)
			}
		}
		if int64(total)+skipped != int64(len(faults)) {
			t.Fatalf("%d assigned + %d skipped != %d faults", total, skipped, len(faults))
		}
		// The partition is a pure function of its inputs.
		second, _, err := PartitionWeighted(cpu.Netlist, g, faults, fault.EngineEvent, 0, weights)
		if err != nil {
			t.Fatal(err)
		}
		for s := range first {
			if len(first[s]) != len(second[s]) {
				t.Fatalf("shard %d changed size between runs", s)
			}
			for k := range first[s] {
				if first[s][k] != second[s][k] {
					t.Fatalf("shard %d index %d changed between runs", s, k)
				}
			}
		}
	}
}

// TestGradeEquivalentToSimulate is the core acceptance property: a sharded
// run is bit-identical to the unsharded fault.Simulate of the same options,
// for several shard counts. The hosts are in-process sessions, so the
// coordinator's concurrency runs under the race detector.
func TestGradeEquivalentToSimulate(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 80)
	all := fault.Universe(cpu.Netlist)
	opt := fault.Options{Sample: testSample(t), Seed: 7}
	want, err := fault.Simulate(cpu, g, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 4, 5} {
		hosts := make([]HostSpec, shards)
		for i := range hosts {
			hosts[i] = pipeHost(t, newTestHost(t))
		}
		got, stats, err := GradeDist(cpu, g, all, DistOptions{Hosts: hosts, Sample: opt.Sample, Seed: opt.Seed})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		requireSameResult(t, got, want)
		if stats.Shards < 1 || stats.Shards > shards {
			t.Fatalf("%d shards requested, stats says %d graded", shards, stats.Shards)
		}
		if got.Stats.ShardsLaunched < int64(stats.Shards) {
			t.Fatalf("dispatched %d attempts for %d shards", got.Stats.ShardsLaunched, stats.Shards)
		}
		if got.Stats.ShardsFailed != 0 || got.Stats.ShardsRetried != 0 {
			t.Fatalf("healthy run reported failures: %+v", got.Stats)
		}
	}
}

// TestGradeSubprocess exercises the real process boundary of -shards N:
// LocalHosts re-executes this test binary (see TestMain) as session
// workers, which share the coordinator's private temporary cache.
func TestGradeSubprocess(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	opt := fault.Options{Sample: 256, Seed: 3}
	want, err := fault.Simulate(cpu, g, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := LocalHosts(2)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{Hosts: hosts, Sample: opt.Sample, Seed: opt.Seed})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if got.Stats.DistHosts != 2 {
		t.Fatalf("DistHosts = %d, want 2 live local sessions", got.Stats.DistHosts)
	}
	if stats.BytesShipped != 0 {
		t.Fatalf("local sessions share the coordinator cache, yet %d bytes were pushed", stats.BytesShipped)
	}
}

// TestGradeShipsArtifactsOnce pins "re-grades ship nothing" for -shards:
// local sessions open the coordinator's persistent cache, so neither the
// first grade nor the re-grade pushes a byte, and the artifacts persist
// in that cache for the next run.
func TestGradeShipsArtifactsOnce(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	disk, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := LocalHosts(2)
	if err != nil {
		t.Fatal(err)
	}
	opt := DistOptions{Hosts: hosts, Sample: 128, Seed: 1, Cache: disk}
	for run := 0; run < 2; run++ {
		_, stats, err := GradeDist(cpu, g, all, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.BytesShipped != 0 {
			t.Fatalf("run %d pushed %d bytes to sessions sharing the cache", run, stats.BytesShipped)
		}
	}
	key, err := cache.NetlistHash(cpu.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if !disk.HasArtifact(cache.KindCPU, key) {
		t.Fatal("the CPU artifact did not persist in the coordinator cache")
	}
}

func TestFlagHosts(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		hosts  string
		shards int
		want   []string // host names; nil = in-process
		err    string
	}{
		{"", 0, nil, ""},
		{"", 1, nil, ""},
		{"", 3, []string{exe, exe, exe}, ""},
		{"h1:7777,exec:w -shard-session", 1, []string{"h1:7777", "w -shard-session"}, ""},
		{"h1:7777", 2, nil, "mutually exclusive"},
		{"noport", 1, nil, "no port"},
	} {
		hosts, err := FlagHosts(tc.hosts, tc.shards)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("FlagHosts(%q, %d) err = %v, want %q", tc.hosts, tc.shards, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("FlagHosts(%q, %d): %v", tc.hosts, tc.shards, err)
			continue
		}
		var names []string
		for _, h := range hosts {
			names = append(names, h.Name())
		}
		if strings.Join(names, "|") != strings.Join(tc.want, "|") || (hosts == nil) != (tc.want == nil) {
			t.Errorf("FlagHosts(%q, %d) = %q, want %q", tc.hosts, tc.shards, names, tc.want)
		}
	}
}

func TestFlagWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, shards, want int }{
		{0, 1, 0},
		{3, 1, 3},
		{3, 4, 3},
		{0, 2, max(1, procs/2)},
		{0, 4 * procs, 1},
	} {
		if got := FlagWorkers(tc.workers, tc.shards); got != tc.want {
			t.Errorf("FlagWorkers(%d, %d) = %d, want %d (GOMAXPROCS %d)", tc.workers, tc.shards, got, tc.want, procs)
		}
	}
}

// fakeSession speaks the session protocol on conn as a host whose cache
// already holds every artifact, handing each grade request to onGrade,
// which may answer, write garbage, close conn, or do nothing (a hang).
func fakeSession(conn net.Conn, onGrade func(enc *Encoder, req *Request)) {
	defer conn.Close()
	enc, dec := NewEncoder(conn), NewDecoder(conn)
	_ = enc.WriteFrame(&sessionFrame{Kind: frameHello, Proto: sessionProto, Cores: 1})
	for {
		var f sessionFrame
		if dec.ReadFrame(&f) != nil {
			return
		}
		switch f.Kind {
		case frameHave:
			_ = enc.WriteFrame(&sessionFrame{Kind: frameWant})
		case framePut:
			_ = enc.WriteFrame(&sessionFrame{Kind: framePutOK})
		case frameGrade:
			onGrade(enc, f.Req)
		}
	}
}

// fakeHost is a host whose every session is a fakeSession.
func fakeHost(onGrade func(conn net.Conn, enc *Encoder, req *Request)) HostSpec {
	return HostSpec{dial: func() (io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		go fakeSession(b, func(enc *Encoder, req *Request) { onGrade(b, enc, req) })
		return a, nil
	}}
}

// flakyHost serves its first session with bad and every later one with
// the real host h, like a worker that misbehaves once and is then
// restarted.
func flakyHost(h *Host, bad func(conn net.Conn)) HostSpec {
	dials := 0
	return HostSpec{dial: func() (io.ReadWriteCloser, error) {
		dials++
		a, b := net.Pipe()
		if dials == 1 {
			go bad(b)
		} else {
			go func() {
				defer b.Close()
				_ = h.ServeSession(b, b)
			}()
		}
		return a, nil
	}}
}

// gradeRecovers grades through one host whose first session fails and
// asserts the coordinator retried exactly once over a fresh session and
// converged to the unsharded result.
func gradeRecovers(t *testing.T, host HostSpec, timeout time.Duration) {
	t.Helper()
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	opt := fault.Options{Sample: 128, Seed: 5}
	want, err := fault.Simulate(cpu, g, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:   []HostSpec{host},
		Sample:  opt.Sample,
		Seed:    opt.Seed,
		Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if h := stats.Hosts[0]; h.FailedAttempts != 1 || h.Retries != 1 || h.Dispatches != 2 {
		t.Fatalf("want one failed attempt and one retry, got %+v", h)
	}
	if got.Stats.ShardsRetried != 1 || got.Stats.ShardsFailed != 1 {
		t.Fatalf("SimStats shard counters: %+v", got.Stats)
	}
}

// TestWorkerHangsPastTimeout: the first session accepts its shard and
// never answers; the attempt budget tears it down and the retry
// converges.
func TestWorkerHangsPastTimeout(t *testing.T) {
	hang := func(conn net.Conn) { fakeSession(conn, func(*Encoder, *Request) {}) }
	gradeRecovers(t, flakyHost(newTestHost(t), hang), 2*time.Second)
}

// TestWorkerEmitsTruncatedFrame: the first session answers its grade with
// a frame that ends mid-payload and hangs up.
func TestWorkerEmitsTruncatedFrame(t *testing.T) {
	truncated := func(conn net.Conn) {
		fakeSession(conn, func(*Encoder, *Request) {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:4], 100)
			_, _ = conn.Write(append(hdr[:], make([]byte, 97)...))
			conn.Close()
		})
	}
	gradeRecovers(t, flakyHost(newTestHost(t), truncated), 0)
}

// TestWorkerFailsTwice asserts the never-silently-partial guarantee: when
// a shard's attempt and its one retry both time out, GradeDist returns an
// error naming both attempts and no result at all.
func TestWorkerFailsTwice(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	hang := fakeHost(func(net.Conn, *Encoder, *Request) {})
	res, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:   []HostSpec{hang, hang},
		Sample:  128,
		Seed:    5,
		Timeout: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("want an error, got success")
	}
	if res != nil {
		t.Fatal("failed run returned a (partial) result")
	}
	if !strings.Contains(err.Error(), "worker failed twice") {
		t.Fatalf("err = %v, want both attempts reported", err)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want the timeout surfaced", err)
	}
	retries := 0
	for _, h := range stats.Hosts {
		retries += h.Retries
	}
	if retries == 0 {
		t.Fatalf("stats don't show the retry: %+v", stats.Hosts)
	}
}

// TestSpawnFailureExcludesHost: an exec host whose argv cannot be
// launched is excluded and recorded, the run completes bit-identically on
// the live hosts, and as the only host it is a clean error.
func TestSpawnFailureExcludesHost(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	opt := fault.Options{Sample: 128, Seed: 5}
	want, err := fault.Simulate(cpu, g, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	broken := HostSpec{Argv: []string{"/nonexistent/sbst-worker"}}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:  []HostSpec{broken, pipeHost(t, newTestHost(t))},
		Sample: opt.Sample,
		Seed:   opt.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if stats.Hosts[0].Err == "" || got.Stats.DistHosts != 1 {
		t.Fatalf("unlaunchable host not excluded: %+v, DistHosts %d", stats.Hosts[0], got.Stats.DistHosts)
	}
	_, _, err = GradeDist(cpu, g, all, DistOptions{Hosts: []HostSpec{broken}, Sample: opt.Sample, Seed: opt.Seed})
	if err == nil || !strings.Contains(err.Error(), "no reachable hosts") {
		t.Fatalf("only host unlaunchable: err = %v, want no reachable hosts", err)
	}
}
