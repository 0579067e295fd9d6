package shard

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
)

// pipeHost wires a HostSpec to an in-process Host over net.Pipe: every
// dial opens a fresh session against the same Host (same worker cache,
// same artifact memos), exactly like reconnecting to a TCP daemon — but
// race-detectable and with no sockets.
func pipeHost(t *testing.T, h *Host) HostSpec {
	t.Helper()
	return HostSpec{dial: func() (io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		go func() {
			defer b.Close()
			_ = h.ServeSession(b, b)
		}()
		return a, nil
	}}
}

func newTestHost(t *testing.T) *Host {
	t.Helper()
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewHost(c)
}

func TestParseHosts(t *testing.T) {
	hosts, err := ParseHosts("10.0.0.2:7777=2, 10.0.0.3:7777 ,exec:ssh h4 sbst -shard-session=1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 3 {
		t.Fatalf("parsed %d hosts, want 3", len(hosts))
	}
	if hosts[0].Addr != "10.0.0.2:7777" || hosts[0].Weight != 2 {
		t.Fatalf("host 0 = %+v", hosts[0])
	}
	if hosts[1].Addr != "10.0.0.3:7777" || hosts[1].Weight != 0 {
		t.Fatalf("host 1 = %+v", hosts[1])
	}
	if len(hosts[2].Argv) != 4 || hosts[2].Argv[0] != "ssh" || hosts[2].Weight != 1.5 {
		t.Fatalf("host 2 = %+v", hosts[2])
	}
	// A non-numeric suffix after '=' belongs to the entry, not a weight.
	hosts, err = ParseHosts("exec:worker -flag=value")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts[0].Argv) != 2 || hosts[0].Argv[1] != "-flag=value" || hosts[0].Weight != 0 {
		t.Fatalf("host = %+v", hosts[0])
	}
	for _, bad := range []string{"", " , ", "noport", "exec:", "host:1=0.5,noport"} {
		if _, err := ParseHosts(bad); err == nil {
			t.Fatalf("ParseHosts(%q) accepted", bad)
		}
	}
}

// TestPartitionWeightedEqualIsUniform pins the uniform split: unset
// (zero) weights and equal weights of any magnitude give the same
// partition bit for bit, since only ratios matter.
func TestPartitionWeightedEqualIsUniform(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	faults := fault.SampleFaults(fault.Universe(cpu.Netlist), 512, 11)
	for _, shards := range []int{1, 2, 3, 5} {
		uniform, uskip, err := PartitionWeighted(cpu.Netlist, g, faults, 0, 0, make([]float64, shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []float64{1, 2.5} {
			equal := make([]float64, shards)
			for i := range equal {
				equal[i] = w
			}
			weighted, wskip, err := PartitionWeighted(cpu.Netlist, g, faults, 0, 0, equal)
			if err != nil {
				t.Fatal(err)
			}
			if uskip != wskip {
				t.Fatalf("%d shards at weight %v: skipped %d vs %d", shards, w, uskip, wskip)
			}
			if fmt.Sprint(uniform) != fmt.Sprint(weighted) {
				t.Fatalf("%d shards: weight-%v partition diverges from uniform", shards, w)
			}
		}
	}
}

// TestPartitionWeightedSkew checks that capacity weights actually move
// load: a 4:1 host pair must leave the heavy shard with more estimated
// cost than the uniform split gave it, and the result stays a partition
// of the same fault indices.
func TestPartitionWeightedSkew(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	faults := fault.SampleFaults(fault.Universe(cpu.Netlist), 1024, 3)
	uniform, _, err := PartitionWeighted(cpu.Netlist, g, faults, 0, 0, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	skewed, _, err := PartitionWeighted(cpu.Netlist, g, faults, 0, 0, []float64{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(skewed[0]) <= len(uniform[0]) {
		t.Fatalf("4:1 weights left the heavy shard with %d faults, uniform gave %d",
			len(skewed[0]), len(uniform[0]))
	}
	seen := make(map[int]bool)
	for _, part := range skewed {
		for _, idx := range part {
			if seen[idx] {
				t.Fatalf("fault index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	total := 0
	for _, part := range uniform {
		total += len(part)
	}
	if len(seen) != total {
		t.Fatalf("skewed partition covers %d faults, uniform covers %d", len(seen), total)
	}
}

// TestGradeDistEquivalentToSimulate is the distributed acceptance
// property: a multi-host run over in-process session workers is
// bit-identical to the unsharded fault.Simulate, across host counts and
// capacity skews.
func TestGradeDistEquivalentToSimulate(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 80)
	all := fault.Universe(cpu.Netlist)
	opt := fault.Options{Sample: testSample(t), Seed: 7}
	want, err := fault.Simulate(cpu, g, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, weights := range [][]float64{{0, 0}, {3, 1}, {0, 0, 0}} {
		hosts := make([]HostSpec, len(weights))
		for i, w := range weights {
			hosts[i] = pipeHost(t, newTestHost(t))
			hosts[i].Weight = w
		}
		got, stats, err := GradeDist(cpu, g, all, DistOptions{
			Hosts:  hosts,
			Sample: opt.Sample,
			Seed:   opt.Seed,
		})
		if err != nil {
			t.Fatalf("weights %v: %v", weights, err)
		}
		requireSameResult(t, got, want)
		if stats.Shards < 1 {
			t.Fatalf("weights %v: no shards graded", weights)
		}
		if stats.BytesShipped <= 0 {
			t.Fatalf("weights %v: shipped %d bytes into fresh worker caches", weights, stats.BytesShipped)
		}
		if got.Stats.DistHosts != int64(len(weights)) {
			t.Fatalf("weights %v: DistHosts = %d", weights, got.Stats.DistHosts)
		}
		for i, h := range stats.Hosts {
			if h.Err != "" {
				t.Fatalf("weights %v: host %d down: %s", weights, i, h.Err)
			}
			if h.FailedAttempts != 0 || h.Retries != 0 {
				t.Fatalf("weights %v: healthy run reported failures: %+v", weights, h)
			}
		}
	}
}

// TestGradeDistCalibrate exercises the calibration path end to end: the
// kernel runs on each host without an explicit weight and the derived
// weights reach the stats (on identical in-process hosts they are just
// "some positive number", which is all a unit test can pin).
func TestGradeDistCalibrate(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:     []HostSpec{pipeHost(t, newTestHost(t)), pipeHost(t, newTestHost(t))},
		Sample:    256,
		Seed:      3,
		Calibrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	for i, h := range stats.Hosts {
		if h.Weight <= 0 {
			t.Fatalf("host %d calibrated to weight %v", i, h.Weight)
		}
		if h.Cores < 1 {
			t.Fatalf("host %d reported %d cores", i, h.Cores)
		}
	}
}

// TestGradeDistTCP exercises the real TCP transport: two in-process
// hosts behind real listeners, each with a persistent cache, and a
// persistent coordinator cache. The first run ships every artifact to
// every worker exactly once; the re-grade ships zero bytes.
func TestGradeDistTCP(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	var hosts []HostSpec
	for i := 0; i < 2; i++ {
		h := newTestHost(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go h.Serve(ln)
		hosts = append(hosts, HostSpec{Addr: ln.Addr().String()})
	}
	coord, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := DistOptions{Hosts: hosts, Sample: 256, Seed: 3, Cache: coord}
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	for i, h := range stats.Hosts {
		if h.Shards > 0 && h.ShipBytes <= 0 {
			t.Fatalf("host %d graded %d shards but shipped %d bytes", i, h.Shards, h.ShipBytes)
		}
	}
	// Same artifacts, same (still-running) workers: nothing to ship.
	got, stats, err = GradeDist(cpu, g, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if stats.BytesShipped != 0 {
		t.Fatalf("re-grade shipped %d bytes into warm worker caches", stats.BytesShipped)
	}
}

// TestGradeDistExecSession exercises the exec transport — the local
// stand-in for an ssh wrapper: the coordinator spawns this test binary
// with the session marker set (TestMain → ServeIfWorker) and talks the
// session protocol over its stdin/stdout. A local child opens the
// coordinator's cache, so nothing is pushed.
func TestGradeDistExecSession(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:  []HostSpec{{Argv: []string{exe}}, {Argv: []string{exe}}},
		Sample: 256,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if stats.BytesShipped != 0 {
		t.Fatalf("pushed %d bytes to exec workers sharing the coordinator cache", stats.BytesShipped)
	}
}

// TestGradeDistDisconnectRetries injects a mid-stream disconnect: the
// host's first session hangs up right after the HAVE exchange, mid
// protocol. The attempt fails, the coordinator re-dials and force-pushes,
// and the retry succeeds — bit-identically.
func TestGradeDistDisconnectRetries(t *testing.T) {
	dials := 0
	spec := flakyHost(newTestHost(t), func(b net.Conn) {
		enc := NewEncoder(b)
		dec := NewDecoder(b)
		_ = enc.WriteFrame(&sessionFrame{Kind: frameHello, Proto: sessionProto, Cores: 1})
		var f sessionFrame
		_ = dec.ReadFrame(&f) // the HAVE probe
		b.Close()             // ... and the stream dies mid-exchange
	})
	dial := spec.dial
	spec.dial = func() (io.ReadWriteCloser, error) { dials++; return dial() }
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:  []HostSpec{spec},
		Sample: 256,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	hs := stats.Hosts[0]
	if hs.Retries != 1 || hs.FailedAttempts != 1 {
		t.Fatalf("disconnect recovery: %+v", hs)
	}
	if dials < 2 {
		t.Fatalf("retry reused the dead session (%d dials)", dials)
	}
}

// TestGradeDistHealsCorruptWorkerCache plants garbage at the golden's
// content address in the worker cache. The HAVE probe says "present", the
// grade fails on the corrupt entry, and the retry's forced re-push heals
// it — the run still completes bit-identically.
func TestGradeDistHealsCorruptWorkerCache(t *testing.T) {
	workerDir := t.TempDir()
	wc, err := cache.Open(workerDir)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(wc)
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	coord, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	goldenKey, _, err := coord.PutGolden(g)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(workerDir, "goldenship-"+goldenKey+".gob")
	if err := os.WriteFile(corrupt, []byte("not a golden trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	all := fault.Universe(cpu.Netlist)
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:  []HostSpec{pipeHost(t, h)},
		Sample: 256,
		Seed:   3,
		Cache:  coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if stats.Hosts[0].Retries != 1 {
		t.Fatalf("corrupt-artifact recovery: %+v", stats.Hosts[0])
	}
	if data, err := os.ReadFile(corrupt); err != nil || string(data) == "not a golden trace" {
		t.Fatalf("forced re-push did not heal the corrupt entry (err %v)", err)
	}
}

// TestGradeDistStragglerRedispatch wedges one host: it accepts its shard
// and never answers. The healthy host finishes its own work, goes idle,
// duplicates the wedged host's shard, and its result wins — the run
// completes promptly (no timeout involved) and bit-identically.
func TestGradeDistStragglerRedispatch(t *testing.T) {
	good := newTestHost(t)
	blackhole := fakeHost(func(net.Conn, *Encoder, *Request) {}) // swallow the shard, never answer
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:   []HostSpec{pipeHost(t, good), blackhole},
		Sample:  1024,
		Seed:    3,
		Timeout: 5 * time.Minute, // far beyond the test: recovery must not be timeout-driven
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if stats.Shards != 2 {
		t.Fatalf("want both hosts assigned a shard, got %d shards", stats.Shards)
	}
	if stats.Redispatched != 1 || stats.Hosts[0].Duplicates != 1 {
		t.Fatalf("straggler recovery: redispatched %d, host 0 %+v", stats.Redispatched, stats.Hosts[0])
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("straggler recovery leaned on the timeout (%v)", elapsed)
	}
	if got.Stats.DistRedispatched != 1 {
		t.Fatalf("DistRedispatched = %d", got.Stats.DistRedispatched)
	}
}

// TestGradeDistDoubleFailureFails pins the never-a-partial-merge
// contract: a host that fails the same shard twice — with no other host
// to cover it — fails the whole run with both attempts' errors.
func TestGradeDistDoubleFailureFails(t *testing.T) {
	broken := fakeHost(func(_ net.Conn, enc *Encoder, req *Request) {
		_ = enc.WriteFrame(&sessionFrame{Kind: frameResult, Resp: &Response{
			Shard: req.Shard, Err: "simulated worker fault",
		}})
	})
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	got, _, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:  []HostSpec{broken},
		Sample: 256,
		Seed:   3,
	})
	if err == nil {
		t.Fatal("double failure returned a result")
	}
	if got != nil {
		t.Fatal("failed run leaked a partial result")
	}
	if !strings.Contains(err.Error(), "worker failed twice") ||
		!strings.Contains(err.Error(), "simulated worker fault") {
		t.Fatalf("error lost the attempt history: %v", err)
	}
}

// TestGradeDistUnreachableHostExcluded: a dead address degrades the run
// to the live hosts and is recorded in the stats; all hosts dead is an
// error, not a hang.
func TestGradeDistUnreachableHostExcluded(t *testing.T) {
	dead := HostSpec{dial: func() (io.ReadWriteCloser, error) {
		return nil, fmt.Errorf("connection refused")
	}}
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	want, err := fault.Simulate(cpu, g, all, fault.Options{Sample: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:  []HostSpec{dead, pipeHost(t, newTestHost(t))},
		Sample: 256,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if stats.Hosts[0].Err == "" {
		t.Fatal("dead host not recorded")
	}
	if got.Stats.DistHosts != 1 {
		t.Fatalf("DistHosts = %d, want 1", got.Stats.DistHosts)
	}
	if _, _, err := GradeDist(cpu, g, all, DistOptions{Hosts: []HostSpec{dead}, Sample: 64}); err == nil {
		t.Fatal("all-dead host set graded successfully")
	}
}
