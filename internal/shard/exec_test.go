//go:build unix

package shard

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
)

// Drills on real worker processes: exec hosts running a shell script that
// greets the coordinator with a pre-encoded hello frame and then
// misbehaves, or hands over to this test binary as a real session worker.

// scriptHost returns an exec host running script under sh, with the
// placeholders HELLO (a file in dir holding a session hello frame), DIR
// and EXE (this test binary) substituted.
func scriptHost(t *testing.T, dir, script string) HostSpec {
	t.Helper()
	hello := filepath.Join(dir, "hello")
	f, err := os.Create(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewEncoder(f).WriteFrame(&sessionFrame{Kind: frameHello, Proto: sessionProto, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	script = strings.NewReplacer("HELLO", "'"+hello+"'", "DIR", "'"+dir+"'", "EXE", "'"+exe+"'").Replace(script)
	return HostSpec{Argv: []string{"sh", "-c", script}}
}

// TestWorkerExitsNonzero: the first worker process greets the coordinator
// and then exits with status 3 mid-session; the attempt fails, and the
// retry's fresh process (a real session worker) converges.
func TestWorkerExitsNonzero(t *testing.T) {
	host := scriptHost(t, t.TempDir(), `if mkdir DIR/crashed 2>/dev/null; then cat HELLO; exit 3; fi; exec EXE`)
	gradeRecovers(t, host, 0)
}

// TestHangingWorkerIsReaped asserts the no-zombie guarantee: worker
// processes that hang — one before its hello, one after it — are killed
// by the attempt timeout AND reaped on every failure path, so no dead
// child lingers in the process table for the life of the coordinator.
// GradeDist returns only after every attempt has torn its session down,
// so probing the pids afterwards is race-free.
func TestHangingWorkerIsReaped(t *testing.T) {
	cpu := getCPU(t)
	g := captureTestGolden(t, 60)
	all := fault.Universe(cpu.Netlist)
	// exec keeps the shell's pid, so Kill hits the hanging sleep itself
	// rather than a parent whose orphan would keep the stdout pipe open.
	dir := t.TempDir()
	mute := scriptHost(t, dir, `echo $$ >> DIR/pids; exec sleep 60`)
	greet := scriptHost(t, dir, `echo $$ >> DIR/pids; cat HELLO; exec sleep 60`)
	_, stats, err := GradeDist(cpu, g, all, DistOptions{
		Hosts:   []HostSpec{mute, greet},
		Sample:  128,
		Seed:    5,
		Timeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("want the hung workers to fail the run")
	}
	if stats.Hosts[0].Err == "" || stats.Hosts[1].Err != "" {
		t.Fatalf("want the mute host excluded at hello and the greeting one dispatched: %+v", stats.Hosts)
	}
	data, err := os.ReadFile(filepath.Join(dir, "pids"))
	if err != nil {
		t.Fatal(err)
	}
	pids := strings.Fields(string(data))
	if len(pids) < 3 {
		t.Fatalf("want the mute worker plus two attempts of the greeting one, got pids %v", pids)
	}
	for _, p := range pids {
		pid, err := strconv.Atoi(p)
		if err != nil {
			t.Fatal(err)
		}
		var ws syscall.WaitStatus
		got, err := syscall.Wait4(pid, &ws, syscall.WNOHANG, nil)
		if !errors.Is(err, syscall.ECHILD) {
			t.Fatalf("worker pid %d was not reaped (wait4 = %d, %v)", pid, got, err)
		}
	}
}
