package shard

import (
	"fmt"
	"net"
	"os"

	"repro/internal/cache"
)

// EnvSession flips a binary into session-worker mode: it serves one
// grading session (Host.ServeSession) on stdin/stdout until the
// coordinator hangs up. The exec transport of GradeDist sets it on the
// argv it spawns (LocalHosts, and so `-shards N`, relies on it); for
// transports that do not propagate environment (a real ssh hop), sbst
// exposes the equivalent -shard-session flag instead.
const EnvSession = "SBST_SHARD_SESSION"

// EnvHostAddr flips a binary into TCP host-daemon mode: it listens on
// the given address, prints "shard host listening on ADDR" on stdout
// (ADDR resolved, so ":0" reports the picked port), and serves
// coordinator sessions until killed. The loopback e2e tests and
// BenchmarkDistributedGrade spawn their worker fleet this way.
const EnvHostAddr = "SBST_SHARD_HOSTD"

// EnvCacheDir names the worker-side artifact cache directory for the
// session and host-daemon modes; empty means a private temporary
// directory, removed when the process exits cleanly. GradeDist sets it
// to its own cache directory on the exec hosts it spawns, so a child on
// the same machine finds every artifact already present.
const EnvCacheDir = "SBST_SHARD_CACHE"

// ServeIfWorker turns the current process into a shard worker when one of
// the worker environment markers is set — a stdio session worker
// (EnvSession) or a TCP host daemon (EnvHostAddr) — and exits without
// returning. Call it first thing in main (and in TestMain for test
// binaries that shard), before flag parsing, so any binary the
// coordinator re-executes speaks the protocol regardless of its own CLI.
func ServeIfWorker() {
	if addr := os.Getenv(EnvHostAddr); addr != "" {
		h, cleanup, err := hostFromEnv()
		if err == nil {
			err = serveHostTCP(h, addr)
		}
		cleanup()
		exitWorker("shard host", err)
	}
	if os.Getenv(EnvSession) != "" {
		h, cleanup, err := hostFromEnv()
		if err == nil {
			err = h.ServeSession(os.Stdin, os.Stdout)
		}
		cleanup()
		exitWorker("shard session", err)
	}
}

func exitWorker(mode string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", mode, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ServeSessionStdio serves one coordinator session on stdin/stdout over a
// worker cache at dir (empty = a private temp directory, removed on
// return) — the target of `sbst -shard-session`, the explicit-flag
// equivalent of EnvSession for transports that do not propagate
// environment, like an ssh hop.
func ServeSessionStdio(dir string) error {
	h, cleanup, err := hostWithCache(dir)
	if err != nil {
		return err
	}
	defer cleanup()
	return h.ServeSession(os.Stdin, os.Stdout)
}

// ServeHostTCP listens on addr and serves coordinator sessions until the
// process is killed, over a worker cache at dir (empty = a private temp
// directory) — the target of `sbst -shard-serve`, the explicit-flag
// equivalent of EnvHostAddr.
func ServeHostTCP(addr, dir string) error {
	h, cleanup, err := hostWithCache(dir)
	if err != nil {
		return err
	}
	defer cleanup()
	return serveHostTCP(h, addr)
}

// hostFromEnv opens the worker's local artifact cache (EnvCacheDir, or a
// private temp directory) and wraps it in a Host.
func hostFromEnv() (*Host, func(), error) {
	return hostWithCache(os.Getenv(EnvCacheDir))
}

func hostWithCache(dir string) (*Host, func(), error) {
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sbst-hostcache-")
		if err != nil {
			return nil, cleanup, err
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	}
	c, err := cache.Open(dir)
	if err != nil {
		return nil, cleanup, err
	}
	return NewHost(c), cleanup, nil
}

// serveHostTCP listens on addr and serves coordinator sessions forever,
// announcing the resolved address on stdout so a spawning parent can
// scrape the port from a ":0" listen.
func serveHostTCP(h *Host, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("shard host listening on %s\n", ln.Addr())
	return h.Serve(ln)
}
