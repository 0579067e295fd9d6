package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// startExecEnv spawns argv with extra environment entries appended: the
// launcher of exec hosts, whose session runs over the child's
// stdin/stdout. Environment only reaches direct children; wrappers that
// hop machines (ssh) need the explicit CLI flags instead.
func startExecEnv(extraEnv []string, name string, args ...string) (*execWorker, error) {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard: spawn %s: %w", name, err)
	}
	return &execWorker{cmd: cmd, in: in, out: out}, nil
}

type execWorker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.ReadCloser

	killOnce sync.Once
	waitOnce sync.Once
	waitErr  error
}

func (w *execWorker) Write(p []byte) (int, error) { return w.in.Write(p) }
func (w *execWorker) Read(p []byte) (int, error)  { return w.out.Read(p) }
func (w *execWorker) CloseWrite() error           { return w.in.Close() }

// Wait is idempotent (exec.Cmd.Wait is not): a cancel, a timeout and the
// end-of-run shutdown may all reap the same worker, and every exit path
// must reap it so no dead child lingers as a zombie.
func (w *execWorker) Wait() error {
	w.waitOnce.Do(func() { w.waitErr = w.cmd.Wait() })
	return w.waitErr
}
func (w *execWorker) Kill() {
	w.killOnce.Do(func() {
		if w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
	})
}
