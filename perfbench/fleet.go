package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"carriersense/internal/dist"
)

// fleet is a loopback worker fleet: `cs serve` child processes on
// ephemeral 127.0.0.1 ports, each with a single-width pool, behind one
// dist.Remote on the binary wire. close reaps every worker on every
// exit path; a worker that cannot start fails the fleet with its own
// output as the cause — the benchmark never falls back to the local
// pool.
type fleet struct {
	workers []*worker
	remote  *dist.Remote
}

type worker struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for

	mu  sync.Mutex
	out []string // the worker's stderr lines, kept for error reports
}

const workerStartTimeout = 30 * time.Second

func startFleet(ctx context.Context, csBin string, n int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		w, err := startWorker(ctx, csBin)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("fleet worker %d of %d: %w", i+1, n, err)
		}
		f.workers = append(f.workers, w)
	}
	remote, err := dist.NewRemote(f.addrs(), dist.RemoteOptions{Wire: dist.WireBinary})
	if err != nil {
		f.close()
		return nil, err
	}
	f.remote = remote
	return f, nil
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.workers))
	for i, w := range f.workers {
		out[i] = w.addr
	}
	return out
}

// metricsURLs are the workers' Prometheus endpoints.
func (f *fleet) metricsURLs() []string {
	out := make([]string, len(f.workers))
	for i, w := range f.workers {
		out[i] = "http://" + w.addr + dist.PathMetrics
	}
	return out
}

// close stops the remote and every worker: SIGTERM drains, SIGKILL
// follows a worker that has not exited within the grace period, and
// close returns only after each process has been waited for.
func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.remote != nil {
		f.remote.Close()
	}
	for _, w := range f.workers {
		w.stop()
	}
}

func startWorker(ctx context.Context, csBin string) (*worker, error) {
	cmd := exec.Command(csBin, "serve", "-listen", "127.0.0.1:0", "-parallel", "1")
	// One core's worth of worker: the pool is 1 wide, and the runtime's
	// own threads stay on one core too.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// A benchmark killed outright must not leave workers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s serve: %w", csBin, err)
	}
	w := &worker{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			w.mu.Lock()
			w.out = append(w.out, line)
			w.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, "cs worker listening on "); ok {
				addr, _, _ = strings.Cut(addr, " ")
				select {
				case ready <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(w.done)
	}()
	timer := time.NewTimer(workerStartTimeout)
	defer timer.Stop()
	select {
	case w.addr = <-ready:
		return w, nil
	case <-w.done:
		return nil, fmt.Errorf("cs serve exited before listening (%v): %s", cmd.ProcessState, w.output())
	case <-timer.C:
		w.stop()
		return nil, fmt.Errorf("cs serve did not report a listen address within %v: %s", workerStartTimeout, w.output())
	case <-ctx.Done():
		w.stop()
		return nil, ctx.Err()
	}
}

func (w *worker) output() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.out) == 0 {
		return "(no output)"
	}
	return strings.Join(w.out, " | ")
}

func (w *worker) stop() {
	select {
	case <-w.done:
		return
	default:
	}
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.done:
	case <-time.After(5 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
}

// cpu is the CPU time the workers have run so far: the sum over each
// worker's threads of the scheduler's run time, in ns
// (/proc/PID/task/TID/schedstat). The kernel leaves time stolen by the
// hypervisor out of it.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, w := range f.workers {
		d, err := processCPU(w.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("fleet worker %s: %w", w.addr, err)
		}
		total += d
	}
	return total, nil
}

func processCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d (%v)", pid, err)
	}
	var total time.Duration
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		run, _, _ := strings.Cut(strings.TrimSpace(string(b)), " ")
		ns, err := strconv.ParseInt(run, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// alive reports an error naming every worker that has exited.
func (f *fleet) alive() error {
	var errs []error
	for i, w := range f.workers {
		select {
		case <-w.done:
			errs = append(errs, fmt.Errorf("fleet worker %d (%s) exited: %s", i+1, w.addr, w.output()))
		default:
		}
	}
	return errors.Join(errs...)
}
