// This file carries the supervisor↔worker byte channels. Two
// transports speak the same frame protocol: an in-process one (the
// worker loop on a goroutine over io.Pipes — the default, no exec
// needed) and a process one (the running binary re-exec'ed as a child
// over stdin/stdout, so worker death is real SIGKILL death). The
// supervisor never knows which it drives.

package coord

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// Transport is one worker's byte channel as the supervisor sees it.
type Transport interface {
	// Reader carries frames from the worker.
	Reader() io.Reader
	// Writer carries frames to the worker.
	Writer() io.Writer
	// Kill tears the worker down abruptly: SIGKILL for processes,
	// poisoned pipes for in-process workers. Idempotent.
	Kill()
	// Done is closed when the worker has fully stopped.
	Done() <-chan struct{}
}

// TransportFactory builds the transport for one worker index. The
// supervisor calls it again for every restart incarnation.
type TransportFactory func(index int) (Transport, error)

// errKilled poisons the pipes of an in-process worker the supervisor
// tore down.
var errKilled = fmt.Errorf("coord: worker killed")

type inprocTransport struct {
	fromWorker *io.PipeReader // supervisor reads
	toWorker   *io.PipeWriter // supervisor writes
	workerIn   *io.PipeReader // worker reads
	workerOut  *io.PipeWriter // worker writes
	done       chan struct{}
}

func (t *inprocTransport) Reader() io.Reader     { return t.fromWorker }
func (t *inprocTransport) Writer() io.Writer     { return t.toWorker }
func (t *inprocTransport) Done() <-chan struct{} { return t.done }
func (t *inprocTransport) Kill() {
	// Poison every end: the worker's next read or write fails, its
	// heartbeat stops, and the goroutine unwinds.
	t.fromWorker.CloseWithError(errKilled)
	t.toWorker.CloseWithError(errKilled)
	t.workerIn.CloseWithError(errKilled)
	t.workerOut.CloseWithError(errKilled)
}

// InProcess runs each worker as a goroutine in the supervisor's own
// process, joined by synchronous pipes. This is the default
// transport: no child processes, full protocol — a ProcKill fault
// tears the pipes instead of delivering a signal.
func InProcess() TransportFactory {
	return func(index int) (Transport, error) {
		workerIn, toWorker := io.Pipe()
		fromWorker, workerOut := io.Pipe()
		t := &inprocTransport{
			fromWorker: fromWorker,
			toWorker:   toWorker,
			workerIn:   workerIn,
			workerOut:  workerOut,
			done:       make(chan struct{}),
		}
		go func() {
			defer close(t.done)
			kill := func() {
				// Abrupt in-process death: poison the pipes mid-protocol
				// and abandon the worker goroutine without cleanup, the
				// closest analog of SIGKILL that shares an address space.
				workerIn.CloseWithError(errKilled)
				workerOut.CloseWithError(errKilled)
				runtime.Goexit()
			}
			_ = runWorker(workerIn, workerOut, kill)
			workerOut.Close()
			workerIn.Close()
		}()
		return t, nil
	}
}

type procTransport struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	done   chan struct{}
}

func (t *procTransport) Reader() io.Reader     { return t.stdout }
func (t *procTransport) Writer() io.Writer     { return t.stdin }
func (t *procTransport) Done() <-chan struct{} { return t.done }
func (t *procTransport) Kill() {
	if t.cmd.Process != nil {
		_ = t.cmd.Process.Kill() // SIGKILL; the wait goroutine reaps
	}
	t.stdin.Close()
}

// WorkerEnv marks a process as a re-exec'ed frame worker: a binary
// whose main calls MaybeWorker turns into a worker when it sees this
// variable set.
const WorkerEnv = "DTMSVS_COORD_WORKER"

// MaybeWorker turns the current process into a frame worker over
// stdin/stdout if WorkerEnv is set, never returning. Call it first
// thing in main (before flag parsing) of any binary used with
// SelfTransport.
func MaybeWorker() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := runWorker(os.Stdin, os.Stdout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "dtmsvs worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// SelfTransport re-execs the current binary as each worker process,
// speaking frames over stdin/stdout with stderr passed through; its
// main must call MaybeWorker first thing. This is how dtsim and the
// test suite get real processes — and real SIGKILLs. A process that
// already has WorkerEnv set is itself a re-exec'ed child whose main
// never turned it into a worker: its factory refuses with ErrProtocol
// before starting anything, so the run fails instead of re-execing
// itself without end.
func SelfTransport() TransportFactory {
	exe, err := os.Executable()
	return func(index int) (Transport, error) {
		if os.Getenv(WorkerEnv) != "" {
			return nil, fmt.Errorf("%w: %s is set, so this process is a worker child whose main never called MaybeWorker", ErrProtocol, WorkerEnv)
		}
		if err != nil {
			return nil, fmt.Errorf("resolve own executable: %w", err)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), WorkerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start worker %d: %w", index, err)
		}
		t := &procTransport{cmd: cmd, stdin: stdin, stdout: stdout, done: make(chan struct{})}
		go func() {
			defer close(t.done)
			_ = cmd.Wait()
		}()
		return t, nil
	}
}
