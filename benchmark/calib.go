package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The box this benchmark runs on is a few cores of a shared host, and
// what the neighbours do moves every timing of a run together, by up to
// 1.3× over minutes. The calibrator measures that: a child process that
// shares no code with the program under test runs a fixed kernel — burst —
// whenever the harness is between two operations, and the run's timings
// are reported at reference speed, raw × refBurstMs ÷ the run's median
// burst. The child keeps the kernel's memory, garbage and CPU seconds out
// of this process, so the program runs under its own GC pacing and its
// RSS, allocation and CPU readings are its own.

const (
	// calibrateEnv marks the re-exec'd child; main and TestMain hand it
	// to calibrateChild.
	calibrateEnv = "DTMSVS_BENCH_CALIBRATE"
	// refBurstMs is the reference speed: what one burst took on the
	// 2-core box the sizes were cut on, median over 160 runs. It defines
	// the unit of the reported timings and is never re-fitted.
	refBurstMs = 26.0
	// burstEvery paces the bursts: at most one per gap between harness
	// operations, and none sooner than this after the last.
	burstEvery = 250 * time.Millisecond

	chaseLen   = 8 << 20 // int32 entries: 32 MB, far beyond L2
	chaseSteps = 60000
	churnCalls = 4
	fpSteps    = 1_000_000
)

// calibrator is the parent's end of the calibration child.
type calibrator struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdout  *bufio.Reader
	last    time.Time
	burstMs []float64
	// err is the first failure; after it the calibrator does nothing, and
	// the run fails when it ends.
	err error
	// spent is the wall time the bursts took: the harness takes it out of
	// the throughput window.
	spent time.Duration
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), calibrateEnv+"=1")
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
		return nil, err
	}
	c := &calibrator{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	// The first burst returns once the child has built its memory; it is
	// a warm-up, not a sample.
	c.burst()
	if c.err != nil {
		c.stop()
		return nil, c.err
	}
	c.burstMs, c.spent = nil, 0
	return c, nil
}

// tick runs a burst if the last one is burstEvery old. The harness calls
// it between operations, never inside a timed one. A nil calibrator (the
// traced pass, the tests) does nothing.
func (c *calibrator) tick() {
	if c != nil && c.err == nil && time.Since(c.last) >= burstEvery {
		c.burst()
	}
}

func (c *calibrator) burst() {
	t0 := time.Now()
	_, err := c.stdin.Write([]byte{'\n'})
	var line string
	if err == nil {
		line, err = c.stdout.ReadString('\n')
	}
	var ns int64
	if err == nil {
		ns, err = strconv.ParseInt(line[:len(line)-1], 10, 64)
	}
	if err != nil {
		c.err = fmt.Errorf("calibrator: %w", err)
		return
	}
	c.burstMs = append(c.burstMs, float64(ns)/1e6)
	c.last = time.Now()
	c.spent += c.last.Sub(t0)
}

// failure is the first error of a burst, if any.
func (c *calibrator) failure() error {
	if c == nil {
		return nil
	}
	return c.err
}

// spentS is the wall time the bursts have taken so far, in seconds.
func (c *calibrator) spentS() float64 {
	if c == nil {
		return 0
	}
	return c.spent.Seconds()
}

// speed is how fast the box ran during this run, as a share of the
// reference: above 1 on a faster box. Without a calibrator it is 1 and
// the timings are raw.
func (c *calibrator) speed() float64 {
	if c == nil || len(c.burstMs) == 0 {
		return 1
	}
	return refBurstMs / median(c.burstMs)
}

// stop ends the child and waits for it.
func (c *calibrator) stop() {
	c.stdin.Close()
	c.cmd.Wait()
}

// calibrateChild is the whole life of the child: one burst per line read,
// its wall time in ns written back, until stdin closes.
func calibrateChild() {
	// One cycle through all of next, in random order (Sattolo's shuffle).
	next := make([]int32, chaseLen)
	for i := range next {
		next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := chaseLen - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	pos := [2]int32{0, chaseLen / 2}

	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := range pos {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pos[g] = burst(next, pos[g])
			}()
		}
		wg.Wait()
		fmt.Println(time.Since(t0).Nanoseconds())
	}
}

// burst is the calibration kernel, run on two goroutines at once: the
// kinds of work the program's steps and checkpoints are made of, in about
// the proportion that made its time follow theirs one for one when the
// box changed speed — allocation churn with a map and a sort, a pointer
// chase through memory, and a little arithmetic.
func burst(next []int32, p int32) int32 {
	for i := 0; i < churnCalls; i++ {
		churn()
	}
	for i := 0; i < chaseSteps; i++ {
		p = next[p]
	}
	x := 1.0
	for i := 0; i < fpSteps; i++ {
		x = x*1.0000001 + 1e-9
	}
	if x < 0 { // never: keeps the loop
		p = 0
	}
	return p
}

type churnNode struct {
	v    float64
	next *churnNode
	s    []float64
}

func churn() float64 {
	byKey := map[int]*churnNode{}
	var head *churnNode
	for i := 0; i < 20000; i++ {
		head = &churnNode{v: float64(i), next: head, s: make([]float64, 16)}
		byKey[i%4096] = head
	}
	xs := make([]float64, 0, 20000)
	for n := head; n != nil; n = n.next {
		xs = append(xs, n.v*1.5+n.s[0])
	}
	sort.Float64s(xs)
	return xs[0] + float64(len(byKey))
}
