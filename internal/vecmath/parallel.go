package vecmath

import (
	"sync/atomic"

	"dtmsvs/internal/parallel"
)

// Pool-parallel GEMM: the blocked kernels fan destination row blocks
// across a persistent parallel.Crew. Every destination row is owned
// by exactly one block, each block runs the very same ascending-k
// range kernel the sequential path runs, and no two blocks share an
// accumulator — so the output is bit-identical to the sequential
// kernels for any worker count, any block size and any scheduling.
// (MatMulTransA* partitions dst rows, i.e. columns of a, each swept
// over the k-axis in ascending order.)
//
// Fan-out only pays above a work threshold: waking workers costs a
// few microseconds, which tiny minibatch GEMMs undercut. Below the
// threshold the call runs the sequential kernel — identical bits
// either way, so the threshold is purely a speed knob.

// gemmOp selects the range kernel a woken worker runs.
type gemmOp uint8

const (
	opMatMul gemmOp = iota
	opMatMulTransA
)

// gemmParMinFlops is the default work bound (2·m·k·n multiply-adds)
// below which fan-out cannot win against the crew wake-up cost.
const gemmParMinFlops = 1 << 16

// gemmBlockTargetPerWorker controls block granularity: enough blocks
// per worker that the atomic claim loop load-balances, few enough
// that claim traffic stays negligible.
const gemmBlockTargetPerWorker = 4

// GEMMPool runs the blocked GEMM kernels with destination row blocks
// fanned across a persistent worker crew. The zero value and a nil
// *GEMMPool are valid and always sequential; NewGEMMPool(1) is
// sequential without goroutines; otherwise workers park between
// calls (first spawned when a call clears the parallel threshold)
// until Close.
//
// A GEMMPool runs one kernel call at a time — concurrent callers own
// one pool each.
type GEMMPool struct {
	crew *parallel.Crew
	// MinFlops overrides the parallel work threshold (2·m·k·n);
	// 0 keeps the default. Results are bit-identical on both sides
	// of any threshold. Exposed for tests and benchmarks.
	MinFlops int

	// Per-call fan-out state, read by woken workers.
	op         gemmOp
	dst, a, b  *Matrix
	rows       int
	blockRows  int
	nextBlock  atomic.Int64
	zeroBefore bool
	runFn      func(w int)
}

// NewGEMMPool returns a pool with the given worker bound; workers <=
// 0 means all cores, 1 means sequential (no crew, no goroutines,
// Close is a no-op).
func NewGEMMPool(workers int) *GEMMPool {
	p := &GEMMPool{}
	crew := parallel.NewCrew(workers)
	if crew.Workers() > 1 {
		p.crew = crew
	}
	p.runFn = p.runWorker
	return p
}

// Workers reports the pool's worker bound (1 for nil or sequential
// pools).
func (p *GEMMPool) Workers() int {
	if p == nil || p.crew == nil {
		return 1
	}
	return p.crew.Workers()
}

// Close releases the pool's workers. Safe on nil and idempotent.
func (p *GEMMPool) Close() {
	if p != nil && p.crew != nil {
		p.crew.Close()
	}
}

// parWorkers decides the fan-out width for a kernel call over `rows`
// destination rows costing `flops`; 1 means run sequentially.
func (p *GEMMPool) parWorkers(rows, flops int) int {
	if p == nil || p.crew == nil || rows < 2 {
		return 1
	}
	min := p.MinFlops
	if min <= 0 {
		min = gemmParMinFlops
	}
	if flops < min {
		return 1
	}
	w := p.crew.Workers()
	if w > rows {
		w = rows
	}
	return w
}

// fan publishes the call state and runs the row blocks on the crew.
func (p *GEMMPool) fan(workers int, op gemmOp, dst, a, b *Matrix, rows int, zeroBefore bool) {
	blocks := workers * gemmBlockTargetPerWorker
	blockRows := (rows + blocks - 1) / blocks
	if blockRows < 1 {
		blockRows = 1
	}
	p.op, p.dst, p.a, p.b = op, dst, a, b
	p.rows, p.blockRows, p.zeroBefore = rows, blockRows, zeroBefore
	p.nextBlock.Store(0)
	p.crew.Run(workers, p.runFn)
	p.dst, p.a, p.b = nil, nil, nil
}

// runWorker claims row blocks off the shared counter until none
// remain. Rows are exclusively owned, so claim order is irrelevant to
// the result.
func (p *GEMMPool) runWorker(int) {
	for {
		blk := int(p.nextBlock.Add(1)) - 1
		lo := blk * p.blockRows
		if lo >= p.rows {
			return
		}
		hi := lo + p.blockRows
		if hi > p.rows {
			hi = p.rows
		}
		if p.zeroBefore {
			for i := lo; i < hi; i++ {
				row := p.dst.Row(i)
				for j := range row {
					row[j] = 0
				}
			}
		}
		switch p.op {
		case opMatMul:
			matMulAccumRows(p.dst, p.a, p.b, lo, hi)
		case opMatMulTransA:
			matMulTransAAccumRows(p.dst, p.a, p.b, lo, hi)
		}
	}
}

// MatMulInto is MatMulInto with dst row blocks fanned across the
// pool; bit-identical to the package function for any worker count.
func (p *GEMMPool) MatMulInto(dst, a, b *Matrix) error {
	w := p.parWorkers(matRowsOf(dst), 2*a.Rows*a.Cols*b.Cols)
	if w <= 1 {
		return MatMulInto(dst, a, b)
	}
	if err := checkMatMul(dst, a, b); err != nil {
		return err
	}
	p.fan(w, opMatMul, dst, a, b, dst.Rows, true)
	return nil
}

// MatMulTransAInto is MatMulTransAInto with dst row blocks fanned
// across the pool; bit-identical to the package function.
func (p *GEMMPool) MatMulTransAInto(dst, a, b *Matrix) error {
	w := p.parWorkers(matRowsOf(dst), 2*a.Rows*a.Cols*b.Cols)
	if w <= 1 {
		return MatMulTransAInto(dst, a, b)
	}
	if err := checkTransA(dst, a, b); err != nil {
		return err
	}
	p.fan(w, opMatMulTransA, dst, a, b, dst.Rows, true)
	return nil
}

// MatMulTransAAccumInto is MatMulTransAAccumInto with dst row blocks
// fanned across the pool; bit-identical to the package function.
func (p *GEMMPool) MatMulTransAAccumInto(dst, a, b *Matrix) error {
	w := p.parWorkers(matRowsOf(dst), 2*a.Rows*a.Cols*b.Cols)
	if w <= 1 {
		return MatMulTransAAccumInto(dst, a, b)
	}
	if err := checkTransA(dst, a, b); err != nil {
		return err
	}
	p.fan(w, opMatMulTransA, dst, a, b, dst.Rows, false)
	return nil
}

func matRowsOf(m *Matrix) int {
	if m == nil {
		return 0
	}
	return m.Rows
}
