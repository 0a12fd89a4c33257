package vecmath

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("new matrix %dx%d: %w", rows, cols, ErrShape)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}, nil
}

// MustMatrix is NewMatrix that panics on invalid shape; for use in
// tests and package-internal constructions with constant shapes.
func MustMatrix(rows, cols int) *Matrix {
	m, err := NewMatrix(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// FillRandUniform fills the matrix with samples from U(-scale, scale).
func (m *Matrix) FillRandUniform(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// FillXavier fills with the Glorot/Xavier uniform initialization for a
// layer with the given fan-in and fan-out.
func (m *Matrix) FillXavier(rng *rand.Rand, fanIn, fanOut int) {
	scale := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.FillRandUniform(rng, scale)
}
