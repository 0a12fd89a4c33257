package vecmath

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAXPYAndScale(t *testing.T) {
	y := Vec{1, 2, 3}
	if err := AXPY(2, Vec{1, 1, 1}, y); err != nil {
		t.Fatal(err)
	}
	want := Vec{3, 4, 5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("AXPY[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	Scale(0.5, y)
	want = Vec{1.5, 2, 2.5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Scale[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	if err := AXPY(1, Vec{1}, Vec{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestNormDist(t *testing.T) {
	if got := Norm2(Vec{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	d, err := Dist(Vec{0, 0}, Vec{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	sq, err := SqDist(Vec{1, 1}, Vec{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sq != 5 {
		t.Fatalf("SqDist = %v, want 5", sq)
	}
	if _, err := SqDist(Vec{1}, Vec{}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestArgMaxMin(t *testing.T) {
	v := Vec{1, 5, 5, -2}
	if got := ArgMax(v); got != 1 {
		t.Fatalf("ArgMax = %d, want 1 (first of ties)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 3); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := NewMatrix(3, -1); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad matrix: %+v", m)
	}
}

func TestMatrixAtSetRowClone(t *testing.T) {
	m := MustMatrix(2, 2)
	m.Set(0, 1, 7)
	m.Set(1, 0, -2)
	if m.At(0, 1) != 7 || m.At(1, 0) != -2 {
		t.Fatal("At/Set mismatch")
	}
	r := m.Row(1)
	r[1] = 9 // view mutates backing store
	if m.At(1, 1) != 9 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone must be deep")
	}
}

func TestFillXavierBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := MustMatrix(8, 8)
	m.FillXavier(rng, 8, 8)
	bound := math.Sqrt(6.0 / 16.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("xavier value %v outside ±%v", v, bound)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vec{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] == 99 {
		t.Fatal("Clone must copy")
	}
}
