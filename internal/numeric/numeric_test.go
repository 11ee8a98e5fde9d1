package numeric

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestFloatComparators(t *testing.T) {
	tests := []struct {
		name                 string
		a, b, eps            float64
		less, greater, equal bool
	}{
		{"clearly less", 1, 2, Eps, true, false, false},
		{"clearly greater", 2, 1, Eps, false, true, false},
		{"identical", 5, 5, Eps, false, false, true},
		{"within eps", 1, 1 + 1e-12, Eps, false, false, true},
		{"just outside eps", 1, 1 + 1e-6, Eps, true, false, false},
		{"large scale within eps", 1e12, 1e12 + 1, Eps, false, false, true},
		{"large scale outside eps", 1e12, 1.1e12, Eps, true, false, false},
		{"tiny magnitudes use absolute floor", 1e-15, 2e-15, Eps, false, false, true},
		{"negative ordering", -2, -1, Eps, true, false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Less(tt.a, tt.b, tt.eps); got != tt.less {
				t.Errorf("Less(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.less)
			}
			if got := Greater(tt.a, tt.b, tt.eps); got != tt.greater {
				t.Errorf("Greater(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.greater)
			}
			if got := Equal(tt.a, tt.b, tt.eps); got != tt.equal {
				t.Errorf("Equal(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.equal)
			}
		})
	}
}

func TestComparatorTrichotomyProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		n := 0
		if Less(a, b, Eps) {
			n++
		}
		if Greater(a, b, Eps) {
			n++
		}
		if Equal(a, b, Eps) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatArithmetic(t *testing.T) {
	half := NewRat(1, 2)
	third := NewRat(1, 3)
	if got := half.Add(third); !got.Equal(NewRat(5, 6)) {
		t.Errorf("1/2 + 1/3 = %v", got)
	}
	if got := half.Sub(third); !got.Equal(NewRat(1, 6)) {
		t.Errorf("1/2 - 1/3 = %v", got)
	}
	if got := half.Mul(third); !got.Equal(NewRat(1, 6)) {
		t.Errorf("1/2 * 1/3 = %v", got)
	}
	if got := half.Div(third); !got.Equal(NewRat(3, 2)) {
		t.Errorf("(1/2) / (1/3) = %v", got)
	}
}

func TestRatZeroValueIsZero(t *testing.T) {
	var z Rat
	if z.Sign() != 0 {
		t.Fatalf("zero value sign = %d", z.Sign())
	}
	if got := z.Add(RatFromInt(3)); !got.Equal(RatFromInt(3)) {
		t.Fatalf("0 + 3 = %v", got)
	}
}

func TestRatComparisons(t *testing.T) {
	a, b := NewRat(2, 3), NewRat(3, 4)
	if !a.Less(b) || a.Greater(b) || a.Equal(b) {
		t.Fatal("2/3 vs 3/4 comparison wrong")
	}
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp wrong")
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	NewRat(1, 2).Div(Rat{})
}

func TestNewRatZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRat(1,0) did not panic")
		}
	}()
	NewRat(1, 0)
}

func TestRatFromFloatExact(t *testing.T) {
	if got := RatFromFloat(0.5); !got.Equal(NewRat(1, 2)) {
		t.Fatalf("RatFromFloat(0.5) = %v", got)
	}
	if got := RatFromFloat(0.1).Float64(); got != 0.1 {
		t.Fatalf("round trip of 0.1 = %v", got)
	}
}

func TestRatFromFloatPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RatFromFloat(NaN) did not panic")
		}
	}()
	RatFromFloat(math.NaN())
}

func TestRatImmutability(t *testing.T) {
	a := NewRat(1, 2)
	_ = a.Add(NewRat(1, 2))
	if !a.Equal(NewRat(1, 2)) {
		t.Fatal("Add mutated its receiver")
	}
}

func TestSumRats(t *testing.T) {
	rs := []Rat{NewRat(1, 2), NewRat(1, 3), NewRat(1, 6)}
	if got := SumRats(rs); !got.Equal(RatFromInt(1)) {
		t.Fatalf("sum = %v", got)
	}
	if got := SumRats(nil); got.Sign() != 0 {
		t.Fatalf("empty sum = %v", got)
	}
}

func TestRatArithmeticAgreesWithFloatProperty(t *testing.T) {
	f := func(a, b int16, q1, q2 uint8) bool {
		d1, d2 := int64(q1)+1, int64(q2)+1
		ra := NewRat(int64(a), d1)
		rb := NewRat(int64(b), d2)
		sum := ra.Add(rb).Float64()
		want := float64(a)/float64(d1) + float64(b)/float64(d2)
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatString(t *testing.T) {
	if got := NewRat(3, 6).String(); got != "1/2" {
		t.Fatalf("String = %q", got)
	}
	if got := RatFromInt(4).String(); got != "4" {
		t.Fatalf("String = %q", got)
	}
}

// refScale is the comparators' original scale, built on math.Max.
func refScale(a, b float64) float64 {
	s := math.Max(math.Abs(a), math.Abs(b))
	if s < 1 {
		return 1
	}
	return s
}

// sameDecisions reports whether Less, Greater and Equal answer as they do
// with refScale, and describes the first difference.
func sameDecisions(a, b, eps float64) (bool, string) {
	s := refScale(a, b)
	want := [3]bool{b-a > eps*s, a-b > eps*s, math.Abs(a-b) <= eps*s}
	got := [3]bool{Less(a, b, eps), Greater(a, b, eps), Equal(a, b, eps)}
	if got != want {
		return false, fmt.Sprintf("(a=%v, b=%v, eps=%v): Less/Greater/Equal = %v, math.Max reference %v", a, b, eps, got, want)
	}
	return true, ""
}

// TestComparatorsMatchMathMax: scale picks the larger magnitude with one
// compare, not math.Max. Every decision must stay the same, special values
// included.
func TestComparatorsMatchMathMax(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	minNormal := 0x1p-1022
	values := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		sub, -sub, 3 * sub, math.Nextafter(minNormal, 0), minNormal, -minNormal,
		1, -1, math.Nextafter(1, 2), math.Nextafter(1, 0), -math.Nextafter(1, 2),
		1 + Eps, 1 - Eps, 0.5, 2, 1e-15, 2e-15, 1e12, 1e12 + 1,
		math.MaxFloat64, -math.MaxFloat64,
	}
	epss := []float64{0, Eps, 1e-3, 1, math.Inf(1), math.NaN(), sub}
	for _, a := range values {
		for _, b := range values {
			for _, eps := range epss {
				if ok, msg := sameDecisions(a, b, eps); !ok {
					t.Error(msg)
				}
			}
		}
	}
	bits := func(a, b uint64, e uint8) bool {
		ok, msg := sameDecisions(math.Float64frombits(a), math.Float64frombits(b), epss[int(e)%len(epss)])
		if !ok {
			t.Log(msg)
		}
		return ok
	}
	if err := quick.Check(bits, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	floats := func(a, b float64) bool {
		ok, msg := sameDecisions(a, b, Eps)
		if !ok {
			t.Log(msg)
		}
		return ok
	}
	if err := quick.Check(floats, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
