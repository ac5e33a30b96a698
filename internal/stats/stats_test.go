package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	if got := Percentile(xs, 95); math.Abs(got-9.5) > 1e-12 {
		t.Errorf("p95 = %v, want 9.5", got)
	}
}

func TestPercentileEdge(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2.138089935) > 1e-6 {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev([]float64{1})) {
		t.Error("degenerate samples should give NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Min/Max should be NaN")
	}
}

func TestBoxPlot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b, err := NewBoxPlot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 9 {
		t.Errorf("BoxPlot = %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles = %v/%v, want 3/7", b.Q1, b.Q3)
	}
	if _, err := NewBoxPlot(nil); err != ErrEmpty {
		t.Errorf("empty BoxPlot error = %v", err)
	}
	if s := b.String(); len(s) == 0 {
		t.Error("String should be non-empty")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); got != tc.want {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	if !math.IsNaN(NewCDF(nil).P(1)) {
		t.Error("empty CDF P should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.N != 8 {
		t.Errorf("N = %d", h.N)
	}
	if h.OutLow != 1 || h.OutHigh != 2 {
		t.Errorf("out of range = %d/%d", h.OutLow, h.OutHigh)
	}
	// bins: [0,2) has {0, 1.9}; [2,4) has {2}; [4,6) has {5}; [8,10) has {9.99}
	want := []int{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if got := h.Fraction(0); got != 0.25 {
		t.Errorf("Fraction(0) = %v", got)
	}
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("BinCenter(0) = %v", got)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(5, 5, 0) // invalid params are repaired
	h.Add(5)
	if h.N != 1 || len(h.Counts) != 1 {
		t.Errorf("degenerate histogram: %+v", h)
	}
	if (&Histogram{Counts: make([]int, 1)}).Fraction(0) != 0 {
		t.Error("empty histogram Fraction should be 0")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("Welford mean %v != batch %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.StdDev()-StdDev(xs)) > 1e-9 {
		t.Errorf("Welford stddev %v != batch %v", w.StdDev(), StdDev(xs))
	}
	if w.Min() != Min(xs) || w.Max() != Max(xs) {
		t.Error("Welford min/max mismatch")
	}
	if w.N() != 1000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Var()) || !math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) {
		t.Error("empty Welford should return NaN")
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 10) // 10 for t in [0,5)
	tw.Observe(5, 20) // 20 for t in [5,10)
	got := tw.Finish(10)
	if got != 15 {
		t.Errorf("time-weighted mean = %v, want 15", got)
	}
	if tw.Area() != 150 {
		t.Errorf("area = %v, want 150", tw.Area())
	}
	if tw.Duration() != 10 {
		t.Errorf("duration = %v, want 10", tw.Duration())
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if !math.IsNaN(tw.Mean()) {
		t.Error("no observations should give NaN")
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.9, 0.95}
	if got := FractionAbove(xs, 0.5); got != 0.5 {
		t.Errorf("FractionAbove = %v", got)
	}
	if got := FractionAbove(xs, 1); got != 0 {
		t.Errorf("FractionAbove(1) = %v", got)
	}
	if !math.IsNaN(FractionAbove(nil, 0)) {
		t.Error("empty should give NaN")
	}
}

func TestAreaAbove(t *testing.T) {
	xs := []float64{0.2, 0.6, 1.0}
	// excesses over 0.5: 0, 0.1, 0.5 -> mean 0.2
	if got := AreaAbove(xs, 0.5); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("AreaAbove = %v", got)
	}
	if !math.IsNaN(AreaAbove(nil, 0)) {
		t.Error("empty should give NaN")
	}
}

// Property: for any sample, percentiles are monotone in p and bounded by
// min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(xs, pa), Percentile(xs, pb)
		return va <= vb+1e-9 && va >= Min(xs)-1e-9 && vb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CDF.P is monotone non-decreasing.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64, x, y float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		c := NewCDF(xs)
		return c.P(x) <= c.P(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BoxPlot ordering min <= q1 <= median <= q3 <= max.
func TestQuickBoxPlotOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := NewBoxPlot(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileSortedAgainstSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sort.Float64s(xs)
	// p50 of a sorted odd-length sample is the middle element.
	if got := PercentileSorted(xs, 50); got != xs[128] {
		t.Errorf("median = %v, want %v", got, xs[128])
	}
}

// sortedPercentile is the sort-based oracle PercentileInPlace must
// match bit for bit.
func sortedPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

// TestPercentileInPlaceMatchesSort is the selection's property test:
// over random samples drawn from a small palette (so ties are common),
// with NaNs and infinities mixed in, the selected percentile equals the
// sort-based one bit for bit at every p, including the p <= 0 and
// p >= 100 clamps, and the sample keeps its multiset of values. Zero is
// drawn only as +0: sort.Float64s treats -0 and +0 as equal and leaves
// their relative order unspecified, so no oracle fixes which one a
// rank holds.
func TestPercentileInPlaceMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	palette := []float64{0, 1, 2.5, 37.2, 100, math.Inf(1), math.Inf(-1), math.NaN()}
	ps := []float64{-1, 0, 1, 5, 25, 50, 75, 95, 99, 100, 120}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(300)
		if trial%4 == 0 {
			n = 1 + rng.Intn(6)
		}
		xs := make([]float64, n)
		distinct := 1 + rng.Intn(12)
		for i := range xs {
			switch k := rng.Intn(distinct + 2); {
			case k < len(palette) && trial%3 != 0:
				xs[i] = palette[k]
			case trial%5 == 0:
				xs[i] = float64(rng.Intn(distinct))
			default:
				xs[i] = rng.Float64() * 100
			}
		}
		p := ps[rng.Intn(len(ps))]
		if trial%2 == 0 {
			p = rng.Float64() * 100
		}
		want := sortedPercentile(xs, p)
		work := append([]float64(nil), xs...)
		got := PercentileInPlace(work, p)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: PercentileInPlace(n=%d, p=%v) = %v, sort gives %v\nsample %v", trial, n, p, got, want, xs)
		}
		if got := Percentile(xs, p); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: Percentile = %v, sort gives %v", trial, got, want)
		}
		a, b := append([]float64(nil), xs...), work
		sort.Float64s(a)
		sort.Float64s(b)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				t.Fatalf("trial %d: selection changed the sample's values", trial)
			}
		}
	}
}

// TestPercentileInPlaceAdversarial covers the inputs a naive quickselect
// degrades on — sorted, reversed, all-equal and organ-pipe samples —
// against the sort oracle.
func TestPercentileInPlaceAdversarial(t *testing.T) {
	const n = 1025
	shapes := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"constant":   func(int) float64 { return 42 },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
		"sawtooth":   func(i int) float64 { return float64(i % 17) },
	}
	for name, f := range shapes {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		for _, p := range []float64{0, 50, 95, 99.9, 100} {
			want := sortedPercentile(xs, p)
			if got := PercentileInPlace(append([]float64(nil), xs...), p); got != want {
				t.Errorf("%s p%v: got %v, want %v", name, p, got, want)
			}
		}
	}
}

func TestPercentileInPlaceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 864)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	if a := testing.AllocsPerRun(100, func() { PercentileInPlace(xs, 95) }); a != 0 {
		t.Errorf("PercentileInPlace allocates %v per call", a)
	}
}

// BenchmarkPercentile95 compares the copying sort oracle with in-place
// selection on one 3-day utilisation series (864 five-minute samples).
func BenchmarkPercentile95(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 864)
	for i := range src {
		src[i] = math.Round(rng.Float64() * 100)
	}
	work := make([]float64, len(src))
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sortedPercentile(src, 95)
		}
	})
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, src)
			PercentileInPlace(work, 95)
		}
	})
}
