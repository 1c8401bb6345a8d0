package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAddAndRate(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(500*time.Millisecond, 1e9)
	s.Add(700*time.Millisecond, 1e9)
	s.Add(1500*time.Millisecond, 4e9)
	if got := s.Rate(0); got != 2e9 {
		t.Fatalf("rate(0) = %g", got)
	}
	if got := s.Rate(1); got != 4e9 {
		t.Fatalf("rate(1) = %g", got)
	}
	if got := s.Rate(5); got != 0 {
		t.Fatalf("rate past end = %g", got)
	}
	if got := s.TotalBytes(); got != 6e9 {
		t.Fatalf("total = %g", got)
	}
}

func TestAddSpreadSplitsAcrossBins(t *testing.T) {
	s := NewSeries(time.Second)
	// 4 GB over [0.5s, 2.5s): 0.5/2 in bin0, 1/2 in bin1, 0.5/2 in bin2.
	s.AddSpread(500*time.Millisecond, 2500*time.Millisecond, 4e9)
	if math.Abs(s.Rate(0)-1e9) > 1 || math.Abs(s.Rate(1)-2e9) > 1 || math.Abs(s.Rate(2)-1e9) > 1 {
		t.Fatalf("spread rates = %v", s.Rates())
	}
	// Total mass preserved.
	if math.Abs(s.TotalBytes()-4e9) > 1 {
		t.Fatalf("total = %g", s.TotalBytes())
	}
}

func TestAddSpreadDegenerateInterval(t *testing.T) {
	s := NewSeries(time.Second)
	s.AddSpread(time.Second, time.Second, 5)
	if s.TotalBytes() != 5 {
		t.Fatalf("degenerate spread lost bytes: %g", s.TotalBytes())
	}
}

// Property: AddSpread conserves byte mass for arbitrary intervals.
func TestAddSpreadConservesMassProperty(t *testing.T) {
	f := func(a, b uint16, n uint32) bool {
		t0 := time.Duration(a) * time.Millisecond
		t1 := time.Duration(b) * time.Millisecond
		if t1 < t0 {
			t0, t1 = t1, t0
		}
		bytes := int64(n%1000000) + 1
		s := NewSeries(100 * time.Millisecond)
		s.AddSpread(t0, t1, bytes)
		return math.Abs(s.TotalBytes()-float64(bytes)) < 1e-6*float64(bytes)+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianMeanStddev(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if Median(xs) != 3 {
		t.Fatalf("median = %g", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if Median(nil) != 0 || Mean(nil) != 0 || Stddev(nil) != 0 {
		t.Fatal("empty inputs should give 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("mean")
	}
	sd := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(sd-2) > 1e-12 {
		t.Fatalf("stddev = %g, want 2", sd)
	}
}

func TestRatesBetween(t *testing.T) {
	s := NewSeries(time.Second)
	for i := 0; i < 5; i++ {
		s.Add(time.Duration(i)*time.Second+time.Millisecond, int64(i)*1000)
	}
	got := s.RatesBetween(time.Second, 4*time.Second)
	if len(got) != 3 || got[0] != 1000 || got[2] != 3000 {
		t.Fatalf("rates between = %v", got)
	}
}
