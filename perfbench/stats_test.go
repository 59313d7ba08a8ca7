package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	if got := beyond(xs, 0.99); got != 1 {
		t.Errorf("beyond p99 of 100 samples = %d, want 1", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestFailuresSortLast(t *testing.T) {
	xs := []float64{1, 2, failedLatency, 3}
	if got := quantile(xs, 0.75); got != 3 {
		t.Errorf("p75 = %v, want 3", got)
	}
	if got := quantile(xs, 1); !math.IsInf(got, 1) {
		t.Errorf("max = %v, want +Inf", got)
	}
	if got := finite(quantile(xs, 1)); got != 1e9 {
		t.Errorf("finite(+Inf) = %v, want the 1e9 sentinel", got)
	}
}

// TestLagOnSyntheticSchedule checks the open-loop accounting on a
// schedule of 100 requests due every 10 ms over one second.
func TestLagOnSyntheticSchedule(t *testing.T) {
	const n = 100
	due := make([]time.Duration, n)
	onTime := make([]time.Duration, n)
	late := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
		onTime[i] = due[i] + time.Millisecond // one timer tick late
		late[i] = due[i] + time.Millisecond
	}
	late[n-1] = due[n-1] + 40*time.Millisecond // one stall at the end
	s := summarizeLag(due, onTime, time.Second)
	if s.P50MS != 1 || s.P99MS != 1 || s.Behind {
		t.Errorf("on-time schedule: %+v, want p50 = p99 = 1 ms, not behind", s)
	}
	if s.OfferedPerS != n || s.AchievedPerS != n {
		t.Errorf("rates %v/%v, want %d/%d", s.OfferedPerS, s.AchievedPerS, n, n)
	}
	s = summarizeLag(due, late, time.Second)
	if s.MaxMS != 40 || s.P99MS != 1 || s.Behind {
		t.Errorf("one stall: %+v, want max 40 ms, p99 1 ms, not behind", s)
	}
	// A generator that ran at half speed: every release twice its due.
	slow := make([]time.Duration, n)
	for i := range slow {
		slow[i] = 2 * due[i]
	}
	if s = summarizeLag(due, slow, time.Second); !s.Behind || s.AchievedPerS > 0.6*s.OfferedPerS {
		t.Errorf("half-speed generator: %+v, want flagged behind at about half the offered rate", s)
	}
}

func TestPoissonDuesRateAndDeterminism(t *testing.T) {
	a := poissonDues(rand.New(rand.NewSource(7)), 200, 10*time.Second)
	b := poissonDues(rand.New(rand.NewSource(7)), 200, 10*time.Second)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("the same seed drew different schedules")
	}
	if len(a) != 2000 {
		t.Errorf("%d arrivals in 10 s at 200/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("due %d out of order or outside the window: %v", i, a[i])
		}
	}
}

// TestWindowedP99IgnoresOneBurst: a burst confined to one of the five
// sub-windows moves that window's p99 only.
func TestWindowedP99IgnoresOneBurst(t *testing.T) {
	const n = 1000
	m := &e2e{Ops: map[string][]op{}, Results: map[string][]result{}, Lat: map[string][]float64{}}
	for i := 0; i < n; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		lat := 2.0
		if i%50 == 0 {
			lat = 5 // the tail of every sub-window
		}
		if i >= 100 && i < 150 {
			lat = 500 // a burst inside the first sub-window
		}
		m.Ops["relate"] = append(m.Ops["relate"], op{Due: due})
		m.Results["relate"] = append(m.Results["relate"], result{})
		m.Lat["relate"] = append(m.Lat["relate"], lat)
	}
	if got := windowedP99(m, 10*time.Second); got != 5 {
		t.Errorf("windowed p99 = %v, want 5", got)
	}
	if got := quantile(m.Lat["relate"], 0.99); got != 500 {
		t.Errorf("plain p99 = %v, want the burst's 500", got)
	}
}

// TestKindMean: the latency figure is the geometric mean of each
// kind's quantile, so a kind that slows down moves it by the same
// factor whatever the other kinds' scale.
func TestKindMean(t *testing.T) {
	kind := func(scale float64) []float64 {
		var l []float64
		for i := 1; i <= 100; i++ {
			l = append(l, scale*float64(i))
		}
		return l
	}
	base := map[string][]float64{"fast": kind(0.1), "slow": kind(10)}
	if got := kindMean(base, 0.1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("kind mean %v, want 10 (geometric mean of 1 and 100)", got)
	}
	slowed := map[string][]float64{"fast": kind(0.4), "slow": kind(10)}
	if got := kindMean(slowed, 0.1); math.Abs(got-20) > 1e-9 {
		t.Errorf("fast kind 4x slower: kind mean %v, want 20", got)
	}
}
