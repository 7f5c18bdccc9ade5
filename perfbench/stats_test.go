package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", c.n, got)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 90: 4.6} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 40}, {20, 50}}, 60},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside the parent", []interval{{200, 300}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"covers all", []interval{{0, 100}, {0, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAttributeGivesEachInstantToTheDeepestLayer(t *testing.T) {
	// root [0,100): a transport call [10,60) whose handler runs [20,50),
	// and a second, parallel transport call [40,80).
	spans := []layered{
		{interval{10, 60}, layerTransport, 1},
		{interval{20, 50}, layerNode, 2},
		{interval{40, 80}, layerTransport, 1},
	}
	got := attribute(0, 100, layerCore, spans)
	want := map[string]int64{layerCore: 30, layerTransport: 40, layerNode: 30}
	var sum int64
	for l, ns := range got {
		sum += ns
		if ns != want[l] {
			t.Errorf("%s: %d, want %d", l, ns, want[l])
		}
	}
	if sum != 100 {
		t.Errorf("shares sum to %d, want the root's 100", sum)
	}
}

func TestWindowedPercentileIgnoresOneBurst(t *testing.T) {
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			xs = append(xs, float64(10+i%10))
		}
	}
	for i := 100; i < 130; i++ {
		xs[i] = 500 // a burst inside the second window
	}
	if got := windowedPercentile(xs, 95, 3); got > 20 {
		t.Errorf("windowed p95 = %v, want the burst-free windows' value (<= 20)", got)
	}
	if got := percentile(xs, 95); got < 500 {
		t.Errorf("plain p95 = %v; the burst should dominate it", got)
	}
}

func TestBestWindowPercentileIgnoresALongSlowStretch(t *testing.T) {
	var xs []float64
	for w := 0; w < 10; w++ {
		slow := 0.0
		if w >= 3 { // the host slows down for most of the run
			slow = 10
		}
		for i := 0; i < 100; i++ {
			xs = append(xs, float64(10+i%10)+slow)
		}
	}
	if got := bestWindowPercentile(xs, 90, 10); got > 20 {
		t.Errorf("best-window p90 = %v, want an undisturbed window's value (<= 20)", got)
	}
	if got := windowedPercentile(xs, 90, 10); got < 20 {
		t.Errorf("median-window p90 = %v; the slow stretch should dominate it", got)
	}
}
