package main

import (
	"math"
	"slices"
	"sort"
)

// tailLadder lists the percentiles a tail latency may be reported at, from
// the highest down.
var tailLadder = []float64{99.9, 99, 95, 90}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, and false when none has (fewer than 100
// samples).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerance: 100-99.9 is not exact
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// windowPercentiles splits xs, in time order, into n contiguous windows and
// returns each window's p-th percentile.
func windowPercentiles(xs []float64, p float64, n int) []float64 {
	per := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		per = append(per, percentile(xs[w*len(xs)/n:(w+1)*len(xs)/n], p))
	}
	return per
}

// windowedPercentile is the median of the windows' p-th percentiles, so
// that one burst of slow operations moves at most one window.
func windowedPercentile(xs []float64, p float64, n int) float64 {
	return median(windowPercentiles(xs, p, n))
}

// bestWindowPercentile is the lowest of the windows' p-th percentiles: the
// window the host disturbed least. Host contention only ever adds latency,
// so the lowest window is the estimate it moves least, while a change to the
// program moves every window.
func bestWindowPercentile(xs []float64, p float64, n int) float64 {
	return slices.Min(windowPercentiles(xs, p, n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredWithin returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals count once, and parts outside [lo, hi) not at all.
func coveredWithin(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover:
// interval-union subtraction, so parallel children count once.
func selfTime(lo, hi int64, children []interval) int64 {
	return hi - lo - coveredWithin(lo, hi, children)
}

// layered is an interval tagged with the layer it belongs to and its depth
// in the span tree (the root is depth 0).
type layered struct {
	interval
	layer string
	depth int
}

// attribute splits the root interval [lo, hi) among layers: each instant
// goes to the layer of the deepest span active at that instant, and instants
// no span covers go to rootLayer. The shares sum to hi-lo.
func attribute(lo, hi int64, rootLayer string, spans []layered) map[string]int64 {
	type event struct {
		at    int64
		delta int
		idx   int
	}
	var evs []event
	for i, s := range spans {
		a, b := max(s.lo, lo), min(s.hi, hi)
		if a < b {
			evs = append(evs, event{a, +1, i}, event{b, -1, i})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta // close before open at the same instant
	})
	out := map[string]int64{}
	active := map[int]bool{}
	cur := lo
	deepest := func() string {
		best, layer := -1, rootLayer
		for i := range active {
			if d := spans[i].depth; d > best || (d == best && spans[i].layer < layer) {
				best, layer = d, spans[i].layer
			}
		}
		return layer
	}
	for _, e := range evs {
		if e.at > cur {
			out[deepest()] += e.at - cur
			cur = e.at
		}
		if e.delta > 0 {
			active[e.idx] = true
		} else {
			delete(active, e.idx)
		}
	}
	if hi > cur {
		out[deepest()] += hi - cur
	}
	return out
}
