package main

import "sort"

// best3 is the mean of the three smallest values: the timing estimator.
// On a shared host contention only ever adds time, so a low-order
// statistic estimates the uncontended machine, while a median follows
// whatever the neighbours were doing (README, "Noise"). Three values
// rather than the single minimum so one lucky sample does not set the
// number. Fewer than three values are averaged as they are.
func best3(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if len(s) > 3 {
		s = s[:3]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// floorSum is the estimator for the wall of an in-process pass. Each
// row is one pass over the same input cut at the same places: the
// durations of its stages and of the slices of its mapping stage, in
// order. The result is the sum, over the parts, of each part's smallest
// duration in any pass: the wall of a pass none of whose parts was
// slowed down. Contention on a shared host comes in bursts shorter
// than a pass but longer than a part, so in a window of twenty passes
// every part has met a quiet moment even when no whole pass has
// (README, "Noise"). Rows of unequal length have no common parts; the
// result is then 0.
func floorSum(rows [][]float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for j := range rows[0] {
		low := rows[0][j]
		for _, r := range rows[1:] {
			if len(r) != len(rows[0]) {
				return 0
			}
			if r[j] < low {
				low = r[j]
			}
		}
		sum += low
	}
	return sum
}

// median is the estimator for sizes and counts (peak RSS, mapped
// fraction, F1), which contention does not bias in one direction.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// rotation is the order in which round number round visits n workloads:
// round-robin with the starting point advanced every round, so that no
// workload always runs first (cold) or always follows the same
// neighbour, and each workload's samples span the whole run.
func rotation(n, round int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (round + i) % n
	}
	return order
}

// series summarises one metric's samples for the report table.
type series struct {
	N                       int
	Min, Best3, Median, Max float64
}

func summarise(v []float64) series {
	if len(v) == 0 {
		return series{}
	}
	s := sorted(v)
	return series{N: len(s), Min: s[0], Best3: best3(s), Median: median(s), Max: s[len(s)-1]}
}
