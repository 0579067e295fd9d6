package main

import "testing"

func TestThroughput(t *testing.T) {
	for _, c := range []struct {
		done []float64
		want float64
	}{
		{[]float64{2}, 0.5},
		{[]float64{5, 1, 3, 2, 4}, 1},    // order-free; one op per segment
		{[]float64{1, 2, 10, 11, 12}, 1}, // one stalled segment does not move it
		// Twenty completions, two per segment: the segment ending at 4
		// took 2 s, the others 1 s.
		{[]float64{0.5, 1, 1.5, 2, 3, 4, 4.5, 5, 5.5, 6, 6.5, 7, 7.5, 8, 8.5, 9, 9.5, 10, 10.5, 11}, 2},
	} {
		if got := throughput(c.done); got != c.want {
			t.Errorf("throughput(%v) = %v, want %v", c.done, got, c.want)
		}
	}
}
