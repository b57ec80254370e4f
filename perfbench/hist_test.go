package main

import "testing"

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 100) // 100 ns .. 10 ms, uniform
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 1e7
		if got := h.quantile(q); got < want*0.995 || got > want*1.005 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 0.5%%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 255, 256, 511, 512, 1 << 20, 1<<40 - 1} {
		b := bucketOf(v)
		if lo, hi := bucketLow(b), bucketLow(b+1); v < lo || v >= hi {
			t.Errorf("bucketOf(%d) = %d covers [%d, %d)", v, b, lo, hi)
		}
	}
}
