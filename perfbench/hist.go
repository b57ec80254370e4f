package main

import (
	"math/bits"
	"sync/atomic"
)

// subBits sets the histogram's resolution: values below 2^subBits ns are
// counted exactly, larger ones in 2^subBits buckets per power of two,
// each under 0.4 % wide.
const subBits = 8

// histBuckets covers values up to 2^40 ns, far past any call timeout.
const histBuckets = (40 - subBits + 1) << subBits

// hist is a log-linear latency histogram that callers on several
// goroutines add to, so a window's latencies need memory independent of
// the call rate.
type hist struct {
	n      atomic.Int64
	counts [histBuckets]atomic.Uint32
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return min((e+1)<<subBits+int(v>>e)-1<<subBits, histBuckets-1)
}

// bucketLow is the smallest value in bucket b; bucketLow(b+1) bounds it
// above.
func bucketLow(b int) int64 {
	if b < 1<<subBits {
		return int64(b)
	}
	e := b>>subBits - 1
	return int64(b&(1<<subBits-1)+1<<subBits) << e
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
}

// quantile returns the q-quantile in ns, interpolating by rank inside
// the bucket that holds it. An empty histogram gives 0.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var seen int64
	for b := range h.counts {
		c := int64(h.counts[b].Load())
		if c == 0 || float64(seen+c) <= rank {
			seen += c
			continue
		}
		lo, hi := bucketLow(b), bucketLow(b+1)
		frac := (rank - float64(seen) + 0.5) / float64(c)
		return float64(lo) + min(frac, 1)*float64(hi-lo)
	}
	return float64(bucketLow(histBuckets - 1))
}
