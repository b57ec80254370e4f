package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// callTimes is a plain copy of one call's stamps.
type callTimes struct {
	id                                                        uint32
	entry, cwStart, srEnd, hEntry, hExit, swStart, crEnd, ret int64
	busy                                                      int64
	reqXID, repXID                                            uint32
}

// boundary names one stamp of callTimes.
type boundary int

const (
	bEntry boundary = iota
	bCWStart
	bSREnd
	bHEntry
	bHExit
	bSWStart
	bCREnd
	bRet
)

func (c *callTimes) at(b boundary) int64 {
	return [...]int64{c.entry, c.cwStart, c.srEnd, c.hEntry, c.hExit, c.swStart, c.crEnd, c.ret}[b]
}

// segment is a child span of the call span: the time between two
// consecutive boundaries on the call's path.
type segment struct {
	name     string
	from, to boundary
}

// The call path on each transport, as contiguous segments from CallTyped
// entry to return. On UDP the server socket is not wrapped, so the
// request and reply each cross the kernel, batchio and the worker queue
// in one segment.
var (
	tcpPath = []segment{
		{"client.send", bEntry, bCWStart},
		{"xdr.req_transit", bCWStart, bSREnd},
		{"server.dispatch", bSREnd, bHEntry},
		{"server.handler", bHEntry, bHExit},
		{"server.reply", bHExit, bSWStart},
		{"xdr.reply_transit", bSWStart, bCREnd},
		{"client.wake", bCREnd, bRet},
	}
	udpPath = []segment{
		{"client.send", bEntry, bCWStart},
		{"server.dgram_in", bCWStart, bHEntry},
		{"server.handler", bHEntry, bHExit},
		{"server.dgram_out", bHExit, bCREnd},
		{"client.wake", bCREnd, bRet},
	}
)

// ledger is the per-layer breakdown of the traced calls of one window.
type ledger struct {
	path     []segment
	inWindow int         // calls that entered CallTyped inside the window
	complete []callTimes // those with every boundary stamped, in order
	xidSkew  int         // complete calls whose reply XID differs from the request's
	seg      [][]int64   // per segment, its duration on each complete call
	call     []int64     // call span durations of complete calls
	self     []int64     // client self time: call minus the union of its children
	busy     []int64     // time inside writes attributed to the call
}

// buildLedger collects the calls whose entry lies in [ws, we) and splits
// each into its path's segments.
func buildLedger(tr *tracer, path []segment, ws, we int64) *ledger {
	l := &ledger{path: path, seg: make([][]int64, len(path))}
	for i := range tr.calls {
		s := &tr.calls[i]
		c := callTimes{
			id: uint32(i), entry: s.entry.Load(), cwStart: s.cwStart.Load(), srEnd: s.srEnd.Load(),
			hEntry: s.hEntry.Load(), hExit: s.hExit.Load(), swStart: s.swStart.Load(),
			crEnd: s.crEnd.Load(), ret: s.ret.Load(), busy: s.busy.Load(),
			reqXID: s.reqXID.Load(), repXID: s.repXID.Load(),
		}
		if c.entry < ws || c.entry >= we || c.entry == 0 {
			continue
		}
		l.inWindow++
		ok := c.ret != 0
		for _, sg := range path {
			if c.at(sg.from) == 0 || c.at(sg.to) == 0 || c.at(sg.to) < c.at(sg.from) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		l.complete = append(l.complete, c)
		if c.reqXID != c.repXID {
			l.xidSkew++
		}
		var children int64
		for k, sg := range path {
			d := c.at(sg.to) - c.at(sg.from)
			l.seg[k] = append(l.seg[k], d)
			if sg.name != "client.send" && sg.name != "client.wake" {
				children += d
			}
		}
		// The children are contiguous from the request write to the
		// reply read, so their union is their sum.
		l.call = append(l.call, c.ret-c.entry)
		l.self = append(l.self, c.ret-c.entry-children)
		l.busy = append(l.busy, c.busy)
	}
	return l
}

// coverage is the share of the window's calls whose spans account for
// their whole duration.
func (l *ledger) coverage() float64 {
	if l.inWindow == 0 {
		return 0
	}
	return float64(len(l.complete)) / float64(l.inWindow)
}

// segment returns the durations of the named segment, or nil when the
// path has none.
func (l *ledger) segment(name string) []int64 {
	for k, sg := range l.path {
		if sg.name == name {
			return l.seg[k]
		}
	}
	return nil
}

// tail looks at the calls at or above the call span's p999 and reports,
// per segment, its share of their summed time and how many of them it
// is the longest segment of.
func (l *ledger) tail() (cut int64, share []float64, longest []int) {
	share, longest = make([]float64, len(l.path)), make([]int, len(l.path))
	if len(l.call) == 0 {
		return 0, share, longest
	}
	cut = int64(quantile(l.call, 0.999))
	var total int64
	for i := range l.complete {
		c := &l.complete[i]
		d := c.ret - c.entry
		if d < cut {
			continue
		}
		total += d
		best, bestD := 0, int64(-1)
		for k, sg := range l.path {
			sd := c.at(sg.to) - c.at(sg.from)
			share[k] += float64(sd)
			if sd > bestD {
				best, bestD = k, sd
			}
		}
		longest[best]++
	}
	for k := range share {
		share[k] /= float64(total)
	}
	return cut, share, longest
}

// print writes the ledger as a table: each span's p50/p99/p999 and its
// share of the mean call.
func (l *ledger) print(w io.Writer) {
	var callSum int64
	for _, d := range l.call {
		callSum += d
	}
	fmt.Fprintf(w, "ledger: %d traced calls in window, %d with complete spans (coverage %.4f), %d with reply XID != request XID\n",
		l.inWindow, len(l.complete), l.coverage(), l.xidSkew)
	fmt.Fprintf(w, "  %-20s %-7s %10s %10s %10s %8s\n", "span", "parent", "p50_us", "p99_us", "p999_us", "share")
	row := func(name, parent string, v []int64) {
		var sum int64
		for _, d := range v {
			sum += d
		}
		share := 0.0
		if callSum > 0 {
			share = float64(sum) / float64(callSum)
		}
		fmt.Fprintf(w, "  %-20s %-7s %10.2f %10.2f %10.2f %8.4f\n", name, parent,
			quantile(v, 0.50)/1e3, quantile(v, 0.99)/1e3, quantile(v, 0.999)/1e3, share)
	}
	row("call", "-", l.call)
	for k, sg := range l.path {
		row(sg.name, "call", l.seg[k])
	}
	row("client.self", "call", l.self)
	row("xdr.write_busy", "call", l.busy)
	cut, share, longest := l.tail()
	n := 0
	for _, c := range longest {
		n += c
	}
	fmt.Fprintf(w, "tail: the %d calls at or above the call p999 (%.2f us), per span: share of their time / calls it is the longest span of\n", n, float64(cut)/1e3)
	for k, sg := range l.path {
		fmt.Fprintf(w, "  %-20s %6.1f%% %6d\n", sg.name, 100*share[k], longest[k])
	}
}

// writeSpans writes every complete call's spans as tab-separated
// name, call id, parent, start and end (ns since the tracer's base).
func (l *ledger) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name\tcall\tparent\tstart_ns\tend_ns")
	for _, c := range l.complete {
		fmt.Fprintf(bw, "call\t%d\t-\t%d\t%d\n", c.id, c.entry, c.ret)
		for _, sg := range l.path {
			fmt.Fprintf(bw, "%s\t%d\tcall\t%d\t%d\n", sg.name, c.id, c.at(sg.from), c.at(sg.to))
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// quantile returns the q-quantile of v in v's units, interpolating
// between order statistics. v is sorted in place, so per-call alignment
// between slices is read from ledger.complete, never from sorted
// slices. Empty v gives 0.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] }) {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i >= len(v)-1 {
		return float64(v[len(v)-1])
	}
	frac := pos - float64(i)
	return float64(v[i]) + frac*float64(v[i+1]-v[i])
}
