package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"specrpc/perfbench/echorpc"
)

// counters are the program's own counters, snapshotted at the edges of
// the untraced window.
type counters struct {
	mem                                    runtime.MemStats
	dgReads, dgReadMsgs, dgWrites, dgWMsgs uint64
	queueDrops, cacheHits                  uint64
	retransmits, retries, reconnects       uint64
}

func snapCounters(r *rig, c *counters) {
	runtime.ReadMemStats(&c.mem)
	c.dgReads, c.dgReadMsgs, c.dgWrites, c.dgWMsgs = r.srv.DatagramIOStats()
	c.queueDrops, c.cacheHits = r.srv.QueueDrops(), r.srv.CacheHits()
	c.retransmits, c.retries, c.reconnects = r.retryCounts()
}

// ioSnap is a copy of a tracer's socket counters.
type ioSnap struct{ cr, cw, sr, sw, recs int64 }

func snapIO(tr *tracer) ioSnap {
	return ioSnap{
		cr: tr.client.reads.Load(), cw: tr.client.writes.Load(),
		sr: tr.server.reads.Load(), sw: tr.server.writes.Load(),
		recs: tr.client.records.Load() + tr.server.records.Load(),
	}
}

// runTraced measures half of dur untraced, for the reference rate and the
// program's own counters, then half traced, for the span ledger and the
// socket counts, then times the codec entry points.
func runTraced(o options, w workload, pools [][]echorpc.Echoarr, dur time.Duration, out io.Writer) (result, error) {
	half := dur / 2

	r, err := buildRig(w, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var k0, k1 counters
	lr1 := runLoop(r, w, pools, nil, o.warm, half, 1, windowHooks{
		open:  func() { snapCounters(r, &k0) },
		close: func() { snapCounters(r, &k1) },
	})
	r.close()
	if lr1.calls == 0 {
		return result{}, fmt.Errorf("no untraced call completed in the window (first error: %v)", lr1.firstErr)
	}
	rate1 := float64(lr1.calls) / lr1.seconds()

	// Room for every call of the traced warm-up and window at up to twice
	// the untraced rate, since the host's speed drifts between the halves;
	// calls past the table are counted as overflow and fail the run.
	tr := newTracer(int(rate1*(o.warm+half).Seconds()*2) + 4096)
	r, err = buildRig(w, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	var io0, io1 ioSnap
	lr2 := runLoop(r, w, pools, tr, o.warm, half, 1, windowHooks{
		open:  func() { io0 = snapIO(tr) },
		close: func() { io1 = snapIO(tr) },
	})
	r.close()
	if lr2.calls == 0 {
		return result{}, fmt.Errorf("no traced call completed in the window (first error: %v)", lr2.firstErr)
	}
	rate2 := float64(lr2.calls) / lr2.seconds()

	path := tcpPath
	if w.udp {
		path = udpPath
	}
	l := buildLedger(tr, path, tr.at0(lr2.start), tr.at0(lr2.end))
	l.print(out)
	if o.spans != "" {
		if err := l.writeSpans(o.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintln(out, "spans written to", o.spans)
	}
	codec, err := codecTimes(w.n, o.seed)
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	na := map[string]string{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	notApplicable := func(name, unit, why string) {
		m[name] = metric{0, unit}
		na[name] = why
	}
	pctl := func(name string, v []int64) {
		if v == nil {
			notApplicable(name+".p50", "us", "no such span on this transport")
			notApplicable(name+".p99", "us", "no such span on this transport")
			return
		}
		put(name+".p50", quantile(v, 0.50)/1e3, "us")
		put(name+".p99", quantile(v, 0.99)/1e3, "us")
	}
	perCall := func(d int64) float64 { return float64(d) / float64(lr2.calls) }

	// xdr: socket I/O of the record layer, from the traced window.
	if w.udp {
		why := "no record stream on UDP; datagram I/O is under batchio.*"
		for _, name := range []string{"xdr.client_writes_per_call", "xdr.server_writes_per_call",
			"xdr.client_reads_per_call", "xdr.server_reads_per_call"} {
			notApplicable(name, "1/call", why)
		}
		notApplicable("xdr.records_per_write", "1/write", why)
		notApplicable("xdr.write_busy_us.p50", "us", why)
		notApplicable("xdr.write_busy_us.p99", "us", why)
	} else {
		put("xdr.client_writes_per_call", perCall(io1.cw-io0.cw), "1/call")
		put("xdr.server_writes_per_call", perCall(io1.sw-io0.sw), "1/call")
		put("xdr.client_reads_per_call", perCall(io1.cr-io0.cr), "1/call")
		put("xdr.server_reads_per_call", perCall(io1.sr-io0.sr), "1/call")
		put("xdr.records_per_write", float64(io1.recs-io0.recs)/float64(io1.cw-io0.cw+io1.sw-io0.sw), "1/write")
		pctl("xdr.write_busy_us", l.busy)
	}
	pctl("xdr.req_transit_us", l.segment("xdr.req_transit"))
	pctl("xdr.reply_transit_us", l.segment("xdr.reply_transit"))

	// client and server spans, from the traced window.
	pctl("client.send_us", l.segment("client.send"))
	pctl("client.wake_us", l.segment("client.wake"))
	pctl("client.self_us", l.self)
	pctl("server.dispatch_us", l.segment("server.dispatch"))
	pctl("server.reply_us", l.segment("server.reply"))
	pctl("server.handler_us", l.segment("server.handler"))
	pctl("server.dgram_in_us", l.segment("server.dgram_in"))
	pctl("server.dgram_out_us", l.segment("server.dgram_out"))
	pctl("trace.call_us", l.call)

	// The program's own counters, from the untraced window.
	put("client.retransmits", float64(k1.retransmits-k0.retransmits), "count")
	put("client.retries", float64(k1.retries-k0.retries), "count")
	put("client.reconnects", float64(k1.reconnects-k0.reconnects), "count")
	put("server.queue_drops", float64(k1.queueDrops-k0.queueDrops), "count")
	put("server.cache_hits", float64(k1.cacheHits-k0.cacheHits), "count")
	if w.udp {
		reads, writes := k1.dgReads-k0.dgReads, k1.dgWrites-k0.dgWrites
		put("batchio.reads_per_call", float64(reads)/float64(lr1.calls), "1/call")
		put("batchio.msgs_per_read", float64(k1.dgReadMsgs-k0.dgReadMsgs)/float64(reads), "1/read")
		put("batchio.writes_per_call", float64(writes)/float64(lr1.calls), "1/call")
		put("batchio.msgs_per_write", float64(k1.dgWMsgs-k0.dgWMsgs)/float64(writes), "1/write")
	} else {
		why := "batchio serves only the datagram transport"
		notApplicable("batchio.reads_per_call", "1/call", why)
		notApplicable("batchio.msgs_per_read", "1/read", why)
		notApplicable("batchio.writes_per_call", "1/call", why)
		notApplicable("batchio.msgs_per_write", "1/write", why)
	}
	calls := float64(lr1.calls)
	put("runtime.allocs_per_call", float64(k1.mem.Mallocs-k0.mem.Mallocs)/calls, "1/call")
	put("runtime.alloc_bytes_per_call", float64(k1.mem.TotalAlloc-k0.mem.TotalAlloc)/calls, "B/call")
	put("runtime.gc_per_kcall", float64(k1.mem.NumGC-k0.mem.NumGC)/calls*1000, "1/kcall")

	for name, v := range codec {
		put(name, v, "ns")
	}

	put("trace_overhead_frac", 1-rate2/rate1, "frac")
	put("trace.coverage_frac", l.coverage(), "frac")

	printMetrics(out, m, na)
	if !w.udp {
		// RecStream.Flush writes two or more queued records totalling
		// over 32 KiB with net.Buffers, which is one writev on a
		// *net.TCPConn but one Write per record on a wrapper. A batch
		// holds at most one record per call in flight on the connection.
		rec := int64(4 + 40 + 4 + 4*w.n) // record mark, AUTH_NULL call header, array
		fmt.Fprintf(out, "  writev check: largest write %d B, most records in one write %d; at most %d records of <= %d B are queued per connection, so ",
			max(tr.client.maxWrite.Load(), tr.server.maxWrite.Load()), max(tr.client.maxRecs.Load(), tr.server.maxRecs.Load()), w.depth, rec)
		if w.depth > 1 && int64(w.depth)*rec > 32<<10 {
			fmt.Fprintln(out, "a batch can exceed 32 KiB and traced write counts can exceed untraced ones")
		} else {
			fmt.Fprintln(out, "no batch reaches the writev path and traced write counts equal untraced ones")
		}
	}
	fmt.Fprintf(out, "  (untraced %.1f calls/s over %d calls; traced %.1f calls/s over %d calls; spans p50/p99 over %d complete calls)\n",
		rate1, lr1.calls, rate2, lr2.calls, len(l.complete))

	failed := lr1.errs + lr1.wrong + lr2.errs + lr2.wrong
	correct := failed == 0
	if lost := tr.overflow.Load(); lost > 0 {
		fmt.Fprintf(out, "  coverage check failed: %d traced calls had ids past the span table\n", lost)
		correct = false
	}
	if n := tr.unattributed.Load(); n > 0 {
		fmt.Fprintf(out, "  coverage check failed: %d records could not be attributed to a call\n", n)
		correct = false
	}
	if len(l.complete) != l.inWindow || l.xidSkew != 0 {
		fmt.Fprintf(out, "  coverage check failed: %d of %d traced calls lack a span, %d have mismatched XIDs\n",
			l.inWindow-len(l.complete), l.inWindow, l.xidSkew)
		correct = false
	}
	return result{Correct: correct, Attempted: lr1.attempted + lr2.attempted, Failed: failed, Metrics: m}, nil
}
