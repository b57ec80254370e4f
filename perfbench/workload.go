package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"specrpc/internal/client"
	"specrpc/internal/server"
	"specrpc/perfbench/echorpc"
)

// workload is one traffic mix: closed-loop callers over one transport.
type workload struct {
	name  string
	udp   bool
	conns int // client sockets
	depth int // synchronous callers per socket, so calls in flight per socket
	n     int // int32 elements in each argument and result
}

var workloads = []workload{
	{name: "tcp_small", conns: 1, depth: 1, n: 20},
	{name: "tcp_bulk", conns: 1, depth: 1, n: 16384},
	{name: "tcp_pipelined", conns: 2, depth: 8, n: 20},
	{name: "udp_pipelined", udp: true, conns: 2, depth: 8, n: 20},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rig is one running server plus its clients, all on 127.0.0.1.
type rig struct {
	srv     *server.Server
	served  chan error // the Serve loop's return value
	callers []client.Caller
	tcp     []*client.TCP
	udp     []*client.UDP
}

// echoHandler returns its argument unchanged. With a tracer it stamps its
// own entry and exit on the call whose id is element 0.
type echoHandler struct{ tr *tracer }

func (h echoHandler) Echo(arg *echorpc.Echoarr) (*echorpc.Echoarr, error) {
	if h.tr == nil || len(*arg) == 0 {
		return arg, nil
	}
	st := h.tr.at(uint32((*arg)[0]))
	if st != nil {
		setOnce(&st.hEntry, h.tr.now())
		setOnce(&st.hExit, h.tr.now())
	}
	return arg, nil
}

// buildRig starts a server and w.conns clients, wrapping their sockets
// for tracing when tr is non-nil, and makes one checked call on every
// client. The time it takes is the benchmark's set-up time.
func buildRig(w workload, tr *tracer) (*rig, error) {
	r := &rig{srv: server.New(), served: make(chan error, 1)}
	echorpc.RegisterEchoProgV1(r.srv, echoHandler{tr: tr})
	cfg := client.Config{Prog: echorpc.EchoProgV1Prog, Vers: echorpc.EchoProgV1Vers}
	if w.udp {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen udp: %w", err)
		}
		go func() { r.served <- r.srv.ServeUDP(pc) }()
		for i := 0; i < w.conns; i++ {
			cpc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				r.close()
				return nil, fmt.Errorf("client socket: %w", err)
			}
			if tr != nil {
				cpc = &tracedPacketConn{PacketConn: cpc, tr: tr}
			}
			c := client.NewUDP(cpc, pc.LocalAddr(), cfg)
			r.udp = append(r.udp, c)
			r.callers = append(r.callers, c)
		}
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen tcp: %w", err)
		}
		addr := ln.Addr().String()
		if tr != nil {
			ln = tracedListener{Listener: ln, tr: tr}
		}
		go func() { r.served <- r.srv.ServeTCP(ln) }()
		dial := func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil || tr == nil {
				return c, err
			}
			return &tracedConn{Conn: c, tr: tr, io: &tr.client}, nil
		}
		for i := 0; i < w.conns; i++ {
			conn, err := dial()
			if err != nil {
				r.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			ccfg := cfg
			ccfg.Redial = dial // the reconnecting client DialTCP would build
			c := client.NewTCP(conn, ccfg)
			r.tcp = append(r.tcp, c)
			r.callers = append(r.callers, c)
		}
	}
	// First call on every connection; id 0 is never traced.
	arg := make(echorpc.Echoarr, w.n)
	res := make(echorpc.Echoarr, w.n)
	for i := range arg {
		arg[i] = int32(i)
	}
	for _, c := range r.callers {
		if err := client.CallTyped(c, echorpc.EchoProgV1ProcEcho, echorpc.PlanEchoarr, &arg, echorpc.PlanEchoarr, &res); err != nil {
			r.close()
			return nil, fmt.Errorf("first call: %w", err)
		}
		if !sameInts(arg, res) {
			r.close()
			return nil, errors.New("first call: reply differs from request")
		}
	}
	return r, nil
}

// close stops the clients, then the server, and waits for its Serve loop.
func (r *rig) close() {
	for _, c := range r.tcp {
		_ = c.Close() // teardown: in-flight calls are already done
	}
	for _, c := range r.udp {
		_ = c.Close()
	}
	_ = r.srv.Close()
	<-r.served
}

// retryCounts sums the client retry-path counters.
func (r *rig) retryCounts() (retransmits, retries, reconnects uint64) {
	for _, c := range r.tcp {
		rs, cs := c.RetryStats(), c.ReconnectStats()
		retries += rs.Retries
		reconnects += cs.Reconnects
	}
	for _, c := range r.udp {
		retransmits += c.RetryStats().Retransmits
	}
	return
}

// sameInts reports whether a and b hold the same elements, comparing
// their bytes so a 64 KiB echo check stays a small share of the call.
func sameInts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	ab := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a))
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), 4*len(b))
	return string(ab) == string(bb)
}

// argPools draws each caller's argument arrays from seed. Element 0 of
// an array is overwritten with the call id before each call.
func argPools(w workload, seed int64) [][]echorpc.Echoarr {
	rng := rand.New(rand.NewSource(seed))
	per := 64
	if w.n > 1024 {
		per = 4
	}
	pools := make([][]echorpc.Echoarr, w.conns*w.depth)
	for i := range pools {
		pools[i] = make([]echorpc.Echoarr, per)
		for j := range pools[i] {
			a := make(echorpc.Echoarr, w.n)
			for k := range a {
				a[k] = int32(rng.Uint32())
			}
			pools[i][j] = a
		}
	}
	return pools
}

// Window phases of a closed loop.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// slicesFor cuts a measured window into slices of about a second, and
// at least 10. Rates, CPU per call and latency percentiles are reported
// as the interquartile mean over the slices: a burst of load from
// elsewhere on the host moves a slice or two, which the trim drops, and
// a latency that flips between two modes for seconds at a time moves the
// figure in proportion to the time spent in each mode rather than
// jumping between them.
func slicesFor(dur time.Duration) int { return max(10, int(dur/time.Second)) }

// slice is one equal part of a measured window.
type slice struct {
	lat hist          // latencies of the calls started in the slice
	cpu time.Duration // process CPU time spent during the slice
	dur time.Duration
}

// caller is one synchronous closed-loop caller. Its counters are read by
// the coordinating goroutine only after the caller has returned.
type caller struct {
	calls, errs, wrong int64 // calls started in the measured window, and failures in any phase
	attempted          int64 // every call, warm-up included
	firstErr           error
	_                  [64]byte // keep neighbouring callers off one cache line
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	slices             []slice
	calls, errs, wrong int64
	attempted          int64 // warm-up included
	start, end         time.Time
	firstErr           error
}

func (l *loopResult) seconds() float64 { return l.end.Sub(l.start).Seconds() }

// center returns the interquartile mean over the slices of f: the mean
// of the values left after dropping the lowest and highest quarter.
func (l *loopResult) center(f func(s *slice) float64) float64 {
	v := make([]float64, len(l.slices))
	for i := range l.slices {
		v[i] = f(&l.slices[i])
	}
	sort.Float64s(v)
	mid := v[len(v)/4 : len(v)-len(v)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// windowHooks run on the coordinating goroutine right after the window
// opens and right before it closes, to snapshot counters.
type windowHooks struct {
	open, close func()
}

// runLoop drives the rig with w.conns*w.depth synchronous callers for
// warm+dur and measures the calls started in the last dur. Call ids are
// dense (seq*callers + caller + 1), so a tracer can index them directly.
func runLoop(r *rig, w workload, pools [][]echorpc.Echoarr, tr *tracer, warm, dur time.Duration, nslices int, hooks windowHooks) loopResult {
	var phase atomic.Int32
	lr := loopResult{slices: make([]slice, nslices)}
	sliceLen := dur / time.Duration(nslices)
	cs := make([]caller, len(pools))
	nc := uint32(len(pools))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &cs[i]
			cl := r.callers[i%len(r.callers)]
			pool := pools[i]
			// arg and res live outside the loop: CallTyped takes their
			// addresses, so a per-iteration variable would cost the
			// benchmark a heap allocation per call.
			var arg echorpc.Echoarr
			res := make(echorpc.Echoarr, w.n)
			for seq := uint32(0); ; seq++ {
				ph := phase.Load()
				if ph == phaseStop {
					return
				}
				id := seq*nc + uint32(i) + 1
				arg = pool[int(seq)%len(pool)]
				arg[0] = int32(id)
				res[0] = ^arg[0]
				var st *stamps
				if tr != nil {
					if st = tr.at(id); st == nil {
						tr.overflow.Add(1)
					}
				}
				t0 := time.Now()
				if st != nil {
					st.entry.Store(tr.at0(t0))
				}
				err := client.CallTyped(cl, echorpc.EchoProgV1ProcEcho, echorpc.PlanEchoarr, &arg, echorpc.PlanEchoarr, &res)
				t1 := time.Now()
				if st != nil {
					st.ret.Store(tr.at0(t1))
				}
				c.attempted++
				if err != nil {
					c.errs++
					if c.firstErr == nil {
						c.firstErr = err
					}
				} else if !sameInts(arg, res) {
					c.wrong++
				}
				if ph == phaseMeasure {
					c.calls++
					k := min(int(t0.Sub(lr.start)/sliceLen), nslices-1)
					lr.slices[k].lat.add(int64(t1.Sub(t0)))
				}
			}
		}(i)
	}
	time.Sleep(warm)
	// lr.start is written before the phase store the callers load, so
	// they read it only after it is set.
	lr.start = time.Now()
	phase.Store(phaseMeasure)
	if hooks.open != nil {
		hooks.open()
	}
	prev, cpu := lr.start, cpuTime()
	for k := range lr.slices {
		time.Sleep(time.Until(lr.start.Add(time.Duration(k+1) * sliceLen)))
		now, c := time.Now(), cpuTime()
		lr.slices[k].dur, lr.slices[k].cpu = now.Sub(prev), c-cpu
		prev, cpu = now, c
	}
	if hooks.close != nil {
		hooks.close()
	}
	lr.end = time.Now()
	phase.Store(phaseStop)
	wg.Wait()
	for i := range cs {
		c := &cs[i]
		lr.calls += c.calls
		lr.errs += c.errs
		lr.wrong += c.wrong
		lr.attempted += c.attempted
		if lr.firstErr == nil {
			lr.firstErr = c.firstErr
		}
	}
	return lr
}
