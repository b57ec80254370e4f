package server

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/xdr"
)

// procGate echoes once the test releases it.
const procGate = uint32(10)

// countGoroutines counts the live goroutines with a frame in fn (a
// function name followed by its argument list, so "created by" lines do
// not match) whose header names state ("" matches any state).
func countGoroutines(fn, state string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(g, fn+"(") && strings.Contains(header, state) {
			count++
		}
	}
	return count
}

// TestConnWorkersBounded sends a pipelined burst of gated calls over one
// connection. Exactly `workers` workers start: with all of them busy the
// read loop blocks handing over the next record instead of starting
// another, so at most `workers` handlers ever run at once. Once the
// client goes away every worker exits and the goroutine count returns
// to where it was before the connection.
func TestConnWorkersBounded(t *testing.T) {
	const workers, calls = 3, 12
	release := make(chan struct{})
	var running, peak atomic.Int32
	s := New(WithWorkers(workers))
	s.Register(testProg, testVers, procGate, func(dec *xdr.XDR) (Marshal, error) {
		m, err := echoProc(dec)
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		<-release
		running.Add(-1)
		return m, err
	})
	defer s.Close()
	// Release the gate on every exit path, so that a failed check does
	// not leave Close waiting on gated handlers.
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	base := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 10 * time.Second})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in, out := []int32{int32(i)}, []int32(nil)
			errs[i] = c.Call(procGate,
				func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
				func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
			if errs[i] == nil && (len(out) != 1 || out[0] != int32(i)) {
				t.Errorf("call %d: echo %v", i, out)
			}
		}(i)
	}

	waitFor(t, "the read loop to block with every worker busy", func() bool {
		return running.Load() == workers &&
			countGoroutines("(*Server).serveConn", "[chan send") == 1
	})
	if n := countGoroutines("(*Server).connWorker", ""); n != workers {
		t.Fatalf("%d workers on the connection, want %d", n, workers)
	}
	releaseAll()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if p := peak.Load(); p != workers {
		t.Fatalf("peak handlers in flight = %d, want %d", p, workers)
	}
	if n := countGoroutines("(*Server).connWorker", ""); n > workers {
		t.Fatalf("%d workers after the burst, want at most %d", n, workers)
	}

	c.Close()
	waitFor(t, "the connection's workers to exit", func() bool {
		return countGoroutines("(*Server).connWorker", "") == 0 &&
			countGoroutines("(*Server).serveConn", "") == 0
	})
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}
