package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/xdr"
)

// These tests cover the recycled reply slots: a slot (reply channel and
// deadline timer) goes back to its demux when a call ends and serves a
// later call, so nothing the old call left behind may reach the new one.

// responder is the hand-rolled server end of a slot test: it reads one
// request and reports its XID, and sends a success reply carrying v.
type responder struct {
	read  func() uint32
	reply func(xid, v uint32)
}

// lateReplyCase is one transport for TestLateReplyDroppedAfterSlotReuse.
type lateReplyCase struct {
	name  string
	setup func(t *testing.T) (Caller, *demux, responder)
}

var lateReplyCases = []lateReplyCase{
	{"tcp", func(t *testing.T) (Caller, *demux, responder) {
		p1, p2 := net.Pipe()
		c := NewTCP(p1, Config{Prog: fusedProg, Vers: fusedVers, Timeout: 5 * time.Second})
		t.Cleanup(func() { c.Close(); p2.Close() })
		rrec, wrec := xdr.NewRecStream(p2, 0), xdr.NewRecStream(p2, 0)
		return c, c.current().dmx, responder{
			read: func() uint32 {
				rec, err := rrec.ReadRecord(nil)
				if err != nil {
					t.Errorf("responder read: %v", err)
					return 0
				}
				xid, _ := rpcmsg.PeekXID(rec)
				return xid
			},
			reply: func(xid, v uint32) {
				if err := replyTo(wrec, xid, v); err != nil {
					t.Errorf("responder reply: %v", err)
				}
			},
		}
	}},
	{"udp", func(t *testing.T) (Caller, *demux, responder) {
		n := netsim.New()
		sep := n.Attach("server")
		c := NewUDP(n.Attach("client"), netsim.Addr("server"), Config{
			Prog: fusedProg, Vers: fusedVers, Timeout: 5 * time.Second,
			Retransmit: time.Minute, // one datagram per call: the responder reads each once
		})
		t.Cleanup(func() { c.Close(); sep.Close() })
		buf := make([]byte, 2048)
		return c, c.dmx, responder{
			read: func() uint32 {
				nr, _, err := sep.ReadFrom(buf)
				if err != nil {
					t.Errorf("responder read: %v", err)
					return 0
				}
				xid, _ := rpcmsg.PeekXID(buf[:nr])
				return xid
			},
			reply: func(xid, v uint32) {
				if _, err := sep.WriteTo(successReplyBytes(t, xid, v), netsim.Addr("client")); err != nil {
					t.Errorf("responder reply: %v", err)
				}
			},
		}
	}},
}

// TestLateReplyDroppedAfterSlotReuse: a call abandoned by cancellation
// and one that timed out each hand their slot back before their reply
// arrives. Both late replies then land while a third call waits on the
// very same recycled slot; they must be dropped, and the third call must
// receive only its own reply.
func TestLateReplyDroppedAfterSlotReuse(t *testing.T) {
	for _, tc := range lateReplyCases {
		t.Run(tc.name, func(t *testing.T) {
			c, dmx, peer := tc.setup(t)
			var got uint32
			call := func(ctx context.Context) error {
				return c.CallCtx(ctx, fusedProc, Void, func(x *xdr.XDR) error { return x.Uint32(&got) })
			}

			// Cancelled: the call ends once its request has reached the peer.
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- call(ctx) }()
			cancelled := peer.read()
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
			}

			// Timed out: the peer reads the request and stays silent.
			ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			go func() { done <- call(ctx) }()
			timedOut := peer.read()
			if err := <-done; !errors.Is(err, ErrTimeout) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("timed-out call: err = %v, want a timeout", err)
			}

			// Both calls ran on one slot, and it is back in the free list.
			if n := len(dmx.free); n != 1 || dmx.inFlight() != 0 {
				t.Fatalf("free slots = %d, in flight = %d; want 1 and 0", n, dmx.inFlight())
			}
			go func() { done <- call(context.Background()) }()
			next := peer.read()
			if next == cancelled || next == timedOut {
				t.Fatalf("next call reused xid %#x", next)
			}
			peer.reply(cancelled, 111)
			peer.reply(timedOut, 222)
			peer.reply(next, 333)
			if err := <-done; err != nil {
				t.Fatalf("next call: %v", err)
			}
			if got != 333 {
				t.Fatalf("next call got %d, want 333: a late reply reached the recycled slot", got)
			}
			if n := len(dmx.free); n != 1 {
				t.Fatalf("free slots = %d, want 1 (one slot serves sequential calls)", n)
			}
		})
	}
}

// staleTimer returns a timer that has fired with its tick still unread,
// the state a go 1.22 timer can be left in when Stop races its expiry.
// It skips the test where timer channels are synchronous, as they are
// from go 1.23 on: no tick can be stranded there.
func staleTimer(t *testing.T) *time.Timer {
	t.Helper()
	tm := time.NewTimer(0)
	for deadline := time.Now().Add(time.Second); len(tm.C) == 0; {
		if time.Now().After(deadline) {
			tm.Stop()
			t.Skip("timer channels are synchronous: no stale tick can exist")
		}
		time.Sleep(time.Millisecond)
	}
	return tm
}

// TestStaleTickDoesNotTimeOutNextCall plants a recycled slot whose timer
// holds a stale tick from an earlier call. Arming it for the next call
// leaves that tick readable, and the next call must not take it for its
// own deadline: it has 5 s and must succeed.
func TestStaleTickDoesNotTimeOutNextCall(t *testing.T) {
	c, _ := newFusedSimPair(t, Config{Timeout: 5 * time.Second})
	stale := &slot{ch: make(chan *[]byte, 1), timer: staleTimer(t)}
	c.dmx.mu.Lock()
	c.dmx.free = append(c.dmx.free, stale)
	c.dmx.mu.Unlock()

	in, out := []int32{7, 8, 9}, []int32(nil)
	if err := CallTyped(c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out); err != nil {
		t.Fatalf("call on a slot with a stale tick: %v", err)
	}
	if len(out) != 3 || out[2] != 9 {
		t.Fatalf("echo = %v, want %v", out, in)
	}
	if n := len(c.dmx.free); n != 1 || c.dmx.free[0] != stale {
		t.Fatal("the call did not run on the planted slot")
	}
}

// TestUnregisterDrainsFiredTick: a call whose deadline timer fired but
// whose tick was never read (the reply won the race) releases a slot
// with an empty timer channel.
func TestUnregisterDrainsFiredTick(t *testing.T) {
	d := newDemux()
	s, err := d.register(1)
	if err != nil {
		t.Fatal(err)
	}
	s.timer = staleTimer(t)
	d.unregister(1)
	if len(s.timer.C) != 0 {
		t.Fatal("released slot still holds its timer tick")
	}
	if len(d.free) != 1 || d.free[0] != s {
		t.Fatal("slot not released for reuse")
	}
}

// TestRoundTripAllocs pins the allocations of a whole typed echo call —
// client and server together — over loopback TCP and UDP, at what each
// measures, so that none of it grows back. Over TCP that is the
// handler's argument value and its slice, and the record batcher's
// pending queue on each end. UDP has the handler's two, the per-call
// retransmit timer (3), the datagram source addresses of the two reads
// and the batched-I/O layer's message headers.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	srv := server.New()
	server.RegisterTyped(srv, fusedProg, fusedVers, fusedProc, fusedArgPlan, fusedArgPlan,
		func(arg *[]int32) (*[]int32, error) { return arg, nil })
	t.Cleanup(func() { srv.Close() })
	cfg := Config{Prog: fusedProg, Vers: fusedVers, Timeout: 5 * time.Second}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = srv.ServeTCP(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tcp := NewTCP(conn, cfg)
	t.Cleanup(func() { tcp.Close() })

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	go func() { _ = srv.ServeUDP(pc) }()
	cc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udp := NewUDP(cc, pc.LocalAddr(), cfg)
	t.Cleanup(func() { udp.Close() })

	in := make([]int32, 20)
	out := make([]int32, 0, 20)
	for _, c := range []struct {
		name string
		c    Caller
		max  float64
	}{{"tcp", tcp, 4}, {"udp", udp, 19}} {
		call := func() {
			if err := CallTyped(c.c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ { // warm pools, slots and lazily started workers
			call()
		}
		if n := testing.AllocsPerRun(200, call); n > c.max {
			t.Errorf("%s: %v allocs per round trip, want at most %v", c.name, n, c.max)
		}
	}
}
