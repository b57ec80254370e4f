package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Timeout != 5*time.Second {
		t.Fatalf("Timeout = %v", c.Timeout)
	}
	if c.Retransmit != 500*time.Millisecond {
		t.Fatalf("Retransmit = %v", c.Retransmit)
	}
	if c.BufSize != 8900 {
		t.Fatalf("BufSize = %d", c.BufSize)
	}
	if c.FirstXID == 0 {
		t.Fatal("FirstXID not seeded")
	}
	if c.Cred.Flavor != rpcmsg.AuthNone {
		t.Fatalf("Cred flavor = %d", c.Cred.Flavor)
	}
}

func TestConfigExplicitValuesKept(t *testing.T) {
	c := Config{Timeout: time.Second, Retransmit: time.Millisecond,
		BufSize: 128, FirstXID: 7}
	c.fill()
	if c.Timeout != time.Second || c.Retransmit != time.Millisecond ||
		c.BufSize != 128 || c.FirstXID != 7 {
		t.Fatalf("explicit config overridden: %+v", c)
	}
}

func TestRPCErrorStrings(t *testing.T) {
	tests := []struct {
		err  RPCError
		want string
	}{
		{RPCError{Stat: rpcmsg.MsgAccepted, AcceptStat: rpcmsg.ProcUnavail},
			"PROC_UNAVAIL"},
		{RPCError{Stat: rpcmsg.MsgAccepted, AcceptStat: rpcmsg.ProgMismatch,
			Mismatch: rpcmsg.MismatchInfo{Low: 1, High: 3}},
			"server supports 1..3"},
		{RPCError{Stat: rpcmsg.MsgDenied, RejectStat: rpcmsg.AuthError,
			AuthStat: rpcmsg.AuthBadCred},
			"AUTH_ERROR"},
		{RPCError{Stat: rpcmsg.MsgDenied, RejectStat: rpcmsg.RPCMismatch,
			Mismatch: rpcmsg.MismatchInfo{Low: 2, High: 2}},
			"RPC_MISMATCH"},
	}
	for _, tt := range tests {
		if got := tt.err.Error(); !strings.Contains(got, tt.want) {
			t.Errorf("Error() = %q, want substring %q", got, tt.want)
		}
	}
}

func TestVoidMarshaler(t *testing.T) {
	if err := Void(nil); err != nil {
		t.Fatalf("Void = %v", err)
	}
}

// ---------------------------------------------------------------------------
// Call-path specialization: differential and allocation tests

// TestMarshalCallTemplateMatchesGeneric pins the tentpole property on
// the client: the templated marshal path emits byte-identical requests
// to the generic CallHeader.Marshal encoder, with and without a
// reserved record mark prefix.
func TestMarshalCallTemplateMatchesGeneric(t *testing.T) {
	sysCred, err := (&rpcmsg.SysCred{Stamp: 1, MachineName: "pc", UID: 2, GID: 3}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cred := range []rpcmsg.OpaqueAuth{rpcmsg.None(), sysCred} {
		cfg := Config{Prog: 0x20000099, Vers: 2, Cred: cred}
		cfg.fill()
		tmpl, err := callTemplate(&cfg)
		if err != nil {
			t.Fatalf("template compile failed for ordinary auth: %v", err)
		}
		args := func(x *xdr.XDR) error {
			v := uint32(0xFEEDFACE)
			return x.Uint32(&v)
		}
		spec, err := marshalCall(&cfg, tmpl, 77, 5, args, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := xdr.NewBufEncode(nil)
		hdr := rpcmsg.CallHeader{XID: 77, Prog: cfg.Prog, Vers: cfg.Vers, Proc: 5,
			Cred: cred, Verf: rpcmsg.None()}
		if err := hdr.Marshal(xdr.NewEncoder(ref)); err != nil {
			t.Fatal(err)
		}
		if err := args(xdr.NewEncoder(ref)); err != nil {
			t.Fatal(err)
		}
		gen := ref.Buffer()
		if !bytes.Equal(*spec, gen) {
			t.Fatalf("templated call diverged:\n got %x\nwant %x", *spec, gen)
		}
		pre, err := marshalCall(&cfg, tmpl, 77, 5, args, xdr.RecordMarkLen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal((*pre)[xdr.RecordMarkLen:], gen) {
			t.Fatalf("prefixed call diverged after the mark:\n got %x\nwant %x",
				(*pre)[xdr.RecordMarkLen:], gen)
		}
		xdr.PutBuf(spec)
		xdr.PutBuf(pre)
	}
}

// TestMarshalCallOversizedAuthFallsBack: auth the template compiler
// rejects, which CallHeader.Marshal rejects too, fails every call on
// both transports, with the rpcmsg cause reachable through errors.Is.
func TestMarshalCallOversizedAuthFallsBack(t *testing.T) {
	cfg := Config{Prog: 1, Vers: 1,
		Cred: rpcmsg.OpaqueAuth{Flavor: rpcmsg.AuthSys, Body: make([]byte, rpcmsg.MaxAuthBytes+1)}}
	cfg.fill()
	if tmpl, err := callTemplate(&cfg); tmpl != nil || !errors.Is(err, rpcmsg.ErrAuthTooBig) {
		t.Fatalf("oversized cred: template %v, err %v", tmpl, err)
	}
	udp := NewUDP(netsim.New().Attach("client"), netsim.Addr("server"), cfg)
	defer udp.Close()
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	tcp := NewTCP(cconn, cfg)
	defer tcp.Close()
	for name, call := range map[string]func() error{
		"udp":         func() error { return udp.Call(1, Void, Void) },
		"tcp":         func() error { return tcp.Call(1, Void, Void) },
		"tcp batched": func() error { return tcp.CallBatched(1, Void) },
	} {
		err := call()
		if !errors.Is(err, rpcmsg.ErrAuthTooBig) ||
			!strings.HasPrefix(err.Error(), "client: marshal call header: ") {
			t.Errorf("%s: err = %v, want it wrapped as a call-header marshal error", name, err)
		}
	}
}

// TestCallPathAllocFree pins the perf acceptance criterion: with the
// header template and pooled buffers/handles, the transport layers —
// header marshal, framing, reply header decode — allocate nothing.
// The body marshalers here use the stream bulk primitives, as compiled
// wire plans do; the per-primitive escape of the generic x.Uint32 path
// is the interpretive-layer cost the plans exist to remove, and is
// measured separately by the header-path benchmarks.
func TestCallPathAllocFree(t *testing.T) {
	cfg := Config{Prog: 0x20000099, Vers: 2}
	cfg.fill()
	tmpl, err := callTemplate(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	args := func(x *xdr.XDR) error { return x.Stream.PutLong(7) }
	if allocs := testing.AllocsPerRun(100, func() {
		req, err := marshalCall(&cfg, tmpl, 42, 1, args, xdr.RecordMarkLen)
		if err != nil {
			t.Fatal(err)
		}
		xdr.PutBuf(req)
	}); allocs != 0 {
		t.Errorf("templated marshalCall: %.1f allocs/op, want 0", allocs)
	}

	reply := rpcmsg.MustReplyTemplate(rpcmsg.None()).AppendReply(nil, 42)
	reply = append(reply, 0, 0, 0, 9)
	var got int32
	dec := func(x *xdr.XDR) error { return x.Stream.GetLong(&got) }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := decodeReply(reply, dec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("fast-path decodeReply: %.1f allocs/op, want 0", allocs)
	}
	if got != 9 {
		t.Fatalf("result = %d, want 9", got)
	}
}

// ---------------------------------------------------------------------------
// Error-path coverage: the demux guards

// successReplyBytes builds an accepted-success reply carrying one uint32.
func successReplyBytes(t *testing.T, xid, result uint32) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	enc := xdr.NewEncoder(bs)
	rh := rpcmsg.AcceptedReply(xid)
	if err := rh.Marshal(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Uint32(&result); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), bs.Buffer()...)
}

func pooledCopy(b []byte) *[]byte {
	bp := xdr.GetBuf(len(b))
	*bp = append((*bp)[:0], b...)
	return bp
}

// TestDrainReply exercises the last-instant check Call makes before
// returning a transport error: a decodable reply already in the channel
// must win, an ill-formed one must not, an empty channel reports none.
func TestDrainReply(t *testing.T) {
	var got uint32
	dec := func(x *xdr.XDR) error { return x.Uint32(&got) }

	ch := make(chan *[]byte, 1)
	ch <- pooledCopy(successReplyBytes(t, 9, 1234))
	ok, err := drainReply(ch, &replySink{fn: dec})
	if !ok || err != nil || got != 1234 {
		t.Fatalf("success reply: ok=%v err=%v got=%d", ok, err, got)
	}

	ch <- pooledCopy([]byte{1, 2, 3})
	if ok, err := drainReply(ch, &replySink{fn: dec}); ok || err != nil {
		t.Fatalf("ill-formed reply: ok=%v err=%v", ok, err)
	}

	if ok, err := drainReply(ch, &replySink{fn: dec}); ok || err != nil {
		t.Fatalf("empty channel: ok=%v err=%v", ok, err)
	}

	// An error reply is still an answer: it must surface as *RPCError,
	// not be masked by the transport error.
	bs := xdr.NewBufEncode(nil)
	eh := rpcmsg.ErrorReply(9, rpcmsg.SystemErr)
	if err := eh.Marshal(xdr.NewEncoder(bs)); err != nil {
		t.Fatal(err)
	}
	ch <- pooledCopy(bs.Buffer())
	ok, err = drainReply(ch, &replySink{fn: Void})
	var rpcErr *RPCError
	if !ok || !errors.As(err, &rpcErr) || rpcErr.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("error reply: ok=%v err=%v", ok, err)
	}
}

// dieAfterReplyConn answers the first request with a success reply and
// then fails every read: the reply and the terminal transport error
// race to the caller, which must prefer the reply (via drainReply) no
// matter which select arm wins.
type dieAfterReplyConn struct {
	t     *testing.T
	reply chan []byte
	once  sync.Once
}

func newDieAfterReplyConn(t *testing.T) *dieAfterReplyConn {
	return &dieAfterReplyConn{t: t, reply: make(chan []byte, 1)}
}

func (c *dieAfterReplyConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	c.once.Do(func() {
		xid, ok := rpcmsg.PeekXID(p)
		if !ok {
			c.t.Error("request without XID")
		}
		c.reply <- successReplyBytes(c.t, xid, 4321)
		close(c.reply)
	})
	return len(p), nil
}

func (c *dieAfterReplyConn) ReadFrom(p []byte) (int, net.Addr, error) {
	r, ok := <-c.reply
	if !ok {
		return 0, nil, errors.New("socket died")
	}
	return copy(p, r), fakeAddr{}, nil
}

func (c *dieAfterReplyConn) Close() error                     { return nil }
func (c *dieAfterReplyConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *dieAfterReplyConn) SetDeadline(time.Time) error      { return nil }
func (c *dieAfterReplyConn) SetReadDeadline(time.Time) error  { return nil }
func (c *dieAfterReplyConn) SetWriteDeadline(time.Time) error { return nil }

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// TestUDPCallPrefersReplyOverTransportError: the reader delivers a valid
// reply and immediately afterwards the socket dies, closing dmx.done.
// Call's select then has two ready arms; whichever fires, the call must
// return the reply, not the transport error. Iterated because select
// picks ready arms at random.
func TestUDPCallPrefersReplyOverTransportError(t *testing.T) {
	for i := 0; i < 25; i++ {
		conn := newDieAfterReplyConn(t)
		c := NewUDP(conn, fakeAddr{}, Config{
			Prog: 1, Vers: 1,
			Timeout:    10 * time.Second,
			Retransmit: time.Hour, // keep retransmission out of the race
		})
		var got uint32
		err := c.Call(1, Void, func(x *xdr.XDR) error { return x.Uint32(&got) })
		if err != nil {
			t.Fatalf("iteration %d: Call = %v, want reply 4321", i, err)
		}
		if got != 4321 {
			t.Fatalf("iteration %d: result = %d", i, got)
		}
		_ = c.Close()
	}
}

// TestUDPRetransmitAfterDrop: the first request datagram is dropped by
// the network; the call must retransmit after cfg.Retransmit and
// complete against the echoing responder.
func TestUDPRetransmitAfterDrop(t *testing.T) {
	var sends atomic.Int32
	n := netsim.New(netsim.WithFaults(func(from, to net.Addr, seq int, p []byte) netsim.Verdict {
		if to.String() == "server" && sends.Add(1) == 1 {
			return netsim.Drop
		}
		return netsim.Deliver
	}))
	sep := n.Attach("server")
	defer sep.Close()
	go func() {
		buf := make([]byte, 9000)
		for {
			nr, from, err := sep.ReadFrom(buf)
			if err != nil {
				return
			}
			dec := xdr.NewDecoder(xdr.NewMemDecode(buf[:nr]))
			var hdr rpcmsg.CallHeader
			if hdr.Marshal(dec) != nil {
				continue
			}
			var v uint32
			if dec.Uint32(&v) != nil {
				continue
			}
			if _, err := sep.WriteTo(successReplyBytes(t, hdr.XID, v+1), from); err != nil {
				return
			}
		}
	}()

	cep := n.Attach("client")
	c := NewUDP(cep, netsim.Addr("server"), Config{
		Prog: 1, Vers: 1,
		Timeout:    5 * time.Second,
		Retransmit: 20 * time.Millisecond,
	})
	defer c.Close()

	arg := uint32(41)
	var got uint32
	err := c.Call(1,
		func(x *xdr.XDR) error { return x.Uint32(&arg) },
		func(x *xdr.XDR) error { return x.Uint32(&got) })
	if err != nil {
		t.Fatalf("Call after dropped datagram: %v", err)
	}
	if got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
	if s := sends.Load(); s < 2 {
		t.Fatalf("saw %d request sends, want a retransmission", s)
	}
}

// illFormedReply is a reply that carries xid but whose header stops
// after the reply status: no verifier, so the header walk fails and
// the reply decodes as errIllFormed.
func illFormedReply(xid uint32) []byte {
	return binary.BigEndian.AppendUint32(
		binary.BigEndian.AppendUint32(
			binary.BigEndian.AppendUint32(nil, xid), uint32(rpcmsg.Reply)),
		uint32(rpcmsg.MsgAccepted))
}

// TestUDPIllFormedReplyIgnored pins the datagram half of the reply
// wait's ill-formed-reply rule: an undecodable datagram carrying the
// call's XID is ignored, as clntudp_call ignored it, and the call
// completes on the next valid reply (here the answer to its
// retransmission).
func TestUDPIllFormedReplyIgnored(t *testing.T) {
	n := netsim.New()
	sep := n.Attach("server")
	defer sep.Close()
	var requests atomic.Int32
	go func() {
		buf := make([]byte, 9000)
		for {
			nr, from, err := sep.ReadFrom(buf)
			if err != nil {
				return
			}
			xid, ok := rpcmsg.PeekXID(buf[:nr])
			if !ok {
				continue
			}
			reply := illFormedReply(xid)
			if requests.Add(1) > 1 {
				reply = successReplyBytes(t, xid, 77)
			}
			if _, err := sep.WriteTo(reply, from); err != nil {
				return
			}
		}
	}()
	c := NewUDP(n.Attach("client"), netsim.Addr("server"), Config{
		Prog: 1, Vers: 1,
		Timeout:    5 * time.Second,
		Retransmit: 20 * time.Millisecond,
	})
	defer c.Close()

	var got uint32
	if err := c.Call(1, Void, func(x *xdr.XDR) error { return x.Uint32(&got) }); err != nil {
		t.Fatalf("Call after an ill-formed reply = %v, want the next valid reply", err)
	}
	if got != 77 {
		t.Fatalf("result = %d, want 77", got)
	}
	if r := requests.Load(); r < 2 {
		t.Fatalf("server saw %d requests, want the call to outlive the ill-formed reply", r)
	}
}

// TestTCPIllFormedReplyFails pins the stream half of the same rule: a
// record-marked reply whose header does not decode fails the call, as
// a read error, instead of leaving it waiting for a reply that cannot
// come.
func TestTCPIllFormedReplyFails(t *testing.T) {
	p1, p2 := net.Pipe()
	defer p2.Close()
	go func() {
		rec, err := readRecord(p2)
		if err != nil || len(rec) < 8 {
			return
		}
		body := illFormedReply(binary.BigEndian.Uint32(rec[4:]))
		mark := binary.BigEndian.AppendUint32(nil, 1<<31|uint32(len(body)))
		_, _ = p2.Write(append(mark, body...))
	}()
	c := NewTCP(p1, Config{Prog: 1, Vers: 1, Timeout: 5 * time.Second})
	defer c.Close()

	err := c.Call(1, Void, Void)
	if !errors.Is(err, errIllFormed) || !strings.HasPrefix(err.Error(), "client: read reply: ") {
		t.Fatalf("err = %v, want a read-reply error wrapping errIllFormed", err)
	}
}
