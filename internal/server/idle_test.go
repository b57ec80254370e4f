package server

import (
	"net"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/xdr"
)

// procSleep blocks longer than the idle window before echoing, standing
// in for a genuinely slow handler.
const procSleep = uint32(9)

// TestServeTCPIdleTimeout pins WithIdleTimeout: a connection that goes
// silent between calls is reaped and counted, while a connection that is
// merely waiting on a slow handler — silent on the wire for just as long
// — is not. The old server held silent connections open forever.
func TestServeTCPIdleTimeout(t *testing.T) {
	const idle = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithIdleTimeout(idle))
	s.Register(testProg, testVers, procEcho, echoProc)
	s.Register(testProg, testVers, procSleep, func(dec *xdr.XDR) (Marshal, error) {
		m, err := echoProc(dec)
		time.Sleep(4 * idle)
		return m, err
	})
	defer s.Close()
	go func() { _ = s.ServeTCP(ln) }()

	call := func(c client.Caller, proc uint32) error {
		in := []int32{1}
		var out []int32
		return c.Call(proc,
			func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
			func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
	}
	dial := func() client.Caller {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 10 * time.Second})
	}

	// A connection that makes one call and then falls silent is reaped
	// once the window passes, and the reap is counted.
	quiet := dial()
	defer quiet.Close()
	if err := call(quiet, procEcho); err != nil {
		t.Fatalf("call before going idle: %v", err)
	}
	waitFor(t, "idle reap", func() bool { return s.IdleDrops() == 1 })
	waitFor(t, "reaped conn to untrack", func() bool { return s.Conns() == 0 })

	// A connection waiting out a slow handler spans several idle windows
	// with nothing on the wire, yet the in-flight call protects it: the
	// reply arrives and the connection still serves the next call.
	busy := dial()
	defer busy.Close()
	if err := call(busy, procSleep); err != nil {
		t.Fatalf("slow call on an idle-reaping server: %v", err)
	}
	if err := call(busy, procEcho); err != nil {
		t.Fatalf("call after the slow reply: %v", err)
	}
	if got := s.IdleDrops(); got != 1 {
		t.Fatalf("busy connection counted as idle: IdleDrops = %d, want 1", got)
	}
}

// idleRawConn starts an idle-reaping echo server and dials it with a
// raw connection, so a test controls exactly which bytes share a write.
func idleRawConn(t *testing.T, idle time.Duration) (*Server, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithIdleTimeout(idle))
	s.Register(testProg, testVers, procEcho, echoProc)
	go func() { _ = s.ServeTCP(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, conn
}

// echoRecord frames one echo call as a complete record.
func echoRecord(t *testing.T, xid uint32) []byte {
	t.Helper()
	body := buildCall(t, xid, testVers, procEcho, func(x *xdr.XDR) error {
		in := []int32{int32(xid), 2, 3}
		return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	rec := append(make([]byte, xdr.RecordMarkLen), body...)
	u := uint32(len(body)) | 1<<31
	rec[0], rec[1], rec[2], rec[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
	return rec
}

// readReplies reads n reply records and returns their XIDs.
func readReplies(t *testing.T, rrec *xdr.RecStream, n int) map[uint32]bool {
	t.Helper()
	xids := make(map[uint32]bool)
	for i := 0; i < n; i++ {
		rec, err := rrec.ReadRecord(nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		rh, _ := decodeReply(t, rec)
		xids[rh.XID] = true
	}
	return xids
}

// TestIdleStalledWithNextRecordBuffered: one write carries a full call
// and the first half of the next, then the client goes silent. The
// server may take that half in with the first record's read, so no byte
// arrives while the idle window runs out; the connection must still be
// closed as stalled mid-record, not reaped and counted as idle.
func TestIdleStalledWithNextRecordBuffered(t *testing.T) {
	const idle = 100 * time.Millisecond
	s, conn := idleRawConn(t, idle)
	defer s.Close()
	defer conn.Close()

	second := echoRecord(t, 2)
	if _, err := conn.Write(append(echoRecord(t, 1), second[:len(second)/2]...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rrec := xdr.NewRecStream(conn, 0)
	if xids := readReplies(t, rrec, 1); !xids[1] {
		t.Fatalf("replies %v, want XID 1", xids)
	}
	if _, err := rrec.ReadRecord(nil); err == nil {
		t.Fatal("a reply to the half-sent call arrived")
	}
	waitFor(t, "stalled conn to close", func() bool { return s.Conns() == 0 })
	if got := s.IdleDrops(); got != 0 {
		t.Fatalf("stall mid-record counted as idle: IdleDrops = %d, want 0", got)
	}
}

// TestIdleReapAfterBufferedRecords: one write carries two full calls,
// then silence. Both are answered from what the server read, and only
// then is the connection reaped as idle, exactly once.
func TestIdleReapAfterBufferedRecords(t *testing.T) {
	const idle = 100 * time.Millisecond
	s, conn := idleRawConn(t, idle)
	defer s.Close()
	defer conn.Close()

	if _, err := conn.Write(append(echoRecord(t, 1), echoRecord(t, 2)...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rrec := xdr.NewRecStream(conn, 0)
	if xids := readReplies(t, rrec, 2); !xids[1] || !xids[2] {
		t.Fatalf("replies %v, want XIDs 1 and 2", xids)
	}
	if _, err := rrec.ReadRecord(nil); err == nil {
		t.Fatal("unexpected third reply")
	}
	waitFor(t, "idle reap", func() bool { return s.IdleDrops() == 1 })
	waitFor(t, "reaped conn to close", func() bool { return s.Conns() == 0 })
	if got := s.IdleDrops(); got != 1 {
		t.Fatalf("IdleDrops = %d, want 1", got)
	}
}
