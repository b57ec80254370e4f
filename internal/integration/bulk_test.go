package integration

import (
	"runtime"
	"testing"

	"specrpc/internal/xdr"
)

// TestTCPBulkBuffersRecycle: a bulk round trip (16384 int32 each way,
// 64 KiB of payload per direction) must recycle the record-sized
// buffers it moves through: the client's marshal and read buffers and
// the server's read and reply buffers. What a steady-state call still
// allocates is the handler's decoded argument and the caller's decoded
// result, about two payloads. When the pool dropped buffers this size,
// a call allocated about twelve. The bound of eight leaves room for the
// race detector, under which sync.Pool drops a quarter of all puts at
// random: each drop makes a later call regrow a default-size buffer,
// 1.25x at a time, so a -race run averages five to six payloads a call.
func TestTCPBulkBuffersRecycle(t *testing.T) {
	const (
		n       = 16384
		payload = 4 * n
		calls   = 200
	)
	s, _ := newEchoServer()
	c := dialTCPServer(t, s)
	in := make([]int32, n)
	for i := range in {
		in[i] = int32(i)
	}
	call := func() {
		var out []int32
		if err := c.Call(procEcho, echoArgs(&in),
			func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) }); err != nil {
			t.Fatal(err)
		}
		if len(out) != n || out[n-1] != n-1 {
			t.Fatalf("echo returned %d elements", len(out))
		}
	}
	for i := 0; i < 20; i++ {
		call() // fill the pool
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.0f bytes allocated per call (%.2f payloads)", perCall, perCall/payload)
	if perCall > 8*payload {
		t.Fatalf("%.0f bytes allocated per bulk call, want at most %d (8 payloads): record buffers are not recycled",
			perCall, 8*payload)
	}
}
