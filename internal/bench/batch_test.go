package bench

import (
	"math"
	"testing"
)

// The syscalls/op pins here are counter-based and deterministic where
// the mode's arithmetic is scheduling-independent: "off" issues exactly
// one client write per call, "calls" exactly one per batchGroup when
// one goroutine drives each connection.

func runBatch(t *testing.T, o BatchOptions) BatchResult {
	t.Helper()
	res, err := Batch(o)
	if err != nil {
		t.Fatalf("Batch(%+v): %v", o, err)
	}
	return res
}

// TestBatchTCPOffWritesPerOp: with batching off, every call is one
// client write syscall — the 1.0 baseline the other modes are measured
// against.
func TestBatchTCPOffWritesPerOp(t *testing.T) {
	res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "off",
		Clients: 1, Depth: 1, Calls: 64})
	if res.ClientWritesPerOp != 1.0 {
		t.Fatalf("off-mode client writes/op = %v, want exactly 1.0", res.ClientWritesPerOp)
	}
	if res.ServerReadsPerOp <= 0 || res.ServerWritesPerOp <= 0 {
		t.Fatalf("server counters missing: reads/op=%v writes/op=%v",
			res.ServerReadsPerOp, res.ServerWritesPerOp)
	}
}

// TestBatchTCPCallsWritesPerOp: ONC batched calls. When one goroutine
// drives each connection, a group's batchGroup-1 queued records and its
// terminal call leave in one coalesced write, so writes/op is exactly
// 1/batchGroup; that is pinned at 1 client and at 4 clients, both at
// depth 1.
//
// With depth goroutines sharing one connection the count depends on
// scheduling, in both directions: concurrent terminal calls can share
// one write, and a leader can flush another worker's queued records
// before that worker's terminal call, which then writes alone. What the
// batcher guarantees is a bound. Each worker has at most one terminal
// call pending, so one write carries at most depth terminal records;
// every terminal record leaves in exactly one write; hence writes >=
// (Calls/batchGroup)/depth, i.e. writes/op >= 1/(batchGroup*depth).
// Above, writes/op < 1 is the reduction against the off baseline.
func TestBatchTCPCallsWritesPerOp(t *testing.T) {
	for _, shape := range []struct{ clients, depth int }{{1, 1}, {4, 1}} {
		res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "calls",
			Clients: shape.clients, Depth: shape.depth, Calls: 64})
		want := 1.0 / batchGroup
		if math.Abs(res.ClientWritesPerOp-want) > 1e-9 {
			t.Fatalf("%d clients x depth %d: calls-mode client writes/op = %v, want exactly %v",
				shape.clients, shape.depth, res.ClientWritesPerOp, want)
		}
	}
	const depth = 4
	res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "calls",
		Clients: 1, Depth: depth, Calls: 64})
	if lo := 1.0 / (batchGroup * depth); res.ClientWritesPerOp < lo-1e-9 || res.ClientWritesPerOp >= 1.0 {
		t.Fatalf("depth %d: calls-mode client writes/op = %v, want in [%v, 1)",
			depth, res.ClientWritesPerOp, lo)
	}
}

// TestBatchTCPOnBounded: group-commit coalescing never writes more than
// once per record (each record leaves in exactly one flush), so even
// under adversarial scheduling writes/op is bounded by the baseline.
func TestBatchTCPOnBounded(t *testing.T) {
	res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "on",
		Clients: 2, Depth: 4, Calls: 400})
	if res.ClientWritesPerOp > 1.0 {
		t.Fatalf("on-mode client writes/op = %v, exceeds the one-write-per-record bound",
			res.ClientWritesPerOp)
	}
	if res.ClientWritesPerOp <= 0 {
		t.Fatalf("on-mode client writes/op = %v, counters not wired", res.ClientWritesPerOp)
	}
}

// TestBatchTCPReadsPerOp: with one call in flight, each request and
// each reply arrives as one whole record, and the record reader takes
// its mark and body in one read. So reads/op is 1 on both ends, plus
// the read that sees the connection close; the bound is the one
// TestBatchUDPModes uses. Reading the mark and the body separately
// gave 2.
func TestBatchTCPReadsPerOp(t *testing.T) {
	for _, mode := range []string{"off", "on"} {
		res := runBatch(t, BatchOptions{Transport: "tcp", Mode: mode,
			Clients: 1, Depth: 1, Calls: 64})
		for _, end := range []struct {
			name  string
			reads float64
		}{{"client", res.ClientReadsPerOp}, {"server", res.ServerReadsPerOp}} {
			if end.reads <= 0 || end.reads > 1.1 {
				t.Fatalf("%s: %s reads/op = %v, want in (0, 1.1]", mode, end.name, end.reads)
			}
		}
	}
}

// TestBatchUDPModes: both datagram modes run end to end over real
// loopback sockets and report server-side counters from the batch-I/O
// layer; each recvmmsg/recvfrom call yields at least one message, so
// reads/op can never exceed ~1 (retransmissions aside).
func TestBatchUDPModes(t *testing.T) {
	for _, mode := range []string{"off", "on"} {
		res := runBatch(t, BatchOptions{Transport: "udp", Mode: mode,
			Clients: 2, Depth: 4, Calls: 200})
		if res.ServerReadsPerOp <= 0 || res.ServerWritesPerOp <= 0 {
			t.Fatalf("%s: server counters missing: reads/op=%v writes/op=%v",
				mode, res.ServerReadsPerOp, res.ServerWritesPerOp)
		}
		if res.ServerReadsPerOp > 1.1 {
			t.Fatalf("%s: server reads/op = %v, above the one-message-per-call bound",
				mode, res.ServerReadsPerOp)
		}
		if mode == "off" && res.Batched {
			t.Fatalf("off: mmsg path reported active with batch size 1")
		}
	}
}

// TestBatchOptionValidation: calls mode is stream-only and unknown
// modes are rejected rather than silently measured as something else.
func TestBatchOptionValidation(t *testing.T) {
	if _, err := Batch(BatchOptions{Transport: "udp", Mode: "calls"}); err == nil {
		t.Fatal("udp batched-calls accepted; want error")
	}
	if _, err := Batch(BatchOptions{Transport: "tcp", Mode: "bogus"}); err == nil {
		t.Fatal("unknown mode accepted; want error")
	}
}

// TestFormatBatch smoke-checks the table renderer.
func TestFormatBatch(t *testing.T) {
	out := FormatBatch([]BatchResult{{
		Transport: "tcp", Mode: "calls", Clients: 1, Depth: 4,
		Calls: 64, ClientWritesPerOp: 0.125,
	}})
	if out == "" {
		t.Fatal("empty table")
	}
}
