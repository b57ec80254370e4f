package main

import (
	"net"
	"sync/atomic"
	"time"
)

// stamps holds one call's span boundaries in ns since the tracer's base;
// 0 means not seen. Each field is written by whichever goroutine sees the
// event (caller, connection wrapper, handler), hence the atomics.
type stamps struct {
	entry, ret     atomic.Int64 // CallTyped entry and return
	cwStart        atomic.Int64 // start of the client write carrying the request
	srEnd          atomic.Int64 // end of the server read completing the request (TCP)
	hEntry, hExit  atomic.Int64 // the echo handler
	swStart        atomic.Int64 // start of the server write carrying the reply (TCP)
	crEnd          atomic.Int64 // end of the client read completing the reply
	busy           atomic.Int64 // ns inside writes, shared out per record, both ends
	reqXID, repXID atomic.Uint32
}

// ioCounts counts the reads, writes and written records of one end.
type ioCounts struct {
	reads, writes, records atomic.Int64
	maxWrite, maxRecs      atomic.Int64 // largest write in bytes and in records
}

// tracer is the in-memory span store of a traced run: one stamps slot
// per call id, filled from the benchmark's own wrappers around the
// sockets it hands to the client and server layers.
type tracer struct {
	base           time.Time
	calls          []stamps
	client, server ioCounts
	unattributed   atomic.Int64 // records whose call id could not be read
	overflow       atomic.Int64 // calls whose id is past the table
}

func newTracer(maxCalls int) *tracer {
	return &tracer{base: time.Now(), calls: make([]stamps, maxCalls+1)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) at0(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

// at returns the slot of call id, or nil for id 0 (set-up calls) and ids
// past the table.
func (t *tracer) at(id uint32) *stamps {
	if id == 0 || int(id) >= len(t.calls) {
		return nil
	}
	return &t.calls[id]
}

// setOnce records the first occurrence of an event; a retransmitted
// datagram or a duplicate reply keeps the original stamp.
func setOnce(v *atomic.Int64, ns int64) { v.CompareAndSwap(0, ns) }

func storeMax(v *atomic.Int64, x int64) {
	for {
		if old := v.Load(); x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// tracedConn wraps one end of a TCP connection. It follows the record
// stream in each direction, so every Read and Write is counted and every
// record is attributed to its call by the call id in its body. The
// record layer has one reader and one writer per connection, so the
// parsers need no lock.
type tracedConn struct {
	net.Conn
	tr       *tracer
	io       *ioCounts
	server   bool
	rp, wp   recParser
	pendBusy int64 // write time not yet shared out to a completed record
}

func (c *tracedConn) Write(b []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Write(b)
	c.pendBusy += c.tr.now() - t0
	c.io.writes.Add(1)
	storeMax(&c.io.maxWrite, int64(n))
	recs := c.wp.feed(b[:n], t0)
	if len(recs) == 0 {
		return n, err
	}
	c.io.records.Add(int64(len(recs)))
	storeMax(&c.io.maxRecs, int64(len(recs)))
	share := c.pendBusy / int64(len(recs))
	c.pendBusy = 0
	for i := range recs {
		xid, id, ok := callIDs(recs[i].bytes())
		if !ok {
			c.tr.unattributed.Add(1)
			continue
		}
		st := c.tr.at(id)
		if st == nil {
			continue
		}
		if c.server {
			setOnce(&st.swStart, recs[i].tag)
			st.repXID.Store(xid)
		} else {
			setOnce(&st.cwStart, recs[i].tag)
			st.reqXID.Store(xid)
		}
		st.busy.Add(share)
	}
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	t := c.tr.now()
	c.io.reads.Add(1)
	for _, r := range c.rp.feed(b[:n], t) {
		_, id, ok := callIDs(r.bytes())
		if !ok {
			c.tr.unattributed.Add(1)
			continue
		}
		st := c.tr.at(id)
		if st == nil {
			continue
		}
		if c.server {
			setOnce(&st.srEnd, t)
		} else {
			setOnce(&st.crEnd, t)
		}
	}
	return n, err
}

// tracedListener hands the server traced connections.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, io: &l.tr.server, server: true}, nil
}

// tracedPacketConn wraps a datagram client's socket. The server's socket
// stays unwrapped: batchio uses recvmmsg/sendmmsg only on a *net.UDPConn.
type tracedPacketConn struct {
	net.PacketConn
	tr *tracer
}

func (c *tracedPacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	t0 := c.tr.now()
	n, err := c.PacketConn.WriteTo(b, addr)
	busy := c.tr.now() - t0
	c.tr.client.writes.Add(1)
	if xid, id, ok := callIDs(b); ok {
		if st := c.tr.at(id); st != nil {
			setOnce(&st.cwStart, t0)
			st.reqXID.Store(xid)
			st.busy.Add(busy)
		}
	}
	return n, err
}

func (c *tracedPacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(b)
	t := c.tr.now()
	c.tr.client.reads.Add(1)
	if xid, id, ok := callIDs(b[:n]); ok {
		if st := c.tr.at(id); st != nil {
			setOnce(&st.crEnd, t)
			st.repXID.Store(xid)
		}
	}
	return n, addr, err
}
