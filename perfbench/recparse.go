package main

import (
	"encoding/binary"

	"specrpc/internal/rpcmsg"
)

// headCap is how much of each record body the parser keeps: an RPC call
// header with AUTH_NULL credentials (40 bytes) plus the argument array's
// count and element 0, with room to spare.
const headCap = 64

// lastFragFlag marks the final fragment of a record (RFC 5531 §11).
const lastFragFlag = uint32(1) << 31

// record is one complete record seen by a recParser.
type record struct {
	// tag is the tag of the feed that carried the record's first byte.
	tag  int64
	head [headCap]byte
	n    int
}

// bytes returns the first ≤ headCap bytes of the record body (the
// concatenated fragment payloads, marks stripped).
func (r *record) bytes() []byte { return r.head[:r.n] }

// recParser follows one direction of a record-marked stream through the
// byte slices of successive Read or Write calls. It keeps no more than a
// record mark and the head of the current record, so a wrapper can feed
// it every buffer a connection moves without copying bodies.
type recParser struct {
	mark  [4]byte
	markN int  // bytes of a split record mark seen so far
	left  int  // payload bytes still due in the current fragment
	last  bool // the current fragment ends its record
	open  bool // a record has begun and not yet completed
	cur   record
	done  []record
}

// feed consumes the next buffer moved on the stream and returns the
// records it completed, in stream order. tag is stamped on every record
// whose first byte is in b. The returned slice is reused by the next
// feed.
func (p *recParser) feed(b []byte, tag int64) []record {
	p.done = p.done[:0]
	for len(b) > 0 {
		if p.left == 0 {
			// Between fragments: the next bytes are (part of) a mark.
			if !p.open {
				p.open = true
				p.cur.tag, p.cur.n = tag, 0
			}
			n := copy(p.mark[p.markN:], b)
			p.markN += n
			b = b[n:]
			if p.markN < len(p.mark) {
				break
			}
			p.markN = 0
			u := binary.BigEndian.Uint32(p.mark[:])
			p.last, p.left = u&lastFragFlag != 0, int(u&^lastFragFlag)
			if p.left == 0 && p.last {
				p.finish()
			}
			continue
		}
		n := min(p.left, len(b))
		if p.cur.n < headCap {
			p.cur.n += copy(p.cur.head[p.cur.n:], b[:n])
		}
		p.left -= n
		b = b[n:]
		if p.left == 0 && p.last {
			p.finish()
		}
	}
	return p.done
}

func (p *recParser) finish() {
	p.done = append(p.done, p.cur)
	p.open = false
}

// callIDs extracts the XID and the call id from the head of an RPC
// message: a call's argument element 0 or an accepted reply's result
// element 0 (both are the echo array's count word then element 0). ok is
// false for anything else, such as an error reply.
func callIDs(h []byte) (xid, id uint32, ok bool) {
	if len(h) < 8 {
		return 0, 0, false
	}
	var body []byte
	switch binary.BigEndian.Uint32(h[4:]) {
	case uint32(rpcmsg.Call):
		_, _, _, _, body, ok = rpcmsg.CallBody(h)
	case uint32(rpcmsg.Reply):
		body, ok = rpcmsg.AcceptedSuccessBody(h)
	}
	if !ok || len(body) < 8 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(h), binary.BigEndian.Uint32(body[4:]), true
}
