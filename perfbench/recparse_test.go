package main

import (
	"encoding/binary"
	"testing"

	"specrpc/internal/rpcmsg"
)

// callMsg is an AUTH_NULL call message whose argument is the echo array
// [id, 7, 8].
func callMsg(xid, id uint32) []byte {
	tmpl, err := rpcmsg.NewCallTemplate(0x20000b01, 1, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		panic(err)
	}
	b := tmpl.AppendCall(nil, xid, 1)
	for _, w := range []uint32{3, id, 7, 8} {
		b = binary.BigEndian.AppendUint32(b, w)
	}
	return b
}

// frame splits body into record-marked fragments of at most frag bytes.
func frame(body []byte, frag int) []byte {
	var out []byte
	for {
		n := min(frag, len(body))
		mark := uint32(n)
		if n == len(body) {
			mark |= lastFragFlag
		}
		out = binary.BigEndian.AppendUint32(out, mark)
		out = append(out, body[:n]...)
		body = body[n:]
		if len(body) == 0 {
			return out
		}
	}
}

// feedAll feeds the stream in the given chunks, tagging chunk i with i,
// and returns (tag, tag of the completing feed, xid, id) per record.
func feedAll(t *testing.T, stream []byte, cuts ...int) [][4]uint32 {
	t.Helper()
	var p recParser
	var got [][4]uint32
	prev := 0
	for i, c := range append(cuts, len(stream)) {
		for _, r := range p.feed(stream[prev:c], int64(i)) {
			xid, id, ok := callIDs(r.bytes())
			if !ok {
				t.Fatalf("record completed in chunk %d has no call id: % x", i, r.bytes())
			}
			got = append(got, [4]uint32{uint32(r.tag), uint32(i), xid, id})
		}
		prev = c
	}
	return got
}

func expect(t *testing.T, got, want [][4]uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got (start tag, end tag, xid, id) %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRecParseMarkSplitAcrossReads(t *testing.T) {
	s := frame(callMsg(0x11, 5), 1<<20)
	// Chunk 0 holds two bytes of the mark; the record starts there.
	expect(t, feedAll(t, s, 2), [][4]uint32{{0, 1, 0x11, 5}})
	// A mark split 1+1+2 over three reads, then the body.
	expect(t, feedAll(t, s, 1, 2, 4), [][4]uint32{{0, 3, 0x11, 5}})
}

func TestRecParsePipelinedRecordsInOneRead(t *testing.T) {
	var s []byte
	for i := uint32(1); i <= 3; i++ {
		s = append(s, frame(callMsg(0x100+i, i), 1<<20)...)
	}
	// All three in one read, then the same stream with the third record's
	// mark split off the end of the first read.
	expect(t, feedAll(t, s), [][4]uint32{{0, 0, 0x101, 1}, {0, 0, 0x102, 2}, {0, 0, 0x103, 3}})
	cut := 2*len(frame(callMsg(0, 0), 1<<20)) + 3
	expect(t, feedAll(t, s, cut), [][4]uint32{{0, 0, 0x101, 1}, {0, 0, 0x102, 2}, {0, 1, 0x103, 3}})
}

func TestRecParseMultiFragmentRecord(t *testing.T) {
	msg := callMsg(0x22, 9)
	// Fragments of 10 bytes: the head the ids come from spans five of
	// them, and the parser must strip every interior mark.
	s := frame(msg, 10)
	expect(t, feedAll(t, s), [][4]uint32{{0, 0, 0x22, 9}})
	// Followed by a single-fragment record in the same read.
	s = append(s, frame(callMsg(0x23, 10), 1<<20)...)
	expect(t, feedAll(t, s), [][4]uint32{{0, 0, 0x22, 9}, {0, 0, 0x23, 10}})
}

func TestRecParseBodyInPieces(t *testing.T) {
	s := frame(callMsg(0x33, 12), 1<<20)
	// Every byte in its own read: the record starts in read 0 and
	// completes in the last one.
	cuts := make([]int, 0, len(s)-1)
	for i := 1; i < len(s); i++ {
		cuts = append(cuts, i)
	}
	expect(t, feedAll(t, s, cuts...), [][4]uint32{{0, uint32(len(s) - 1), 0x33, 12}})
	// A long body after a complete head: nothing completes until the
	// last piece, and the head stays what the first bytes were.
	long := callMsg(0x34, 13)
	long = binary.BigEndian.AppendUint32(long[:len(long)-16], 4000)
	long = binary.BigEndian.AppendUint32(long, 13)
	long = append(long, make([]byte, 4*3999)...)
	s = frame(long, 4000)
	expect(t, feedAll(t, s, 100, 5000, 9000), [][4]uint32{{0, 3, 0x34, 13}})
}

func TestCallIDsReply(t *testing.T) {
	rep := rpcmsg.MustReplyTemplate(rpcmsg.None()).AppendReply(nil, 0x44)
	for _, w := range []uint32{2, 77, 1} {
		rep = binary.BigEndian.AppendUint32(rep, w)
	}
	xid, id, ok := callIDs(rep)
	if !ok || xid != 0x44 || id != 77 {
		t.Fatalf("callIDs(reply) = %#x, %d, %t; want 0x44, 77, true", xid, id, ok)
	}
	if _, _, ok := callIDs(rep[:20]); ok {
		t.Fatal("callIDs accepted a truncated reply head")
	}
}
