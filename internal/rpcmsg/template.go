package rpcmsg

import (
	"errors"
	"fmt"

	"specrpc/internal/xdr"
)

// This file is the header counterpart of the wire-plan specialization:
// everything in a call or reply header except the XID and the procedure
// number is constant per client (program, version, credential, verifier)
// or per server (the accepted-success status with its verifier), so the
// generic interpretive encoder re-derives the same bytes on every call.
// A template folds those constants into one precompiled byte string with
// fixed patch offsets, turning header marshaling into a single copy plus
// one or two 4-byte stores — the paper's partial-evaluation move applied
// to the RPC message layer instead of the argument codecs.
//
// Templates are compiled *through* the generic marshalers, so their
// bytes are identical to the interpretive path by construction; the
// sentinel check below and the differential fuzz tests keep that true if
// the generic marshalers ever change.

// Fixed byte offsets of the per-call fields inside a marshaled call
// header (RFC 1057 fixes the leading layout: xid, msg_type, rpcvers,
// prog, vers, proc — six 4-byte words).
const (
	callXIDOffset  = 0
	callProcOffset = 20
)

// CallXIDOffset and ReplyXIDOffset are the byte offsets of the
// transaction id inside a marshaled call and reply message: zero for
// both, as RFC 1057 leads every message with the XID (which is also what
// makes PeekXID possible). Exported so fused whole-message codecs can
// stamp the XID into a precompiled image without re-deriving the layout.
const (
	CallXIDOffset  = callXIDOffset
	ReplyXIDOffset = 0
)

// errTemplateDrift reports that the generic marshaler no longer places
// the patchable fields at their RFC offsets — a programming error caught
// at template-compile time, never on the wire path.
var errTemplateDrift = errors.New("rpcmsg: template offsets drifted from generic marshaler")

// templateSentinel is an arbitrary bit pattern planted in the patchable
// fields while compiling a template, then located and zeroed. Compiling
// through the generic marshaler and verifying the sentinels makes the
// template byte-identical to the interpretive path by construction.
const templateSentinel = 0x5CA1AB1E

// CallTemplate is a precompiled call header for one (prog, vers, cred,
// verf) tuple: the constant bytes of every call a client will ever send,
// with the XID and procedure number patched per call at fixed offsets.
// Templates are immutable and safe for concurrent use.
type CallTemplate struct {
	buf []byte
}

// NewCallTemplate compiles the header template. It fails only on
// credential or verifier material the generic encoder also rejects
// (bodies above MaxAuthBytes), so a caller that fails on this error
// loses nothing the interpretive path could have sent.
func NewCallTemplate(prog, vers uint32, cred, verf OpaqueAuth) (*CallTemplate, error) {
	hdr := CallHeader{
		XID: templateSentinel, Prog: prog, Vers: vers, Proc: templateSentinel,
		Cred: cred, Verf: verf,
	}
	bs := xdr.NewBufEncode(nil)
	if err := hdr.Marshal(xdr.NewEncoder(bs)); err != nil {
		return nil, fmt.Errorf("rpcmsg: compile call template: %w", err)
	}
	buf := append([]byte(nil), bs.Buffer()...)
	if len(buf) < callProcOffset+4 ||
		be32(buf[callXIDOffset:]) != templateSentinel ||
		be32(buf[callProcOffset:]) != templateSentinel {
		return nil, errTemplateDrift
	}
	put32(buf[callXIDOffset:], 0)
	put32(buf[callProcOffset:], 0)
	return &CallTemplate{buf: buf}, nil
}

// Len reports the size of the compiled header in bytes.
func (t *CallTemplate) Len() int { return len(t.buf) }

// AppendCall appends the header for (xid, proc) to dst and returns the
// extended slice: one copy of the constant bytes plus two 4-byte stores,
// byte-identical to CallHeader.Marshal on the same fields.
//
//specrpc:hotpath
func (t *CallTemplate) AppendCall(dst []byte, xid, proc uint32) []byte {
	base := len(dst)
	dst = append(dst, t.buf...)
	put32(dst[base+callXIDOffset:], xid)
	put32(dst[base+callProcOffset:], proc)
	return dst
}

// ReplyTemplate is a precompiled accepted-success reply header for one
// verifier: the constant prefix of every healthy reply a server sends,
// with only the XID patched per call. Immutable and safe for concurrent
// use.
type ReplyTemplate struct {
	buf []byte
}

// NewReplyTemplate compiles the template for an accepted SUCCESS reply
// carrying verf. It fails only on verifier material the generic encoder
// also rejects.
func NewReplyTemplate(verf OpaqueAuth) (*ReplyTemplate, error) {
	rh := ReplyHeader{XID: templateSentinel, Stat: MsgAccepted, Verf: verf, AcceptStat: Success}
	bs := xdr.NewBufEncode(nil)
	if err := rh.Marshal(xdr.NewEncoder(bs)); err != nil {
		return nil, fmt.Errorf("rpcmsg: compile reply template: %w", err)
	}
	buf := append([]byte(nil), bs.Buffer()...)
	if len(buf) < 4 || be32(buf) != templateSentinel {
		return nil, errTemplateDrift
	}
	put32(buf, 0)
	return &ReplyTemplate{buf: buf}, nil
}

// MustReplyTemplate is NewReplyTemplate panicking on error, for
// package-level templates over static verifiers.
func MustReplyTemplate(verf OpaqueAuth) *ReplyTemplate {
	t, err := NewReplyTemplate(verf)
	if err != nil {
		panic(err)
	}
	return t
}

// Len reports the size of the compiled header in bytes.
func (t *ReplyTemplate) Len() int { return len(t.buf) }

// AppendReply appends the success header for xid to dst and returns the
// extended slice, byte-identical to AcceptedReply(xid).Marshal.
//
//specrpc:hotpath
func (t *ReplyTemplate) AppendReply(dst []byte, xid uint32) []byte {
	base := len(dst)
	dst = append(dst, t.buf...)
	put32(dst[base:], xid)
	return dst
}

// CopyTo writes the success header for xid into dst, which must be
// exactly Len() bytes (e.g. a window reserved with BufStream.Extend).
//
//specrpc:hotpath
func (t *ReplyTemplate) CopyTo(dst []byte, xid uint32) {
	copy(dst, t.buf)
	put32(dst, xid)
}

// AcceptedSuccessBody is the decode-side counterpart of ReplyTemplate:
// a fixed-offset test for the overwhelmingly common reply shape — an
// accepted SUCCESS with a verifier within bounds — returning the results
// body that follows the header. Anything else (errors, denials,
// truncated or oversized headers) reports false, and the caller falls
// back to the generic ReplyHeader.Marshal walker; the two paths accept
// exactly the same inputs on this shape (fuzz-asserted), the fast one
// just skips the interpretive dispatch.
//
//specrpc:hotpath
func AcceptedSuccessBody(b []byte) ([]byte, bool) {
	// Fixed prefix: xid, msg_type, reply_stat, verf flavor, verf length —
	// five words — then the verf body (padded) and the accept_stat word.
	if len(b) < 24 {
		return nil, false
	}
	if be32(b[4:]) != uint32(Reply) || be32(b[8:]) != uint32(MsgAccepted) {
		return nil, false
	}
	vlen := be32(b[16:])
	if vlen > MaxAuthBytes {
		return nil, false
	}
	off := 20 + int(vlen) + xdr.Pad(int(vlen))
	if off+4 > len(b) {
		return nil, false
	}
	if be32(b[off:]) != uint32(Success) {
		return nil, false
	}
	return b[off+4:], true
}

// CallBody is the call-side counterpart of AcceptedSuccessBody: a
// fixed-offset parse of a marshaled call message, returning the routing
// triple and the argument bytes that follow the header. It accepts
// exactly the messages CallHeader.Marshal accepts (fuzz-asserted) — any
// RPC-version-2 call whose credential and verifier are within
// MaxAuthBytes — and reports false for anything else, sending the caller
// to the generic interpretive walk. This is what lets a server's
// per-procedure dispatch table skip the header walker entirely on the
// hot path.
//
//specrpc:hotpath
func CallBody(b []byte) (xid, prog, vers, proc uint32, body []byte, ok bool) {
	// Fixed prefix: xid, msg_type, rpcvers, prog, vers, proc, cred
	// flavor, cred length — eight words — then the cred body (padded),
	// the verf flavor and length words, and the verf body (padded).
	if len(b) < 32 {
		return 0, 0, 0, 0, nil, false
	}
	if be32(b[4:]) != uint32(Call) || be32(b[8:]) != Version {
		return 0, 0, 0, 0, nil, false
	}
	clen := be32(b[28:])
	if clen > MaxAuthBytes {
		return 0, 0, 0, 0, nil, false
	}
	off := 32 + int(clen) + xdr.Pad(int(clen))
	if off+8 > len(b) {
		return 0, 0, 0, 0, nil, false
	}
	vlen := be32(b[off+4:])
	if vlen > MaxAuthBytes {
		return 0, 0, 0, 0, nil, false
	}
	off += 8 + int(vlen) + xdr.Pad(int(vlen))
	if off > len(b) {
		return 0, 0, 0, 0, nil, false
	}
	return be32(b), be32(b[12:]), be32(b[16:]), be32(b[20:]), b[off:], true
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
