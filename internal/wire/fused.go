package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// This file fuses the two halves of the specialized message path into
// whole-message codecs: the per-connection header template (rpcmsg) and
// the per-type compiled marshal plan (this package) stop being stitched
// together at run time and become one residual program per procedure —
// the paper's "optimized" configuration, where clnt_call through
// argument encode is a single specialized routine.
//
// A CallCodec emits a complete call message: one bounds reservation
// covers the header image plus every leading fixed-size run of the
// argument plan, the XID and procedure number live at fixed offsets
// inside the image (the procedure is stamped at compile time, the XID
// per call), and only the variable-sized tail of the plan still walks
// instruction by instruction. A ReplyCodec does the same for the
// accepted-success reply on the server and decodes results straight out
// of the raw reply bytes on the client, with no intermediate XDR handle.
//
// Both codecs are compiled through the template and plan layers they
// replace, so their bytes are identical to the template-copy + plan
// pair by construction; the differential fuzz tests keep that true.
// The body behind the header image comes from one of two engines,
// chosen at construction: the fused plan body built here, or the
// rpcgen-emitted routine registered for the plan (compiled.go).

// fixedRun is one precomputed store of a fused image: a fixed-size plan
// instruction whose wire offset inside the single reservation is known
// at compile time.
type fixedRun struct {
	op   op
	off  uintptr // Go offset within the value
	woff int     // wire offset within the reserved window
	n    int     // units (opUnits/opUnits8/opBools) or bytes (opBytes)
}

// fusedBody is the compiled argument or result half of a whole-message
// codec: the leading fixed-size runs folded into the header's bounds
// reservation, and the variable-sized tail left to the plan executor.
type fusedBody struct {
	fixed     []fixedRun
	fixedWire int // wire bytes the fixed runs cover
	tail      []instr
	chunk     int
}

// compileFusedBody splits a codec's flat program into the runs that can
// share the header's bounds reservation and the variable tail. A nil
// codec (a void side) compiles to the empty body. Chunked codecs keep
// everything in the tail: bounding each reservation to ChunkUnits is the
// point of that configuration, so folding runs into one big window would
// change what is being measured.
func compileFusedBody(c *Codec) (fusedBody, error) {
	if c == nil {
		return fusedBody{}, nil
	}
	if c.mode == Generic {
		return fusedBody{}, fmt.Errorf("wire: cannot fuse a generic codec")
	}
	b := fusedBody{chunk: c.chunk()}
	prog := c.prog
	if c.mode == Chunked {
		b.tail = prog
		return b, nil
	}
	i := 0
fold:
	for ; i < len(prog); i++ {
		in := prog[i]
		var wireBytes int
		switch in.op {
		case opUnits, opBools:
			wireBytes = 4 * in.n
		case opUnits8:
			wireBytes = 8 * in.n
		case opBytes:
			wireBytes = in.n + xdr.Pad(in.n)
		default:
			// First variable-sized instruction: everything from here on
			// runs through the plan executor.
			break fold
		}
		b.fixed = append(b.fixed, fixedRun{op: in.op, off: in.off, woff: b.fixedWire, n: in.n})
		b.fixedWire += wireBytes
	}
	if i < len(prog) {
		b.tail = prog[i:]
	}
	return b, nil
}

// encodeFixed executes the fused stores into the already-reserved
// window: no growth checks, no dispatch through the stream — the
// residual loop of the whole-call specialization.
//
//specrpc:hotpath
func encodeFixed(w []byte, runs []fixedRun, p unsafe.Pointer) {
	for i := range runs {
		r := &runs[i]
		q := unsafe.Add(p, r.off)
		dst := w[r.woff:]
		switch r.op {
		case opUnits:
			for j := 0; j < r.n; j++ {
				binary.BigEndian.PutUint32(dst[4*j:], *(*uint32)(unsafe.Add(q, uintptr(j)*4)))
			}
		case opUnits8:
			for j := 0; j < r.n; j++ {
				binary.BigEndian.PutUint64(dst[8*j:], *(*uint64)(unsafe.Add(q, uintptr(j)*8)))
			}
		case opBools:
			for j := 0; j < r.n; j++ {
				var u uint32
				if *(*byte)(unsafe.Add(q, j)) != 0 {
					u = 1
				}
				binary.BigEndian.PutUint32(dst[4*j:], u)
			}
		case opBytes:
			copy(dst[:r.n], unsafe.Slice((*byte)(q), r.n))
			for j := r.n; j < r.n+xdr.Pad(r.n); j++ {
				dst[j] = 0
			}
		}
	}
}

// appendMessage emits one whole message through the codec's engine.
// The compiled engine (app) writes everything itself. On the fused
// engine a single Extend covers the header image plus the fixed runs,
// the XID is stamped at its fixed offset, and any variable tail
// continues through the plan executor on the same buffer. Keeping the
// engine switch here keeps the codecs' Append methods inlinable.
//
//specrpc:hotpath
func appendMessage(bs *xdr.BufStream, hdr []byte, xidOff int, body *fusedBody, app appendFunc, xid uint32, p unsafe.Pointer) error {
	if app != nil {
		return app(bs, hdr, xid, p)
	}
	w := bs.Extend(len(hdr) + body.fixedWire)
	copy(w, hdr)
	binary.BigEndian.PutUint32(w[xidOff:], xid)
	if len(body.fixed) > 0 {
		encodeFixed(w[len(hdr):], body.fixed, p)
	}
	if len(body.tail) > 0 {
		return encodeProg(bs, body.tail, p, body.chunk)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Call side

// CallCodec is a compiled whole-call encoder for one (header template,
// procedure, argument codec) triple: the fused image of everything a
// client sends for that procedure except the XID and the argument
// bytes. Immutable and safe for concurrent use.
type CallCodec struct {
	hdr  []byte     // template bytes with the procedure stamped, XID zeroed
	body fusedBody  // fused engine; unused when app is set
	app  appendFunc // compiled engine (NewCompiledCallCodec)
}

// NewCallCodec fuses tmpl and the argument codec for proc, always on
// the fused engine. A nil args codec marks a void argument side; a
// Generic-mode codec is rejected (there is no flat program to fuse —
// callers keep the interpretive path).
func NewCallCodec(tmpl *rpcmsg.CallTemplate, proc uint32, args *Codec) (*CallCodec, error) {
	if tmpl == nil {
		return nil, fmt.Errorf("wire: nil call template")
	}
	body, err := compileFusedBody(args)
	if err != nil {
		return nil, err
	}
	return &CallCodec{hdr: tmpl.AppendCall(nil, 0, proc), body: body}, nil
}

// Append emits the complete call message for (xid, arg) onto bs:
// byte-identical to CallTemplate.AppendCall followed by the argument
// plan's Encode, in one pass. arg must point at a value of the argument
// codec's Go type (ignored when the codec was compiled void).
//
//specrpc:hotpath
func (cc *CallCodec) Append(bs *xdr.BufStream, xid uint32, arg unsafe.Pointer) error {
	return appendMessage(bs, cc.hdr, rpcmsg.CallXIDOffset, &cc.body, cc.app, xid, arg)
}

// ---------------------------------------------------------------------------
// Reply side

// ReplyCodec is a compiled whole-reply codec for one (reply template,
// result codec) pair: the server encodes accepted-success replies
// through it in one pass, and the client decodes results straight out
// of the raw reply bytes. A nil template compiles a decode-only codec
// (the client never emits replies). Immutable and safe for concurrent
// use.
type ReplyCodec struct {
	hdr  []byte     // success template bytes, XID zeroed; nil when decode-only
	body fusedBody  // fused engine; unused when app is set
	app  appendFunc // compiled engine (NewCompiledReplyCodec)
	dec  decodeFunc // result decoder; nil for void results
}

// NewReplyCodec fuses tmpl and the result codec, always on the fused
// engine. A nil results codec marks a void result side; a Generic-mode
// codec is rejected.
func NewReplyCodec(tmpl *rpcmsg.ReplyTemplate, results *Codec) (*ReplyCodec, error) {
	body, err := compileFusedBody(results)
	if err != nil {
		return nil, err
	}
	rc := &ReplyCodec{body: body}
	if results != nil {
		rc.dec = results.DecodeBody
	}
	if tmpl != nil {
		rc.hdr = tmpl.AppendReply(nil, 0)
	}
	return rc, nil
}

// errDecodeOnly reports an encode call on a ReplyCodec built without a
// template: a wiring mistake, constant by nature, and returned from the
// hot append path where fmt.Errorf would allocate per call.
var errDecodeOnly = errors.New("wire: reply codec is decode-only")

// Append emits the complete accepted-success reply for (xid, res) onto
// bs: byte-identical to ReplyTemplate.AppendReply followed by the
// result plan's Encode, in one pass.
//
//specrpc:hotpath
func (rc *ReplyCodec) Append(bs *xdr.BufStream, xid uint32, res unsafe.Pointer) error {
	if rc.hdr == nil {
		return errDecodeOnly
	}
	return appendMessage(bs, rc.hdr, rpcmsg.ReplyXIDOffset, &rc.body, rc.app, xid, res)
}

// AppendHeader emits the success header alone (a void or nil result
// body), byte-identical to ReplyTemplate.AppendReply.
func (rc *ReplyCodec) AppendHeader(bs *xdr.BufStream, xid uint32) error {
	if rc.hdr == nil {
		return errDecodeOnly
	}
	w := bs.Extend(len(rc.hdr))
	copy(w, rc.hdr)
	binary.BigEndian.PutUint32(w[rpcmsg.ReplyXIDOffset:], xid)
	return nil
}

// DecodeReply recognizes an accepted-success reply at fixed offsets and
// decodes the results directly from the raw message into the value at
// res, with no intermediate handle. It reports handled=false — and
// decodes nothing — for any other reply shape (error statuses, denials,
// ill-formed headers), sending the caller to the generic interpretive
// path for the full failure detail; the accept set of the fixed-offset
// test matches the generic walker's exactly (fuzz-asserted). A void
// result side or a nil res decodes nothing.
//
//specrpc:hotpath
func (rc *ReplyCodec) DecodeReply(raw []byte, res unsafe.Pointer) (bool, error) {
	body, ok := rpcmsg.AcceptedSuccessBody(raw)
	if !ok {
		return false, nil
	}
	if res == nil || rc.dec == nil {
		return true, nil
	}
	return true, rc.dec(body, res)
}

// ---------------------------------------------------------------------------
// Typed facades

// CallPlan is the typed façade over a CallCodec, mirroring Plan[T]:
// a whole-call marshal plan for argument values of type A.
type CallPlan[A any] struct {
	cc *CallCodec
}

// NewCallPlan fuses the template and the argument plan for proc.
func NewCallPlan[A any](tmpl *rpcmsg.CallTemplate, proc uint32, args *Plan[A]) (*CallPlan[A], error) {
	var argc *Codec
	if args != nil {
		argc = args.Codec()
	}
	cc, err := NewCallCodec(tmpl, proc, argc)
	if err != nil {
		return nil, err
	}
	return &CallPlan[A]{cc: cc}, nil
}

// AppendCall emits the complete call message for (xid, arg) onto bs.
func (p *CallPlan[A]) AppendCall(bs *xdr.BufStream, xid uint32, arg *A) error {
	return p.cc.Append(bs, xid, unsafe.Pointer(arg))
}

// Codec exposes the untyped fused codec.
func (p *CallPlan[A]) Codec() *CallCodec { return p.cc }

// ReplyPlan is the typed façade over a ReplyCodec: a whole-reply
// marshal plan for result values of type R.
type ReplyPlan[R any] struct {
	rc *ReplyCodec
}

// NewReplyPlan fuses the template and the result plan. A nil template
// compiles a decode-only plan.
func NewReplyPlan[R any](tmpl *rpcmsg.ReplyTemplate, results *Plan[R]) (*ReplyPlan[R], error) {
	var resc *Codec
	if results != nil {
		resc = results.Codec()
	}
	rc, err := NewReplyCodec(tmpl, resc)
	if err != nil {
		return nil, err
	}
	return &ReplyPlan[R]{rc: rc}, nil
}

// AppendReply emits the complete accepted-success reply for (xid, res).
func (p *ReplyPlan[R]) AppendReply(bs *xdr.BufStream, xid uint32, res *R) error {
	return p.rc.Append(bs, xid, unsafe.Pointer(res))
}

// DecodeReply decodes an accepted-success reply's results into *res,
// reporting handled=false for any other reply shape.
func (p *ReplyPlan[R]) DecodeReply(raw []byte, res *R) (bool, error) {
	return p.rc.DecodeReply(raw, unsafe.Pointer(res))
}

// Codec exposes the untyped fused codec.
func (p *ReplyPlan[R]) Codec() *ReplyCodec { return p.rc }
