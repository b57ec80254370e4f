package wire

import (
	"sync"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// This file is the runtime half of the compiled-stub rung: generated
// packages register their rpcgen-emitted straight-line routines against
// the package plan they were derived from, and NewCompiledCallCodec /
// NewCompiledReplyCodec build a CallCodec or ReplyCodec whose body
// engine is that routine instead of the fused plan executor. The header
// image, XID stamp, success-shape check and decode-only guard are the
// codec's own, shared by both engines, so a procedure's messages are
// byte-identical whichever engine it runs on; procedures without a
// registered routine keep the fused engine.

// The emitted routines stamp the XID at offset 0 of the message image;
// that is only correct while both header layouts keep it there.
var _ = [1]struct{}{}[rpcmsg.CallXIDOffset|rpcmsg.ReplyXIDOffset]

// Compiled is one registered pair of emitted routines for values of type
// T: Append writes hdr + XID + value as one straight-line pass, Decode
// reads a value back out of raw body bytes. Either half may be nil.
type Compiled[T any] struct {
	Append func(bs *xdr.BufStream, hdr []byte, xid uint32, v *T) error
	Decode func(body []byte, v *T) error
}

// compiledImpl is the untyped registry entry: the generic wrappers
// erase T once at registration so the hot path pays no per-call
// conversion beyond the pointer cast.
type compiledImpl struct {
	app appendFunc
	dec decodeFunc
}

// appendFunc is an emitted routine's signature: it emits one whole
// message, the header image hdr with xid stamped at offset 0 followed
// by the value at p.
type appendFunc func(bs *xdr.BufStream, hdr []byte, xid uint32, p unsafe.Pointer) error

// decodeFunc decodes a value at p out of raw body bytes.
type decodeFunc func(body []byte, p unsafe.Pointer) error

// compiledCodecs maps a plan's *Codec identity to its registered
// compiled routines. Registration happens in generated-package inits,
// lookups on first use of each procedure; sync.Map fits that
// write-once, read-many shape.
var compiledCodecs sync.Map // *Codec -> *compiledImpl

// RegisterCompiled installs emitted routines for p's codec; generated
// packages call it from init. Registering again replaces the entry.
func RegisterCompiled[T any](p *Plan[T], c Compiled[T]) {
	if p == nil {
		return
	}
	impl := &compiledImpl{}
	if c.Append != nil {
		app := c.Append
		impl.app = func(bs *xdr.BufStream, hdr []byte, xid uint32, q unsafe.Pointer) error {
			return app(bs, hdr, xid, (*T)(q))
		}
	}
	if c.Decode != nil {
		dec := c.Decode
		impl.dec = func(body []byte, q unsafe.Pointer) error {
			return dec(body, (*T)(q))
		}
	}
	compiledCodecs.Store(p.Codec(), impl)
}

// compiledFor looks up the registered routines for c (nil when none).
func compiledFor(c *Codec) *compiledImpl {
	if c == nil {
		return nil
	}
	if v, ok := compiledCodecs.Load(c); ok {
		return v.(*compiledImpl)
	}
	return nil
}

// CompiledBodyDecode returns the registered straight-line body decoder
// for c, or nil when c has none: the server's typed dispatch prefers it
// over the plan-executor DecodeBody.
func CompiledBodyDecode(c *Codec) func(body []byte, p unsafe.Pointer) error {
	if impl := compiledFor(c); impl != nil {
		return impl.dec
	}
	return nil
}

// NewCompiledCallCodec builds the whole-call codec for proc on the
// compiled engine, or nil when args has no registered compiled append
// routine (void sides included: the emitted routines always carry a
// value).
func NewCompiledCallCodec(tmpl *rpcmsg.CallTemplate, proc uint32, args *Codec) *CallCodec {
	if tmpl == nil {
		return nil
	}
	impl := compiledFor(args)
	if impl == nil || impl.app == nil {
		return nil
	}
	return &CallCodec{hdr: tmpl.AppendCall(nil, 0, proc), app: impl.app}
}

// NewCompiledReplyCodec builds the reply codec for results on the
// compiled engine, or nil when the needed direction has no registered
// routine: with a template the encoder must exist (the server side),
// without one the decoder must (the client side, decode-only).
func NewCompiledReplyCodec(tmpl *rpcmsg.ReplyTemplate, results *Codec) *ReplyCodec {
	impl := compiledFor(results)
	if impl == nil || (tmpl == nil && impl.dec == nil) || (tmpl != nil && impl.app == nil) {
		return nil
	}
	rc := &ReplyCodec{app: impl.app, dec: impl.dec}
	if tmpl != nil {
		rc.hdr = tmpl.AppendReply(nil, 0)
	}
	return rc
}
