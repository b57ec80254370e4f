package server

import (
	"errors"
	"unsafe"

	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// RegisterTyped installs a handler whose argument and result bodies are
// marshaled by compiled wire plans: the codec-based counterpart of
// Register, used by generated stubs. A nil args plan decodes nothing; a
// nil results plan (or a nil result value) replies with an empty body.
// Argument decode failures become GARBAGE_ARGS, exactly as on the
// closure path.
//
// Alongside the generic registration, procedures whose plans carry a
// compiled flat program (any non-Generic mode) also get an entry in the
// server's fused dispatch table: requests recognized at fixed offsets
// skip the interpretive header walk, decode their arguments straight
// from the datagram or record bytes, and append the success reply —
// precompiled header plus result plan — in one pass. The generic
// registration remains the fallback for everything else and produces
// byte-identical replies.
func RegisterTyped[A, R any](s *Server, prog, vers, proc uint32,
	args *wire.Plan[A], results *wire.Plan[R], h func(arg *A) (*R, error)) {
	generic := func(dec *xdr.XDR) (Marshal, error) {
		var arg A
		if args != nil {
			if err := args.Marshal(dec, &arg); err != nil {
				return nil, errors.Join(ErrGarbageArgs, err)
			}
		}
		res, err := h(&arg)
		if err != nil {
			return nil, err
		}
		if results == nil || res == nil {
			return voidReply, nil
		}
		return func(enc *xdr.XDR) error { return results.Marshal(enc, res) }, nil
	}
	// Both entries are installed in one step: a concurrent registration
	// on the same triple then replaces (or is replaced by) this one as
	// a whole, never leaving this fused handler paired with someone
	// else's generic one.
	s.registerBoth(prog, vers, proc, generic, compileTypedProc(args, results, h))
}

// compileTypedProc builds the fused fast-path handler, or nil when the
// procedure must stay on the generic path (interpretive-mode plans).
func compileTypedProc[A, R any](args *wire.Plan[A], results *wire.Plan[R], h func(arg *A) (*R, error)) TypedProc {
	var argc, resc *wire.Codec
	if args != nil {
		argc = args.Codec()
	}
	if results != nil {
		resc = results.Codec()
	}
	if (argc != nil && argc.Mode() == wire.Generic) ||
		(resc != nil && resc.Mode() == wire.Generic) {
		return nil
	}
	// An rpcgen-emitted compiled routine registered for either plan takes
	// precedence over the plan executor: the argument decode and the
	// reply codec's engine each pick the straight-line form when one
	// exists, and both forms produce byte-identical messages.
	rc := wire.NewCompiledReplyCodec(successTemplate, resc)
	if rc == nil {
		var err error
		if rc, err = wire.NewReplyCodec(successTemplate, resc); err != nil {
			return nil
		}
	}
	decodeArg := wire.CompiledBodyDecode(argc)
	if decodeArg == nil && argc != nil {
		decodeArg = argc.DecodeBody
	}
	return func(body []byte, xid uint32, bs *xdr.BufStream) error {
		var arg A
		if decodeArg != nil {
			if err := decodeArg(body, unsafe.Pointer(&arg)); err != nil {
				return errors.Join(ErrGarbageArgs, err)
			}
		}
		res, err := h(&arg)
		if err != nil {
			return err
		}
		if resc == nil || res == nil {
			return rc.AppendHeader(bs, xid)
		}
		return rc.Append(bs, xid, unsafe.Pointer(res))
	}
}

// voidReply is the shared empty-body marshaler, so void replies do not
// allocate a closure per call.
func voidReply(*xdr.XDR) error { return nil }
