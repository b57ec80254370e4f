package client

import (
	"context"
	"unsafe"

	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// CallTyped performs one RPC with the argument and result bodies
// marshaled by compiled wire plans instead of hand-written closures: the
// codec-based entry point generated stubs route through. A nil plan
// marks a void side.
//
// On the package's own transports the call runs through a fused
// whole-call codec: the header template and the argument plan execute
// as one residual program over one buffer (compiled on first use of
// each procedure and cached), and the results decode straight out of
// the accepted-success reply. Procedures that cannot fuse — exotic
// auth the template compiler rejects, or interpretive-mode plans —
// take the closure adapter below, byte-identical on the wire either
// way, so typed and closure calls multiplex freely on one connection.
func CallTyped[A, R any](c Caller, proc uint32, args *wire.Plan[A], arg *A, results *wire.Plan[R], res *R) error {
	return CallTypedCtx(context.Background(), c, proc, args, arg, results, res)
}

// CallTypedCtx is CallTyped with a per-call context: the context's
// deadline and cancellation compose with the client's global timeout
// exactly as in CallCtx, on both the fused and the closure path.
func CallTypedCtx[A, R any](ctx context.Context, c Caller, proc uint32, args *wire.Plan[A], arg *A, results *wire.Plan[R], res *R) error {
	if pc, ok := c.(plannedCaller); ok {
		var argc, resc *wire.Codec
		var ap, rp unsafe.Pointer
		if args != nil {
			argc, ap = args.Codec(), unsafe.Pointer(arg)
		}
		if results != nil {
			resc, rp = results.Codec(), unsafe.Pointer(res)
		}
		if handled, err := pc.callPlanned(ctx, proc, argc, ap, resc, rp); handled {
			return err
		}
	}
	am := Void
	if args != nil {
		am = func(x *xdr.XDR) error { return args.Marshal(x, arg) }
	}
	rm := Void
	if results != nil {
		rm = func(x *xdr.XDR) error { return results.Marshal(x, res) }
	}
	return c.CallCtx(ctx, proc, am, rm)
}
