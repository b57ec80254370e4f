// Code generated by rpcgen from an XDR interface definition. DO NOT EDIT.

package echorpc

import (
	"encoding/binary"
	"fmt"

	rpcclient "specrpc/internal/client"
	rpcserver "specrpc/internal/server"
	wire "specrpc/internal/wire"
	xdr "specrpc/internal/xdr"
)

var _ = fmt.Errorf // referenced by generated validation paths

// Echoarr is the IDL typedef echoarr.
type Echoarr []int32

// wireTypeEchoarr describes echoarr on the wire; planEchoarr is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeEchoarr = wire.VarArrayT(0, wire.Int32T())
	planEchoarr     = wire.MustPlan[Echoarr](wireTypeEchoarr, wire.Specialized)
)

// Marshal encodes or decodes the value through its compiled wire plan.
func (v *Echoarr) Marshal(x *xdr.XDR) error { return planEchoarr.Marshal(x, v) }

// EchoProgV1 identifies the RPC program ECHO_PROG (version 1).
const (
	EchoProgV1Prog     = uint32(536873729)
	EchoProgV1Vers     = uint32(1)
	EchoProgV1ProcEcho = uint32(1)
)

// EchoProgV1Client is a typed client for ECHO_PROG version 1.
type EchoProgV1Client struct {
	C rpcclient.Caller
}

// Echo calls procedure 1 through compiled wire plans, fused
// with the call header into a whole-call codec on supporting transports.
func (c *EchoProgV1Client) Echo(arg *Echoarr) (*Echoarr, error) {
	res := new(Echoarr)
	return res, rpcclient.CallTyped(c.C, EchoProgV1ProcEcho, planEchoarr, arg, planEchoarr, res)
}

// EchoProgV1Handler is the service interface for ECHO_PROG version 1.
type EchoProgV1Handler interface {
	Echo(arg *Echoarr) (*Echoarr, error)
}

// RegisterEchoProgV1 installs h's procedures on srv.
func RegisterEchoProgV1(srv *rpcserver.Server, h EchoProgV1Handler) {
	rpcserver.RegisterTyped(srv, EchoProgV1Prog, EchoProgV1Vers, EchoProgV1ProcEcho, planEchoarr, planEchoarr, h.Echo)
}

// compiledAppendEchoarr is the rpcgen-emitted straight-line encoder for Echoarr:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, and variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendEchoarr(bs *xdr.BufStream, hdr []byte, xid uint32, v *Echoarr) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	s2 := (*v)
	n3 := len(s2)
	w4 := bs.Extend(4 + n3*4)
	binary.BigEndian.PutUint32(w4, uint32(n3))
	o5 := w4[4:]
	for i6 := range s2 {
		binary.BigEndian.PutUint32(o5[0:], uint32(s2[i6]))
		o5 = o5[4:]
	}
	return nil
}

// compiledDecodeEchoarr is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeEchoarr(body []byte, v *Echoarr) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u7 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n8 := int(u7)
	if int64(n8)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if len((*v)) != n8 {
		if n8 == 0 {
			(*v) = nil
		} else {
			(*v) = make(Echoarr, n8)
		}
	}
	s9 := (*v)
	b10 := body[pos:]
	for i11 := range s9 {
		s9[i11] = int32(binary.BigEndian.Uint32(b10[0:]))
		b10 = b10[4:]
	}
	pos += n8 * 4
	return nil
}

func init() {
	wire.RegisterCompiled(planEchoarr, wire.Compiled[Echoarr]{Append: compiledAppendEchoarr, Decode: compiledDecodeEchoarr})
}
