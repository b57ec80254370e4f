package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
	"specrpc/perfbench/echorpc"
)

// codecTimes times the wire and rpcmsg entry points one call runs, on an
// argument of the workload's size drawn from seed, through the same
// public constructors the client and server use. Values are ns per
// operation, each the median of several timed batches.
func codecTimes(n int, seed int64) (map[string]float64, error) {
	codec := echorpc.PlanEchoarr.Codec()
	tmpl, err := rpcmsg.NewCallTemplate(echorpc.EchoProgV1Prog, echorpc.EchoProgV1Vers, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		return nil, fmt.Errorf("call template: %w", err)
	}
	cc := wire.NewCompiledCallCodec(tmpl, echorpc.EchoProgV1ProcEcho, codec)
	rc := wire.NewCompiledReplyCodec(rpcmsg.MustReplyTemplate(rpcmsg.None()), codec)
	decodeArg := wire.CompiledBodyDecode(codec)
	if cc == nil || rc == nil || decodeArg == nil {
		return nil, errors.New("codec: the generated stubs registered no compiled codec")
	}

	rng := rand.New(rand.NewSource(seed))
	arg := make(echorpc.Echoarr, n)
	for i := range arg {
		arg[i] = int32(rng.Uint32())
	}
	const xid = 0x5eed
	var reqBS, repBS xdr.BufStream
	reqBS.SetBuffer(make([]byte, 0, 64+4*n))
	repBS.SetBuffer(make([]byte, 0, 64+4*n))
	if err := cc.Append(&reqBS, xid, unsafe.Pointer(&arg)); err != nil {
		return nil, fmt.Errorf("codec: call encode: %w", err)
	}
	if err := rc.Append(&repBS, xid, unsafe.Pointer(&arg)); err != nil {
		return nil, fmt.Errorf("codec: reply encode: %w", err)
	}
	req, rep := reqBS.Buffer(), repBS.Buffer()
	_, _, _, _, body, ok := rpcmsg.CallBody(req)
	if !ok {
		return nil, errors.New("codec: CallBody rejected the encoded call")
	}
	got := make(echorpc.Echoarr, n)
	if err := decodeArg(body, unsafe.Pointer(&got)); err != nil || !sameInts(got, arg) {
		return nil, fmt.Errorf("codec: argument decode does not round-trip (%v)", err)
	}
	if handled, err := rc.DecodeReply(rep, unsafe.Pointer(&got)); !handled || err != nil || !sameInts(got, arg) {
		return nil, fmt.Errorf("codec: reply decode does not round-trip (%v)", err)
	}

	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	out := map[string]float64{
		"wire.call_encode_ns": perOp(func() {
			reqBS.Reset()
			check(cc.Append(&reqBS, xid, unsafe.Pointer(&arg)))
		}),
		"wire.arg_decode_ns": perOp(func() { check(decodeArg(body, unsafe.Pointer(&got))) }),
		"wire.reply_encode_ns": perOp(func() {
			repBS.Reset()
			check(rc.Append(&repBS, xid, unsafe.Pointer(&arg)))
		}),
		"wire.reply_decode_ns": perOp(func() {
			_, err := rc.DecodeReply(rep, unsafe.Pointer(&got))
			check(err)
		}),
		"rpcmsg.call_body_ns": perOp(func() {
			if _, _, _, _, _, ok := rpcmsg.CallBody(req); !ok {
				check(errors.New("CallBody rejected the call"))
			}
		}),
	}
	if failed != nil {
		return nil, fmt.Errorf("codec: %w", failed)
	}
	return out, nil
}

// perOp returns the median ns per call of op over 15 batches of about a
// millisecond each.
func perOp(op func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if time.Since(t0) >= time.Millisecond || iters >= 1<<24 {
			break
		}
		iters *= 2
	}
	samples := make([]float64, 15)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		samples[s] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}
