package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// fusedModes are the configurations the whole-call codecs compile for;
// Generic has no flat program and is rejected by construction.
var fusedModes = []Mode{Specialized, Chunked}

func testCallTemplate(t *testing.T) *rpcmsg.CallTemplate {
	t.Helper()
	tmpl, err := rpcmsg.NewCallTemplate(0x20000532, 1, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// templatePlusPlan is the reference two-pass encoding the fused codec
// replaces: template copy, then the plan appending behind it.
func templatePlusPlan(t *testing.T, tmpl *rpcmsg.CallTemplate, p *Plan[everything], xid, proc uint32, v *everything) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	bs.SetBuffer(tmpl.AppendCall(nil, xid, proc))
	if err := p.Encode(xdr.NewEncoder(bs), v); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), bs.Buffer()...)
}

func TestCallPlanMatchesTemplatePlusPlan(t *testing.T) {
	tmpl := testCallTemplate(t)
	v := sampleEverything()
	for _, m := range fusedModes {
		p := MustPlan[everything](everythingType(), m)
		cp, err := NewCallPlan(tmpl, 7, p)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want := templatePlusPlan(t, tmpl, p, 99, 7, &v)
		bs := xdr.NewBufEncode(nil)
		if err := cp.AppendCall(bs, 99, &v); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(bs.Buffer(), want) {
			t.Errorf("%v: fused call differs from template+plan\n got %x\nwant %x", m, bs.Buffer(), want)
		}
	}
}

func TestCallPlanVoidArgs(t *testing.T) {
	tmpl := testCallTemplate(t)
	cc, err := NewCallCodec(tmpl, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := xdr.NewBufEncode(nil)
	if err := cc.Append(bs, 42, nil); err != nil {
		t.Fatal(err)
	}
	if want := tmpl.AppendCall(nil, 42, 3); !bytes.Equal(bs.Buffer(), want) {
		t.Errorf("void call differs from template\n got %x\nwant %x", bs.Buffer(), want)
	}
}

func TestFusedRejectsGeneric(t *testing.T) {
	tmpl := testCallTemplate(t)
	p := MustPlan[everything](everythingType(), Generic)
	if _, err := NewCallPlan(tmpl, 1, p); err == nil {
		t.Error("NewCallPlan accepted a generic plan")
	}
	if _, err := NewReplyPlan(rpcmsg.MustReplyTemplate(rpcmsg.None()), p); err == nil {
		t.Error("NewReplyPlan accepted a generic plan")
	}
}

func TestReplyPlanMatchesTemplatePlusPlan(t *testing.T) {
	rtmpl := rpcmsg.MustReplyTemplate(rpcmsg.None())
	v := sampleEverything()
	for _, m := range fusedModes {
		p := MustPlan[everything](everythingType(), m)
		rp, err := NewReplyPlan(rtmpl, p)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		ref := xdr.NewBufEncode(nil)
		ref.SetBuffer(rtmpl.AppendReply(nil, 5))
		if err := p.Encode(xdr.NewEncoder(ref), &v); err != nil {
			t.Fatal(err)
		}
		bs := xdr.NewBufEncode(nil)
		if err := rp.AppendReply(bs, 5, &v); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(bs.Buffer(), ref.Buffer()) {
			t.Errorf("%v: fused reply differs from template+plan\n got %x\nwant %x", m, bs.Buffer(), ref.Buffer())
		}

		// The decode side recovers the value straight from the raw reply.
		var got everything
		handled, err := rp.DecodeReply(bs.Buffer(), &got)
		if !handled || err != nil {
			t.Fatalf("%v: DecodeReply handled=%v err=%v", m, handled, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%v: decode mismatch\n got %+v\nwant %+v", m, got, v)
		}
	}
}

func TestReplyPlanHeaderOnly(t *testing.T) {
	rtmpl := rpcmsg.MustReplyTemplate(rpcmsg.None())
	rc, err := NewReplyCodec(rtmpl, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := xdr.NewBufEncode(nil)
	if err := rc.AppendHeader(bs, 11); err != nil {
		t.Fatal(err)
	}
	if want := rtmpl.AppendReply(nil, 11); !bytes.Equal(bs.Buffer(), want) {
		t.Errorf("header-only reply differs\n got %x\nwant %x", bs.Buffer(), want)
	}
}

func TestReplyPlanRejectsNonSuccess(t *testing.T) {
	p := MustPlan[everything](everythingType(), Specialized)
	// Both engines, decode-only. The compiled routines registered here
	// run through the plan executor behind an emitted-style header
	// stamp: only the codec around them is under test.
	RegisterCompiled(p, Compiled[everything]{
		Append: func(bs *xdr.BufStream, hdr []byte, xid uint32, v *everything) error {
			w := bs.Extend(len(hdr))
			copy(w, hdr)
			binary.BigEndian.PutUint32(w, xid)
			return p.Encode(xdr.NewEncoder(bs), v)
		},
		Decode: func(body []byte, v *everything) error {
			return p.Codec().DecodeBody(body, unsafe.Pointer(v))
		},
	})
	fused, err := NewReplyCodec(nil, p.Codec())
	if err != nil {
		t.Fatal(err)
	}
	compiled := NewCompiledReplyCodec(nil, p.Codec())
	if compiled == nil {
		t.Fatal("no compiled decode-only codec for a registered decoder")
	}
	v := sampleEverything()
	success := xdr.NewBufEncode(nil)
	success.SetBuffer(rpcmsg.MustReplyTemplate(rpcmsg.None()).AppendReply(nil, 9))
	if err := p.Encode(xdr.NewEncoder(success), &v); err != nil {
		t.Fatal(err)
	}
	for name, rc := range map[string]*ReplyCodec{"fused": fused, "compiled": compiled} {
		// An accepted-but-failed reply must not be decoded: handled=false
		// sends the caller to the generic walk for the failure detail.
		bs := xdr.NewBufEncode(nil)
		rh := rpcmsg.ErrorReply(9, rpcmsg.GarbageArgs)
		if err := rh.Marshal(xdr.NewEncoder(bs)); err != nil {
			t.Fatal(err)
		}
		var got everything
		if handled, err := rc.DecodeReply(bs.Buffer(), unsafe.Pointer(&got)); handled || err != nil {
			t.Fatalf("%s: error reply: handled=%v err=%v", name, handled, err)
		}
		if handled, err := rc.DecodeReply([]byte{1, 2}, unsafe.Pointer(&got)); handled || err != nil {
			t.Fatalf("%s: short reply: handled=%v err=%v", name, handled, err)
		}
		// A success reply with a nil result pointer is handled and
		// decodes nothing.
		if handled, err := rc.DecodeReply(success.Buffer(), nil); !handled || err != nil {
			t.Fatalf("%s: nil result: handled=%v err=%v", name, handled, err)
		}
		// Appending through a decode-only codec is a programming error.
		if err := rc.Append(bs, 1, unsafe.Pointer(&v)); !errors.Is(err, errDecodeOnly) {
			t.Errorf("%s: Append on decode-only codec: err = %v, want errDecodeOnly", name, err)
		}
		if err := rc.AppendHeader(bs, 1); !errors.Is(err, errDecodeOnly) {
			t.Errorf("%s: AppendHeader on decode-only codec: err = %v, want errDecodeOnly", name, err)
		}
	}
}

// TestCallPlanFixedFusion verifies the single-reservation property: a
// fully fixed-size argument folds into the header's bounds check with
// nothing left for the instruction walker.
func TestCallPlanFixedFusion(t *testing.T) {
	type pair struct {
		A int32
		B int32
	}
	pt := StructT("pair", F("a", Int32T()), F("b", Int32T()))
	p := MustPlan[pair](pt, Specialized)
	cc, err := NewCallCodec(testCallTemplate(t), 1, p.Codec())
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.body.tail) != 0 || len(cc.body.fixed) != 1 || cc.body.fixedWire != 8 {
		t.Errorf("pair did not fuse into the header reservation: %+v", cc.body)
	}
	// Chunked keeps the instruction walker (bounded runs are the point).
	pc := MustPlan[pair](pt, Chunked)
	ccc, err := NewCallCodec(testCallTemplate(t), 1, pc.Codec())
	if err != nil {
		t.Fatal(err)
	}
	if len(ccc.body.fixed) != 0 || len(ccc.body.tail) == 0 {
		t.Errorf("chunked body unexpectedly folded: %+v", ccc.body)
	}
}

// TestFusedEncodeAllocFree pins the whole fused path at zero
// allocations per operation once buffers are warm: one call encode, one
// reply encode, one reply decode.
func TestFusedEncodeAllocFree(t *testing.T) {
	tmpl := testCallTemplate(t)
	rtmpl := rpcmsg.MustReplyTemplate(rpcmsg.None())
	v := sampleEverything()
	p := MustPlan[everything](everythingType(), Specialized)
	cp, err := NewCallPlan(tmpl, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplyPlan(rtmpl, p)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 0, 4096)
	bs := xdr.NewBufEncode(buf)
	if n := testing.AllocsPerRun(200, func() {
		bs.SetBuffer(buf[:0])
		if err := cp.AppendCall(bs, 3, &v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused call encode: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		bs.SetBuffer(buf[:0])
		if err := rp.AppendReply(bs, 3, &v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused reply encode: %v allocs/op, want 0", n)
	}

	bs.SetBuffer(buf[:0])
	if err := rp.AppendReply(bs, 3, &v); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), bs.Buffer()...)
	// Decode into a value whose slices already have the decoded shape,
	// so backing arrays are reused: the decode-side steady state of an
	// echo workload. String fields are the one irreducible cost — Go
	// strings are immutable, so every decode mints them fresh; this
	// type carries four (Name plus three Words).
	got := sampleEverything()
	if n := testing.AllocsPerRun(200, func() {
		handled, err := rp.DecodeReply(raw, &got)
		if !handled || err != nil {
			t.Fatal(handled, err)
		}
	}); n > 4 {
		t.Errorf("fused reply decode: %v allocs/op, want the 4 string mints only", n)
	}

	// A pointer-free result type — the live benchmark's int-array echo —
	// decodes with no allocations at all.
	ints := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	ip := MustPlan[[]int32](VarArrayT(0, Int32T()), Specialized)
	irp, err := NewReplyPlan(rtmpl, ip)
	if err != nil {
		t.Fatal(err)
	}
	bs.SetBuffer(buf[:0])
	if err := irp.AppendReply(bs, 4, &ints); err != nil {
		t.Fatal(err)
	}
	iraw := append([]byte(nil), bs.Buffer()...)
	igot := make([]int32, len(ints))
	if n := testing.AllocsPerRun(200, func() {
		handled, err := irp.DecodeReply(iraw, &igot)
		if !handled || err != nil {
			t.Fatal(handled, err)
		}
	}); n != 0 {
		t.Errorf("fused int-array decode: %v allocs/op, want 0", n)
	}
}
