package xdr

import (
	"bytes"
	"testing"
)

func TestGetBufCapacityAndReuse(t *testing.T) {
	bp := GetBuf(100)
	if len(*bp) != 0 {
		t.Fatalf("len = %d, want 0", len(*bp))
	}
	if cap(*bp) < 100 {
		t.Fatalf("cap = %d, want >= 100", cap(*bp))
	}
	*bp = append(*bp, 1, 2, 3)
	PutBuf(bp)

	big := GetBuf(4 * DefaultPoolBuf)
	if cap(*big) < 4*DefaultPoolBuf {
		t.Fatalf("cap = %d, want >= %d", cap(*big), 4*DefaultPoolBuf)
	}
	PutBuf(big)
	PutBuf(nil) // must not panic
}

func TestBufStreamEncodeGrows(t *testing.T) {
	bs := NewBufEncode(make([]byte, 0, 4))
	enc := NewEncoder(bs)
	for i := int32(0); i < 100; i++ {
		v := i
		if err := enc.Long(&v); err != nil {
			t.Fatal(err)
		}
	}
	if bs.Pos() != 400 {
		t.Fatalf("pos = %d, want 400", bs.Pos())
	}
	// The bytes must round-trip through the mem decoder.
	dec := NewDecoder(NewMemDecode(bs.Buffer()))
	for i := int32(0); i < 100; i++ {
		var v int32
		if err := dec.Long(&v); err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("value %d decoded as %d", i, v)
		}
	}
}

func TestBufStreamRejectsDecode(t *testing.T) {
	bs := NewBufEncode(nil)
	var v int32
	if err := bs.GetLong(&v); err != ErrBadOp {
		t.Fatalf("GetLong err = %v, want ErrBadOp", err)
	}
	if err := bs.GetBytes(make([]byte, 1)); err != ErrBadOp {
		t.Fatalf("GetBytes err = %v, want ErrBadOp", err)
	}
}

func TestBufStreamSetPosTruncates(t *testing.T) {
	bs := NewBufEncode(nil)
	_ = bs.PutBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err := bs.SetPos(4); err != nil {
		t.Fatal(err)
	}
	if bs.Pos() != 4 {
		t.Fatalf("pos = %d, want 4", bs.Pos())
	}
	if err := bs.SetPos(8); err != ErrBadPos {
		t.Fatalf("forward seek err = %v, want ErrBadPos", err)
	}
	bs.Reset()
	if bs.Pos() != 0 {
		t.Fatalf("pos after reset = %d", bs.Pos())
	}
}

// BenchmarkMarshalPooledBuf measures the pooled marshal path used by the
// multiplexed client: borrow, encode, return. Steady state performs zero
// buffer allocations per call.
func BenchmarkMarshalPooledBuf(b *testing.B) {
	b.ReportAllocs()
	var v int32
	for i := 0; i < b.N; i++ {
		bp := GetBuf(DefaultPoolBuf)
		bs := NewBufEncode(*bp)
		enc := XDR{Op: Encode, Stream: bs}
		for j := 0; j < 64; j++ {
			v = int32(j)
			if err := enc.Long(&v); err != nil {
				b.Fatal(err)
			}
		}
		*bp = bs.Buffer()
		PutBuf(bp)
	}
}

// BenchmarkMarshalFreshBuf is the seed's per-call allocation pattern: a
// fresh buffer every call. Compare allocs/op against the pooled path.
func BenchmarkMarshalFreshBuf(b *testing.B) {
	b.ReportAllocs()
	var v int32
	for i := 0; i < b.N; i++ {
		buf := make([]byte, DefaultPoolBuf)
		mem := NewMemEncode(buf)
		enc := XDR{Op: Encode, Stream: mem}
		for j := 0; j < 64; j++ {
			v = int32(j)
			if err := enc.Long(&v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestPutBufKeepsRecordSizedBuffers pins the pool bound against the
// record reader: a buffer that took a maxFragStep record in one
// ReadRecord step goes back to the pool, and one grown past maxPoolBuf
// does not. sync.Pool may drop a Put (it does so at random under the
// race detector) or hand the buffer to another P, so the positive check
// retries; nothing makes Get return a buffer that was never kept.
func TestPutBufKeepsRecordSizedBuffers(t *testing.T) {
	var wire bytes.Buffer
	if err := NewRecStream(&wire, 0).WriteRecord(make([]byte, RecordMarkLen+maxFragStep)); err != nil {
		t.Fatal(err)
	}
	bp := GetBuf(0)
	rec, err := NewRecStream(&wire, 0).ReadRecord((*bp)[:0])
	if err != nil {
		t.Fatal(err)
	}
	*bp = rec
	if cap(rec) > maxPoolBuf {
		t.Fatalf("a %d-byte record left cap %d, past the %d pool bound", maxFragStep, cap(rec), maxPoolBuf)
	}
	kept := false
	for i := 0; i < 20 && !kept; i++ {
		PutBuf(bp)
		got := GetBuf(0)
		kept = got == bp
		if !kept {
			PutBuf(got)
		}
	}
	if !kept {
		t.Fatalf("record-sized buffer (cap %d) never came back from the pool", cap(*bp))
	}

	big := make([]byte, 0, maxPoolBuf+1)
	PutBuf(&big)
	var held []*[]byte
	for i := 0; i < 8; i++ {
		got := GetBuf(0)
		if cap(*got) > maxPoolBuf {
			t.Fatalf("pool returned a buffer of cap %d, past the %d bound", cap(*got), maxPoolBuf)
		}
		held = append(held, got)
	}
	for _, b := range held {
		PutBuf(b)
	}
}
