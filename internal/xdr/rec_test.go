package xdr

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// chunkedReader returns data in fixed-size chunks to exercise short reads.
type chunkedReader struct {
	data  []byte
	chunk int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

type rwPair struct {
	io.Reader
	io.Writer
}

func TestRecStreamRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 16)
	enc := NewEncoder(w)
	for i := int32(0); i < 20; i++ {
		v := i * 3
		if err := enc.Long(&v); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}

	r := NewRecStream(&rwPair{Reader: &wire}, 16)
	dec := NewDecoder(r)
	for i := int32(0); i < 20; i++ {
		var v int32
		if err := dec.Long(&v); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if v != i*3 {
			t.Fatalf("element %d = %d, want %d", i, v, i*3)
		}
	}
	// The record is exhausted: one more read overflows.
	var v int32
	if err := dec.Long(&v); !errors.Is(err, ErrOverflow) {
		t.Fatalf("past-end err = %v, want ErrOverflow", err)
	}
}

func TestRecStreamFragmentation(t *testing.T) {
	// 100 bytes of payload through 16-byte fragments = 7 fragments.
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 16)
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := w.PutBytes(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}
	wantWire := 100 + 7*4 // payload + 7 fragment headers
	if wire.Len() != wantWire {
		t.Fatalf("wire bytes = %d, want %d", wire.Len(), wantWire)
	}

	// Reassembly must be byte-identical regardless of how the transport
	// fragments reads (property over chunk size).
	f := func(chunk uint8) bool {
		c := int(chunk%13) + 1
		r := NewRecStream(&rwPair{Reader: &chunkedReader{data: wire.Bytes(), chunk: c}}, 16)
		got := make([]byte, 100)
		if err := r.GetBytes(got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecStreamMultipleRecords(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 8)
	enc := NewEncoder(w)
	for rec := int32(0); rec < 3; rec++ {
		for i := int32(0); i < 5; i++ {
			v := rec*100 + i
			if err := enc.Long(&v); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.EndRecord(); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRecStream(&rwPair{Reader: &wire}, 8)
	dec := NewDecoder(r)
	for rec := int32(0); rec < 3; rec++ {
		// Only read part of each record, then skip to the next —
		// exercising xdrrec_skiprecord.
		var v int32
		if err := dec.Long(&v); err != nil {
			t.Fatalf("record %d: %v", rec, err)
		}
		if v != rec*100 {
			t.Fatalf("record %d first = %d, want %d", rec, v, rec*100)
		}
		if err := r.SkipRecord(); err != nil {
			t.Fatalf("skip record %d: %v", rec, err)
		}
	}
}

func TestRecStreamEmptyRecord(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 8)
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}
	if wire.Len() != 4 {
		t.Fatalf("empty record wire = %d bytes, want 4", wire.Len())
	}
	r := NewRecStream(&rwPair{Reader: &wire}, 8)
	var v int32
	if err := r.GetLong(&v); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

func TestRecStreamHeaderBits(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 64)
	v := int32(7)
	if err := w.PutLong(v); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}
	h := wire.Bytes()[:4]
	if h[0]&0x80 == 0 {
		t.Fatal("last-fragment bit not set on final fragment")
	}
	length := uint32(h[0]&0x7f)<<24 | uint32(h[1])<<16 | uint32(h[2])<<8 | uint32(h[3])
	if length != 4 {
		t.Fatalf("fragment length = %d, want 4", length)
	}
}

func TestRecStreamWriteError(t *testing.T) {
	w := NewRecStream(&rwPair{Writer: failWriter{}}, 8)
	err := w.EndRecord()
	if err == nil {
		t.Fatal("expected write error")
	}
	// The error is sticky.
	if err2 := w.PutLong(1); err2 == nil {
		t.Fatal("expected sticky error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("broken pipe") }

func TestRecStreamSetPosUnsupported(t *testing.T) {
	w := NewRecStream(&rwPair{Writer: io.Discard}, 8)
	if err := w.SetPos(0); !errors.Is(err, ErrBadPos) {
		t.Fatalf("err = %v, want ErrBadPos", err)
	}
}

func TestRecStreamPos(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 8)
	if w.Pos() != 0 {
		t.Fatalf("initial pos = %d", w.Pos())
	}
	if err := w.PutLong(1); err != nil {
		t.Fatal(err)
	}
	if w.Pos() != 4 {
		t.Fatalf("pos after one long = %d, want 4", w.Pos())
	}
	// Crossing a fragment boundary keeps counting record bytes.
	if err := w.PutLong(2); err != nil {
		t.Fatal(err)
	}
	if err := w.PutLong(3); err != nil {
		t.Fatal(err)
	}
	if w.Pos() != 12 {
		t.Fatalf("pos after three longs = %d, want 12", w.Pos())
	}
}

func TestReadRecordBulk(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 16)
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := w.PutBytes(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}
	// A second record to prove ReadRecord stops at the boundary.
	if err := w.PutBytes([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}

	r := NewRecStream(&rwPair{Reader: &wire}, 16)
	got, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("record 1 = %v", got)
	}
	got, err = r.ReadRecord(got[:0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "next" {
		t.Fatalf("record 2 = %q", got)
	}
}

func TestReadRecordAppends(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 8)
	if err := w.PutLong(7); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}
	r := NewRecStream(&rwPair{Reader: &wire}, 8)
	prefix := []byte{0xaa, 0xbb}
	got, err := r.ReadRecord(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != 0xaa || got[5] != 7 {
		t.Fatalf("appended record = %v", got)
	}
}

// preframed builds a WriteRecord buffer: the reserved mark hole followed
// by payload.
func preframed(payload []byte) []byte {
	return append(make([]byte, RecordMarkLen), payload...)
}

func TestWriteRecordRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&wire, 0)
	payload := []byte("one-syscall record framing")
	if err := w.WriteRecord(preframed(payload)); err != nil {
		t.Fatal(err)
	}
	r := NewRecStream(&wire, 0)
	rec, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, payload) {
		t.Fatalf("got %q, want %q", rec, payload)
	}
}

// TestWriteRecordMatchesStreamingPath: for payloads below the fragment
// size (at exactly the fragment size the streaming path eagerly flushes
// a non-final fragment and then an empty final one) the single-write
// path must be byte-identical on the wire to PutBytes+EndRecord — old
// and new peers interoperate.
func TestWriteRecordMatchesStreamingPath(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 100, DefaultFragmentSize - 1} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var oldWire, newWire bytes.Buffer
		ow := NewRecStream(&oldWire, 0)
		if err := ow.PutBytes(payload); err != nil {
			t.Fatal(err)
		}
		if err := ow.EndRecord(); err != nil {
			t.Fatal(err)
		}
		nw := NewRecStream(&newWire, 0)
		if err := nw.WriteRecord(preframed(payload)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oldWire.Bytes(), newWire.Bytes()) {
			t.Fatalf("n=%d: wire bytes diverged:\n old %x\n new %x", n, oldWire.Bytes(), newWire.Bytes())
		}
	}
}

// TestWriteRecordSingleWrite asserts the copy-free property observable
// from outside: the mark and payload arrive in exactly one Write call,
// even past the fragment buffer size.
func TestWriteRecordSingleWrite(t *testing.T) {
	var cw countingWriter
	w := NewRecStream(&rwPair{Writer: &cw}, 0)
	payload := make([]byte, 3*DefaultFragmentSize)
	if err := w.WriteRecord(preframed(payload)); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("WriteRecord issued %d writes, want 1", cw.writes)
	}
	if cw.bytes != RecordMarkLen+len(payload) {
		t.Fatalf("wrote %d bytes, want %d", cw.bytes, RecordMarkLen+len(payload))
	}

	// The streaming path pays two writes per fragment on the same record.
	cw = countingWriter{}
	ow := NewRecStream(&rwPair{Writer: &cw}, 0)
	if err := ow.PutBytes(payload); err != nil {
		t.Fatal(err)
	}
	if err := ow.EndRecord(); err != nil {
		t.Fatal(err)
	}
	if cw.writes <= 1 {
		t.Fatalf("streaming path issued %d writes; counting is broken", cw.writes)
	}
}

type countingWriter struct {
	writes int
	bytes  int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestWriteRecordAfterPutBytes: pending streamed data completes through
// the fragmenting path, producing one record carrying both.
func TestWriteRecordAfterPutBytes(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&wire, 0)
	if err := w.PutLong(42); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(preframed([]byte("tail"))); err != nil {
		t.Fatal(err)
	}
	r := NewRecStream(&wire, 0)
	rec, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{0, 0, 0, 42}, "tail"...)
	if !bytes.Equal(rec, want) {
		t.Fatalf("got %x, want %x", rec, want)
	}
}

func TestWriteRecordTooShort(t *testing.T) {
	w := NewRecStream(&rwPair{Writer: io.Discard}, 0)
	if err := w.WriteRecord([]byte{1, 2}); err == nil {
		t.Fatal("accepted a buffer shorter than the record mark")
	}
}

func TestWriteRecordStickyError(t *testing.T) {
	w := NewRecStream(&rwPair{Writer: failWriter{}}, 0)
	if err := w.WriteRecord(preframed([]byte("x"))); err == nil {
		t.Fatal("expected write error")
	}
	if err := w.WriteRecord(preframed([]byte("y"))); err == nil {
		t.Fatal("expected sticky error")
	}
}

// TestWriteRecordAfterFlushedFragment: an open record whose bytes were
// already flushed (PutBytes of exactly one fragment leaves wpos == 0
// but the record unfinished) must also complete through the fragmenting
// path — the fast path would inject a record mark into the open record.
func TestWriteRecordAfterFlushedFragment(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&wire, 0)
	head := make([]byte, DefaultFragmentSize) // flushes eagerly, wpos back to 0
	for i := range head {
		head[i] = byte(i)
	}
	if err := w.PutBytes(head); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(preframed([]byte("tail"))); err != nil {
		t.Fatal(err)
	}
	// A fresh WriteRecord on the now-sealed stream is its own record.
	if err := w.WriteRecord(preframed([]byte("second"))); err != nil {
		t.Fatal(err)
	}
	r := NewRecStream(&wire, 0)
	rec1, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), head...), "tail"...); !bytes.Equal(rec1, want) {
		t.Fatalf("first record: got %d bytes, want %d of head+tail", len(rec1), len(want))
	}
	rec2, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec2, []byte("second")) {
		t.Fatalf("second record: got %q", rec2)
	}
}

// countingReader counts Read calls on the reader under a record stream.
type countingReader struct {
	io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.Reader.Read(p)
}

func (c *countingReader) Write(p []byte) (int, error) { return len(p), nil }

// TestReadRecordReadsAhead pins the read-ahead: a short record that
// arrives whole costs one read (the mark and body used to cost one
// each), records that arrive together share one read, and a body at
// least as long as the receive buffer is read straight into the
// destination once the buffered head is used up.
func TestReadRecordReadsAhead(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&wire, 0)
	for i := 0; i < 8; i++ {
		if err := w.WriteRecord(preframed([]byte("pipelined call"))); err != nil {
			t.Fatal(err)
		}
	}
	bulk := bytes.Repeat([]byte{0x5a}, 4*readAhead)
	if err := w.WriteRecord(preframed(bulk)); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), wire.Bytes()[:RecordMarkLen+len("pipelined call")]...)

	one := &countingReader{Reader: bytes.NewReader(first)}
	if _, err := NewRecStream(one, 0).ReadRecord(nil); err != nil {
		t.Fatal(err)
	}
	if one.reads != 1 {
		t.Fatalf("one short record took %d reads, want 1", one.reads)
	}

	cr := &countingReader{Reader: &wire}
	r := NewRecStream(cr, 0)
	for i := 0; i < 8; i++ {
		rec, err := r.ReadRecord(nil)
		if err != nil || string(rec) != "pipelined call" {
			t.Fatalf("record %d = %q, %v", i, rec, err)
		}
	}
	if cr.reads != 1 {
		t.Fatalf("8 records arriving together took %d reads, want 1", cr.reads)
	}
	rec, err := r.ReadRecord(nil)
	if err != nil || !bytes.Equal(rec, bulk) {
		t.Fatalf("bulk record: %d bytes, %v", len(rec), err)
	}
	if cr.reads != 2 {
		t.Fatalf("bulk tail took %d more reads, want 1", cr.reads-1)
	}
}

// TestInRecord pins the query the idle reaper relies on: it is true as
// soon as any byte of the next record is received, even when that byte
// only sits in the receive buffer behind a completed record.
func TestInRecord(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&wire, 0)
	for _, p := range []string{"first", "second"} {
		if err := w.WriteRecord(preframed([]byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	head := wire.Bytes()[:RecordMarkLen+len("first")+2] // the first record and 2 mark bytes
	r := NewRecStream(&rwPair{Reader: bytes.NewReader(head)}, 0)
	if r.InRecord() {
		t.Fatal("InRecord true before any read")
	}
	if _, err := r.ReadRecord(nil); err != nil {
		t.Fatal(err)
	}
	if !r.InRecord() {
		t.Fatal("InRecord false with part of the next mark buffered")
	}

	r = NewRecStream(&rwPair{Reader: bytes.NewReader(wire.Bytes()[:RecordMarkLen+len("first")])}, 0)
	if _, err := r.ReadRecord(nil); err != nil {
		t.Fatal(err)
	}
	if r.InRecord() {
		t.Fatal("InRecord true between records with nothing buffered")
	}
	var v int32
	if err := r.GetLong(&v); err == nil || r.InRecord() {
		t.Fatalf("GetLong at end of stream: err %v, InRecord %v; want an error and false", err, r.InRecord())
	}
}

// TestSkipRecordBoundedMemory: skipping a fragment that claims nearly
// 2 GiB must not size any allocation by that claim; the discard runs
// through the fixed receive buffer.
func TestSkipRecordBoundedMemory(t *testing.T) {
	data := append([]byte{0x7f, 0xff, 0xff, 0xff}, make([]byte, 64<<10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewRecStream(&rwPair{Reader: bytes.NewReader(data)}, 0).SkipRecord()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("SkipRecord of a truncated fragment: %v, want unexpected EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*readAhead {
		t.Fatalf("SkipRecord allocated %d bytes for a %d-byte input", grew, len(data))
	}
}

// TestReadRecordReaderShapes runs the read-ahead over readers that
// return one byte at a time, half of what is asked, and the final error
// together with the last data: every record arrives intact, and the end
// of the stream is then reported at the next record boundary.
func TestReadRecordReaderShapes(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&wire, 0)
	want := [][]byte{[]byte("short"), bytes.Repeat([]byte{7}, 3*readAhead), []byte("last")}
	for _, p := range want {
		if err := w.WriteRecord(preframed(p)); err != nil {
			t.Fatal(err)
		}
	}
	shapes := map[string]func(io.Reader) io.Reader{
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data+err": iotest.DataErrReader,
	}
	for name, shape := range shapes {
		r := NewRecStream(&rwPair{Reader: shape(bytes.NewReader(wire.Bytes()))}, 0)
		for i, p := range want {
			rec, err := r.ReadRecord(nil)
			if err != nil || !bytes.Equal(rec, p) {
				t.Fatalf("%s: record %d: %d bytes, %v", name, i, len(rec), err)
			}
		}
		if _, err := r.ReadRecord(nil); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after the last record: %v, want EOF", name, err)
		}
	}
}
