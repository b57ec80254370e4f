package xdr

import (
	"bytes"
	"io"
	"testing"
)

// FuzzRecRead feeds arbitrary bytes to the record-marking reader: the
// first decode boundary a hostile TCP peer reaches. The reader must
// never panic, never return more bytes than arrived, and never allocate
// ahead of the data backing a fragment header's claimed length.
func FuzzRecRead(f *testing.F) {
	// A well-formed single-fragment record.
	var good bytes.Buffer
	rs := NewRecStream(&good, 0)
	if err := rs.PutBytes([]byte("hello world!")); err != nil {
		f.Fatal(err)
	}
	if err := rs.EndRecord(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	// A record split across two fragments.
	var multi bytes.Buffer
	rs = NewRecStream(&multi, 8)
	if err := rs.PutBytes(bytes.Repeat([]byte{0xab}, 20)); err != nil {
		f.Fatal(err)
	}
	if err := rs.EndRecord(); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes())
	// An empty final fragment, a truncated header, and a fragment header
	// whose length lies far beyond the data behind it.
	f.Add([]byte{0x80, 0, 0, 0})
	f.Add([]byte{0x80, 0})
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := NewRecStream(bytes.NewBuffer(data), 0).ReadRecord(nil)
		if err == nil && len(rec) > len(data) {
			t.Fatalf("record %d bytes from %d input bytes", len(rec), len(data))
		}
		// The streaming reader and skipper over the same input must not
		// panic either.
		s := NewRecStream(bytes.NewBuffer(data), 0)
		var v int32
		for s.GetLong(&v) == nil {
		}
		_ = NewRecStream(bytes.NewBuffer(data), 0).SkipRecord()
	})
}

// splitReader hands out data in fuzz-chosen pieces: chunk byte c gives a
// read of at most 1+c*c bytes (1 byte up to ~64 KiB), cycling through
// chunks, so records, marks and bodies are cut at arbitrary points.
type splitReader struct {
	data   []byte
	chunks []byte
	i      int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(s.chunks) > 0 {
		c := int(s.chunks[s.i%len(s.chunks)])
		s.i++
		n = min(n, 1+c*c)
	}
	n = copy(p, s.data[:min(n, len(s.data))])
	s.data = s.data[n:]
	return n, nil
}

func (s *splitReader) Write(p []byte) (int, error) { return len(p), nil }

// FuzzRecReadChunked runs one sequence of reads (ReadRecord, SkipRecord
// and GetLong, chosen by ops) over the same bytes twice: once arriving
// as a single buffer and once in fuzz-chosen pieces. The read-ahead
// buffer must make the split invisible: every call returns the same
// record, value and error, and Pos agrees after it. Both must also match
// parseRecords, a mark-by-mark oracle: which calls succeed, and what
// they return. ReadRecord must never grow its result ahead of the data
// by more than one maxFragStep, whatever length a fragment header
// claims.
//
// A nonzero bulk puts a one-fragment record of bulk bytes in front of
// data, so bodies longer than the receive buffer (whose tails bypass
// it) are covered without seeding tens of KiB the fuzzer would then
// spend its time minimizing.
func FuzzRecReadChunked(f *testing.F) {
	const (
		opRead = iota
		opSkip
		opLong
		numOps
	)
	var two bytes.Buffer
	rs := NewRecStream(&two, 0)
	for _, b := range []string{"first record", "second!!"} {
		if err := rs.PutBytes([]byte(b)); err != nil {
			f.Fatal(err)
		}
		if err := rs.EndRecord(); err != nil {
			f.Fatal(err)
		}
	}
	// Two records taken in one read: skip the first, read the second.
	f.Add(two.Bytes(), uint16(0), []byte{255}, []byte{opSkip, opRead, opRead})
	// The same bytes one byte per read.
	f.Add(two.Bytes(), uint16(0), []byte{0}, []byte{opSkip, opRead, opRead})
	// Records in 8-byte fragments, partly consumed by GetLong.
	var multi bytes.Buffer
	rs = NewRecStream(&multi, 8)
	for _, n := range []int{20, 12} {
		if err := rs.PutBytes(bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			f.Fatal(err)
		}
		if err := rs.EndRecord(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(multi.Bytes(), uint16(0), []byte{0, 3, 1}, []byte{opLong, opLong, opRead, opLong, opSkip, opRead})
	// A bulk record read whole, skipped, or consumed partly, then the
	// records behind it.
	f.Add(two.Bytes(), uint16(3*readAhead+17), []byte{255, 7}, []byte{opRead, opRead, opRead})
	f.Add(two.Bytes(), uint16(readAhead), []byte{90}, []byte{opLong, opSkip, opRead})
	f.Add(multi.Bytes(), uint16(2*readAhead), []byte{0}, []byte{opLong, opRead, opRead})
	// A fragment header claiming far more than follows it.
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 1, 2, 3}, uint16(0), []byte{1}, []byte{opRead})

	f.Fuzz(func(t *testing.T, data []byte, bulk uint16, chunks, ops []byte) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		if bulk > 0 {
			rec := make([]byte, RecordMarkLen+int(bulk))
			for i := range rec {
				rec[i] = byte(i)
			}
			u := uint32(bulk) | lastFragFlag
			rec[0], rec[1], rec[2], rec[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
			data = append(rec, data...)
		}
		whole := NewRecStream(&splitReader{data: data}, 0)
		split := NewRecStream(&splitReader{data: data, chunks: chunks}, 0)
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		recs, partial := parseRecords(data)
		ri, off := 0, 0 // the oracle's record and offset in it
		for i, op := range ops {
			var wrec, srec []byte
			var wv, sv int32
			var werr, serr error
			cur, complete := partial, false
			if ri < len(recs) {
				cur, complete = recs[ri], true
			}
			switch op % numOps {
			case opRead:
				wrec, werr = whole.ReadRecord(nil)
				srec, serr = split.ReadRecord(nil)
				for _, rec := range [][]byte{wrec, srec} {
					if cap(rec) > 2*(len(data)+maxFragStep) {
						t.Fatalf("op %d: ReadRecord grew to cap %d on %d input bytes", i, cap(rec), len(data))
					}
				}
				if werr == nil && len(wrec) > len(data) {
					t.Fatalf("op %d: record %d bytes from %d input bytes", i, len(wrec), len(data))
				}
			case opSkip:
				werr, serr = whole.SkipRecord(), split.SkipRecord()
			case opLong:
				werr, serr = whole.GetLong(&wv), split.GetLong(&sv)
			}
			if errText(werr) != errText(serr) {
				t.Fatalf("op %d (%d): whole err %v, split err %v", i, op%numOps, werr, serr)
			}
			if werr == nil && (!bytes.Equal(wrec, srec) || wv != sv) {
				t.Fatalf("op %d (%d): whole %x/%d, split %x/%d", i, op%numOps, wrec, wv, srec, sv)
			}
			if whole.Pos() != split.Pos() {
				t.Fatalf("op %d (%d): Pos whole %d, split %d", i, op%numOps, whole.Pos(), split.Pos())
			}
			wantOK := complete
			if op%numOps == opLong {
				wantOK = off+BytesPerUnit <= len(cur)
			}
			if (werr == nil) != wantOK {
				t.Fatalf("op %d (%d): err %v at offset %d of a %d-byte record (complete %v)",
					i, op%numOps, werr, off, len(cur), complete)
			}
			if werr != nil {
				return // the stream is done; later reads are unspecified
			}
			switch op % numOps {
			case opRead:
				if !bytes.Equal(wrec, cur[off:]) {
					t.Fatalf("op %d: record %x, want %x", i, wrec, cur[off:])
				}
				ri, off = ri+1, 0
			case opSkip:
				ri, off = ri+1, 0
			case opLong:
				if got := cur[off : off+BytesPerUnit]; wv != int32(uint32(got[0])<<24|uint32(got[1])<<16|uint32(got[2])<<8|uint32(got[3])) {
					t.Fatalf("op %d: GetLong %#x, want %x", i, wv, got)
				}
				off += BytesPerUnit
			}
			if whole.Pos() != off {
				t.Fatalf("op %d (%d): Pos %d, want %d", i, op%numOps, whole.Pos(), off)
			}
		}
	})
}

// parseRecords is FuzzRecReadChunked's oracle, written without the read
// path it checks. It returns the bodies of the complete records at the
// head of data, and the body bytes present of the record after them.
func parseRecords(data []byte) (recs [][]byte, partial []byte) {
	cur := []byte{}
	for len(data) >= RecordMarkLen {
		u := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
		data = data[RecordMarkLen:]
		n := int(u &^ lastFragFlag)
		if n > len(data) {
			return recs, append(cur, data...)
		}
		cur = append(cur, data[:n]...)
		data = data[n:]
		if u&lastFragFlag != 0 {
			recs = append(recs, cur)
			cur = []byte{}
		}
	}
	return recs, cur
}
