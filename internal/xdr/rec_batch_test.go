package xdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// queueWire writes each payload through QueueRecord+Flush and returns
// the wire bytes plus the number of Write calls it took.
func queueWire(t *testing.T, payloads [][]byte, flushEvery int) ([]byte, int) {
	t.Helper()
	var cw countingWriter
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: io.MultiWriter(&cw, &wire)}, 0)
	for i, p := range payloads {
		if err := w.QueueRecord(preframed(p)); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), cw.writes
}

// TestQueueRecordWireIdentical: batched+flushed bytes on the wire equal
// the same records written one WriteRecord at a time, at every batch
// size, including batches past the coalesce limit (the writev path).
func TestQueueRecordWireIdentical(t *testing.T) {
	payloads := [][]byte{
		[]byte("alpha"), {}, []byte("gamma-gamma"),
		bytes.Repeat([]byte{0xAB}, DefaultFragmentSize+17), // big final fragment
		[]byte("tail"),
		bytes.Repeat([]byte{0x5C}, coalesceLimit), // pushes a batch past coalescing
	}
	var want bytes.Buffer
	uw := NewRecStream(&rwPair{Writer: &want}, 0)
	for _, p := range payloads {
		if err := uw.WriteRecord(preframed(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, every := range []int{0, 1, 2, len(payloads)} {
		got, _ := queueWire(t, payloads, every)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("flushEvery=%d: wire bytes diverge from WriteRecord", every)
		}
	}
}

// TestFlushSingleWrite: a batch of records at or under the coalesce
// limit leaves in exactly one Write call.
func TestFlushSingleWrite(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	_, writes := queueWire(t, payloads, 0)
	if writes != 1 {
		t.Fatalf("flush of %d queued records issued %d writes, want 1", len(payloads), writes)
	}
}

// TestQueueRecordOpenRecordRejected: queued mode cannot interleave with
// an open incremental record (its fragments may already be on the wire).
func TestQueueRecordOpenRecordRejected(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 0)
	if err := w.PutLong(1); err != nil {
		t.Fatal(err)
	}
	if err := w.QueueRecord(preframed([]byte("x"))); err == nil {
		t.Fatal("QueueRecord on an open record succeeded; framing would corrupt")
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}
	if err := w.QueueRecord(preframed([]byte("x"))); err != nil {
		t.Fatalf("QueueRecord after EndRecord: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

type failingWriter struct{ err error }

func (f *failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestFlushStickyError: a failed flush poisons the stream and discards
// later queued records instead of retaining their buffers.
func TestFlushStickyError(t *testing.T) {
	boom := errors.New("boom")
	w := NewRecStream(&rwPair{Writer: &failingWriter{boom}}, 0)
	if err := w.QueueRecord(preframed([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want %v", err, boom)
	}
	if err := w.QueueRecord(preframed([]byte("b"))); !errors.Is(err, boom) {
		t.Fatalf("QueueRecord after failure = %v, want sticky %v", err, boom)
	}
	if n, _ := w.Queued(); n != 0 {
		t.Fatalf("%d records retained after sticky error", n)
	}
}

// pooled returns a pooled buffer pre-framed with payload.
func pooled(payload []byte) *[]byte {
	bp := GetBuf(RecordMarkLen + len(payload))
	*bp = append(append((*bp)[:0], make([]byte, RecordMarkLen)...), payload...)
	return bp
}

// TestRecBatcherCoalesces: concurrent writers sharing one batcher
// produce the exact per-record wire stream with strictly fewer Write
// calls than records once writers contend.
func TestRecBatcherCoalesces(t *testing.T) {
	const writers, perWriter = 8, 50
	var cw countingWriter
	var wire bytes.Buffer
	var mu sync.Mutex
	lockedTee := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		cw.Write(p)
		return wire.Write(p)
	})
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: lockedTee}, 0))
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := b.Write(pooled([]byte(fmt.Sprintf("w%d-%d", w, i)))); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewRecStream(&rwPair{Reader: &wire}, 0)
	for i := 0; i < writers*perWriter; i++ {
		rec, err := r.ReadRecord(nil)
		if err != nil {
			t.Fatalf("after %d records: %v", i, err)
		}
		if len(rec) == 0 {
			t.Fatalf("record %d empty", i)
		}
	}
	if wire.Len() != 0 {
		t.Fatalf("%d trailing bytes after the expected records", wire.Len())
	}
	if cw.writes > writers*perWriter {
		t.Fatalf("%d writes for %d records: batcher split records", cw.writes, writers*perWriter)
	}
	t.Logf("%d records in %d writes", writers*perWriter, cw.writes)
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRecBatcherQueueWatermark: Queue alone does not write; crossing
// the watermark flushes without an explicit Write/Flush.
func TestRecBatcherQueueWatermark(t *testing.T) {
	var cw countingWriter
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: &cw}, 0))
	b.Watermark = 64
	if err := b.Queue(pooled(bytes.Repeat([]byte{1}, 16))); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 0 {
		t.Fatalf("Queue under watermark wrote %d times", cw.writes)
	}
	if err := b.Queue(pooled(bytes.Repeat([]byte{2}, 64))); err != nil {
		t.Fatal(err)
	}
	if cw.writes == 0 {
		t.Fatal("Queue past watermark did not flush")
	}
}

// TestRecBatcherMaxBatchOne: the unbatched baseline issues one Write
// per record even when everything is queued up front.
func TestRecBatcherMaxBatchOne(t *testing.T) {
	var cw countingWriter
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: &cw}, 0))
	b.MaxBatch = 1
	for i := 0; i < 5; i++ {
		if err := b.Queue(pooled([]byte("rec"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 5 {
		t.Fatalf("MaxBatch=1 flush issued %d writes for 5 records", cw.writes)
	}
}

// TestRecBatcherErrorPropagates: the first failure surfaces on the
// flushing call, fires OnError exactly once, and poisons later writes.
func TestRecBatcherErrorPropagates(t *testing.T) {
	boom := errors.New("peer gone")
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: &failingWriter{boom}}, 0))
	fired := 0
	b.OnError = func(err error) {
		fired++
		if !errors.Is(err, boom) {
			t.Errorf("OnError got %v", err)
		}
	}
	if err := b.Write(pooled([]byte("a"))); !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want %v", err, boom)
	}
	if err := b.Write(pooled([]byte("b"))); !errors.Is(err, boom) {
		t.Fatalf("second Write = %v, want sticky %v", err, boom)
	}
	if fired != 1 {
		t.Fatalf("OnError fired %d times", fired)
	}
	// Flush with nothing queued stays nil so Close is idempotent.
	if err := b.Flush(); err != nil {
		t.Fatalf("empty Flush after failure = %v, want nil", err)
	}
}

// TestRecBatcherUncontendedWriteOneSyscall: each uncontended Write
// costs exactly one syscall, and the wire bytes match the per-record
// WriteRecord stream.
func TestRecBatcherUncontendedWriteOneSyscall(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("bb"), {}, []byte("dddd")}
	var want bytes.Buffer
	uw := NewRecStream(&rwPair{Writer: &want}, 0)
	for _, p := range payloads {
		if err := uw.WriteRecord(preframed(p)); err != nil {
			t.Fatal(err)
		}
	}
	var cw countingWriter
	var wire bytes.Buffer
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: io.MultiWriter(&cw, &wire)}, 0))
	for i, p := range payloads {
		if err := b.Write(pooled(p)); err != nil {
			t.Fatal(err)
		}
		if cw.writes != i+1 {
			t.Fatalf("after %d uncontended Writes: %d syscalls, want %d", i+1, cw.writes, i+1)
		}
	}
	if !bytes.Equal(wire.Bytes(), want.Bytes()) {
		t.Fatal("batched wire bytes diverge from WriteRecord")
	}
}
