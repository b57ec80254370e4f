package xdr

import (
	"fmt"
	"io"
	"slices"
)

// RecStream is the record-marking stream of xdr_rec.c used by RPC over
// TCP: the byte stream is cut into records, each a sequence of fragments
// carrying a 4-byte big-endian header whose top bit marks the final
// fragment of the record and whose low 31 bits give the fragment length.
//
// A connection-oriented transport needs this layer because, unlike UDP,
// TCP gives no message boundaries; the record marks let one reply be
// delimited without knowing its encoded size in advance.
//
// The read side reads ahead, as xdr_rec.c does: it parses marks and
// short bodies out of one receive buffer, so bytes are taken from the
// underlying reader in buffer-sized reads rather than record by record,
// and may run past the record being read. A RecStream must therefore
// be the only reader of its stream.
type RecStream struct {
	rw io.ReadWriter

	// Write (encode) state.
	wfrag int    // payload capacity of one outgoing fragment
	wbuf  []byte // pending fragment payload, allocated on first PutBytes
	wpos  int    // bytes of wbuf filled
	sent  int    // bytes already flushed in the current record
	werr  error  // sticky write error
	wseal bool   // record has been completed and not yet restarted

	// Queued-record state (QueueRecord/Flush): complete framed records
	// awaiting one vectored write.
	wq      [][]byte
	wqBytes int
	wcoal   []byte // scratch for the coalesced single-Write path

	// Read (decode) state. Received bytes not yet consumed are
	// rbuf[rpos:rend]; they may run past the current record.
	rbuf  []byte // receive buffer of readAhead bytes, allocated on first read
	rpos  int
	rend  int
	rfrag int  // bytes remaining in the current fragment
	rlast bool // current fragment is the record's last
	rcons int  // bytes consumed of the current record
	rinit bool // a fragment header has been read for this record
}

var _ Stream = (*RecStream)(nil)

// DefaultFragmentSize is the payload capacity of one outgoing fragment,
// matching the 4000-byte sendsize/recvsize default of clnttcp_create.
const DefaultFragmentSize = 4000

const lastFragFlag = uint32(1) << 31

// NewRecStream returns a record-marking stream over rw. fragSize bounds
// each outgoing fragment payload; 0 selects DefaultFragmentSize.
func NewRecStream(rw io.ReadWriter, fragSize int) *RecStream {
	if fragSize <= 0 {
		fragSize = DefaultFragmentSize
	}
	return &RecStream{rw: rw, wfrag: fragSize}
}

// PutLong appends a big-endian 4-byte integer to the current record.
func (r *RecStream) PutLong(v int32) error {
	var b [BytesPerUnit]byte
	u := uint32(v)
	b[0], b[1], b[2], b[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
	return r.PutBytes(b[:])
}

// PutBytes appends raw bytes to the current record, flushing intermediate
// (non-final) fragments whenever the fragment buffer fills.
func (r *RecStream) PutBytes(p []byte) error {
	if r.werr != nil {
		return r.werr
	}
	r.wseal = false
	if r.wbuf == nil {
		r.wbuf = make([]byte, r.wfrag)
	}
	for len(p) > 0 {
		n := copy(r.wbuf[r.wpos:], p)
		r.wpos += n
		p = p[n:]
		if r.wpos == len(r.wbuf) {
			if err := r.flushFragment(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// EndRecord completes the current record, flushing the pending data as the
// final fragment (the xdrrec_endofrecord "sendnow" path). An empty record
// still emits one empty final fragment so the peer sees a boundary.
func (r *RecStream) EndRecord() error {
	if r.werr != nil {
		return r.werr
	}
	if err := r.flushFragment(true); err != nil {
		return err
	}
	r.sent = 0
	r.wseal = true
	return nil
}

// RecordMarkLen is the size of the record-marking header. Callers of
// WriteRecord reserve this many bytes at the head of their message
// buffer for the mark to be patched into.
const RecordMarkLen = BytesPerUnit

// maxFragPayload is the largest payload one fragment can carry: the low
// 31 bits of the record mark.
const maxFragPayload = int(^lastFragFlag)

// WriteRecord frames buf as one complete record and writes it with a
// single Write call. buf's first RecordMarkLen bytes are reserved for
// the record mark — the caller marshals the message immediately after
// them — so the message reaches the socket without ever being copied
// into the fragment buffer, and the mark plus payload leave in one
// syscall instead of two-per-fragment. The record content is identical
// to PutBytes+EndRecord on the same payload (byte-identical on the wire
// for payloads within one fragment, which covers every datagram-sized
// message; larger payloads ride in one big final fragment instead of
// 4000-byte slices — both framings every RFC 1057 peer must accept).
//
// Data already buffered by PutBytes, or a payload too large for a
// single fragment, completes through the generic fragmenting path, so
// the two write APIs compose on one stream.
func (r *RecStream) WriteRecord(buf []byte) error {
	if r.werr != nil {
		return r.werr
	}
	if len(buf) < RecordMarkLen {
		return fmt.Errorf("xdr: WriteRecord: buffer shorter than the %d-byte record mark", RecordMarkLen)
	}
	payload := len(buf) - RecordMarkLen
	// An open record — pending bytes in the fragment buffer OR fragments
	// already flushed (r.sent) — must complete through the fragmenting
	// path: the single-write fast path would inject this record's mark
	// into the middle of the open record and corrupt the stream framing.
	if r.wpos != 0 || r.sent != 0 || payload > maxFragPayload {
		if err := r.PutBytes(buf[RecordMarkLen:]); err != nil {
			return err
		}
		return r.EndRecord()
	}
	u := uint32(payload) | lastFragFlag
	buf[0], buf[1], buf[2], buf[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
	if _, err := r.rw.Write(buf); err != nil {
		r.werr = fmt.Errorf("xdr: write record: %w", err)
		return r.werr
	}
	r.sent = 0
	r.wseal = true
	return nil
}

func (r *RecStream) flushFragment(last bool) error {
	header := uint32(r.wpos)
	if last {
		header |= lastFragFlag
	}
	var h [BytesPerUnit]byte
	h[0], h[1], h[2], h[3] = byte(header>>24), byte(header>>16), byte(header>>8), byte(header)
	if _, err := r.rw.Write(h[:]); err != nil {
		r.werr = fmt.Errorf("xdr: write fragment header: %w", err)
		return r.werr
	}
	if r.wpos > 0 {
		if _, err := r.rw.Write(r.wbuf[:r.wpos]); err != nil {
			r.werr = fmt.Errorf("xdr: write fragment payload: %w", err)
			return r.werr
		}
	}
	r.sent += r.wpos
	r.wpos = 0
	return nil
}

// GetLong consumes a big-endian 4-byte integer from the current record.
func (r *RecStream) GetLong(v *int32) error {
	var b [BytesPerUnit]byte
	if err := r.GetBytes(b[:]); err != nil {
		return err
	}
	*v = int32(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
	return nil
}

// GetBytes consumes len(p) bytes from the current record, crossing
// fragment boundaries transparently. Reading past the final fragment of
// the record yields ErrOverflow, as exhausting the record did in C.
func (r *RecStream) GetBytes(p []byte) error {
	for len(p) > 0 {
		if r.rfrag == 0 {
			if r.rinit && r.rlast {
				return ErrOverflow
			}
			if err := r.readFragmentHeader(); err != nil {
				return err
			}
			continue
		}
		n := min(len(p), r.rfrag)
		if err := r.readBody(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// readAhead is the size of a stream's receive buffer, xdr_rec.c's
// recvsize. Record marks and short bodies are parsed out of it, so an
// unpipelined record costs one read and pipelined records share reads.
// Body tails at least this long bypass it (see readBody).
const readAhead = 8 << 10

// fill reads at least one byte into the receive buffer, behind the
// unread bytes it already holds (fill_input_buf). The buffer is
// allocated on the first read, so a write-only stream never pays for it.
// An error that comes with data is dropped, as io.ReadFull drops it: the
// io.Reader contract has the next Read report it again.
func (r *RecStream) fill() error {
	if r.rbuf == nil {
		r.rbuf = make([]byte, readAhead)
	}
	r.rend = copy(r.rbuf, r.rbuf[r.rpos:r.rend])
	r.rpos = 0
	for {
		n, err := r.rw.Read(r.rbuf[r.rend:])
		r.rend += n
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readBody fills p from the current fragment, which must cover it:
// received bytes first, then the rest from the stream. A tail at least
// as long as the receive buffer is read straight into p, so bulk bodies
// are not copied twice; a shorter one goes through the buffer, which
// may also take in the records behind it.
func (r *RecStream) readBody(p []byte) error {
	for len(p) > 0 {
		if r.rpos == r.rend {
			if len(p) >= readAhead {
				n, err := r.rw.Read(p)
				r.take(n)
				p = p[n:]
				if n == 0 && err != nil {
					return fmt.Errorf("xdr: read record payload: %w", cutShort(err))
				}
				continue
			}
			if err := r.fill(); err != nil {
				return fmt.Errorf("xdr: read record payload: %w", cutShort(err))
			}
		}
		n := copy(p, r.rbuf[r.rpos:r.rend])
		r.rpos += n
		r.take(n)
		p = p[n:]
	}
	return nil
}

// take accounts n bytes of the current fragment as consumed.
func (r *RecStream) take(n int) {
	r.rfrag -= n
	r.rcons += n
}

// cutShort maps the end of the stream inside a fragment to
// io.ErrUnexpectedEOF: a fragment header promised more bytes.
func cutShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (r *RecStream) readFragmentHeader() error {
	for r.rend-r.rpos < BytesPerUnit {
		if err := r.fill(); err != nil {
			if err == io.EOF && r.rend > r.rpos {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("xdr: read fragment header: %w", err)
		}
	}
	h := r.rbuf[r.rpos : r.rpos+BytesPerUnit]
	r.rpos += BytesPerUnit
	u := uint32(h[0])<<24 | uint32(h[1])<<16 | uint32(h[2])<<8 | uint32(h[3])
	r.rlast = u&lastFragFlag != 0
	r.rfrag = int(u &^ lastFragFlag)
	r.rinit = true
	return nil
}

// maxFragStep bounds how much ReadRecord grows its buffer ahead of the
// bytes actually arriving: a fragment header is attacker-controlled, so
// trusting its length for one big allocation would let a single bogus
// record claim up to 2 GiB before the read fails. Growing in bounded
// steps keeps memory proportional to data received. It also sets the
// largest buffer the pool keeps (maxPoolBuf).
const maxFragStep = 1 << 20

// ReadRecord appends one complete record to dst and returns the extended
// slice. It grows dst once per fragment (or per maxFragStep of a longer
// one), so it is the efficient way for a server to slurp a whole
// request before dispatching.
func (r *RecStream) ReadRecord(dst []byte) ([]byte, error) {
	for {
		for r.rfrag > 0 {
			step := min(r.rfrag, maxFragStep)
			start := len(dst)
			dst = slices.Grow(dst, step)[:start+step]
			if err := r.readBody(dst[start:]); err != nil {
				return dst, err
			}
		}
		if r.rinit && r.rlast {
			r.endRead()
			return dst, nil
		}
		if err := r.readFragmentHeader(); err != nil {
			return dst, err
		}
	}
}

// SkipRecord discards the rest of the current record and arms the reader
// for the next one (xdrrec_skiprecord). It discards through the receive
// buffer, a buffer's worth at a time, so a fragment length a peer claims
// never sizes an allocation.
func (r *RecStream) SkipRecord() error {
	for {
		for r.rfrag > 0 {
			if r.rpos == r.rend {
				if err := r.fill(); err != nil {
					return fmt.Errorf("xdr: skip record: %w", cutShort(err))
				}
			}
			n := min(r.rfrag, r.rend-r.rpos)
			r.rpos += n
			r.take(n)
		}
		if r.rinit && r.rlast {
			r.endRead()
			return nil
		}
		if err := r.readFragmentHeader(); err != nil {
			return err
		}
	}
}

// endRead arms the reader for the next record.
func (r *RecStream) endRead() {
	r.rinit = false
	r.rlast = false
	r.rcons = 0
}

// InRecord reports whether any byte of the record being read has been
// received: consumed, or waiting in the receive buffer. A reader that
// times out with InRecord false was idle between records; with it true,
// the peer stalled mid-record, and the stream cannot resume.
func (r *RecStream) InRecord() bool {
	return r.rinit || r.rpos < r.rend
}

// Pos reports bytes consumed (decode) or buffered+sent (encode) within the
// current record.
func (r *RecStream) Pos() int {
	if r.rinit {
		return r.rcons
	}
	return r.sent + r.wpos
}

// SetPos is not supported on record streams, exactly as in xdr_rec.c.
func (r *RecStream) SetPos(int) error { return ErrBadPos }
