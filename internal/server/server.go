// Package server implements the service half of Sun RPC: the Go rendering
// of svc.c, svc_udp.c, and svc_tcp.c. A Server holds a dispatch table
// keyed by (program, version, procedure), serves datagram and stream
// transports, enforces the RFC 1057 error replies (PROG_UNAVAIL,
// PROG_MISMATCH, PROC_UNAVAIL, GARBAGE_ARGS), and keeps a bounded
// duplicate-request cache so retransmitted datagram calls are answered
// from memory instead of re-executed (svcudp_enablecache).
//
// Unlike the original single-threaded svc_run loop, dispatch is
// concurrent: datagrams fan out to a bounded worker pool (an in-flight
// set keeps retransmissions of an executing call from running twice),
// and each stream connection serves its pipelined requests on a bounded
// set of persistent workers of its own, whose reply records are
// serialized back onto the stream. Request and reply buffers come from
// the shared XDR buffer pool and each worker owns its reply stream, so
// a call starts no goroutine and allocates no buffer.
//
// In the five-layer specialization stack (see DESIGN.md) this is layer
// 4, the transport endpoint: the service-side twin of internal/client,
// executing internal/wire plans over internal/xdr streams. Its syscalls
// are batched on both transports (DESIGN.md, "Batching and flush
// policy"): concurrent stream handlers group-commit their reply records
// into shared coalesced writes, and ServeUDP moves datagrams in
// recvmmsg/sendmmsg batches through internal/platform/batchio where the
// kernel supports it.
package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specrpc/internal/platform/batchio"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// Marshal serializes or deserializes one value against an XDR handle.
type Marshal func(x *xdr.XDR) error

// Proc handles one procedure: it decodes arguments from dec and returns
// the marshaler producing the results. Returning ErrGarbageArgs (or any
// error wrapping it) yields a GARBAGE_ARGS reply; any other error yields
// SYSTEM_ERR. Handlers run concurrently and must be safe for that.
type Proc func(dec *xdr.XDR) (reply Marshal, err error)

// ErrGarbageArgs signals that the arguments failed to decode.
var ErrGarbageArgs = errors.New("server: garbage args")

type procKey struct {
	prog, vers, proc uint32
}

// TypedProc handles one procedure on the fused fast path: body holds
// the raw argument bytes located at fixed offsets by rpcmsg.CallBody,
// and the handler appends its complete success reply (fused header +
// results) onto bs. Returning an error (ErrGarbageArgs for argument
// decode failures) makes the caller emit the matching error reply,
// byte-identical to the generic path's.
type TypedProc func(body []byte, xid uint32, bs *xdr.BufStream) error

// Server dispatches RPC calls to registered procedures.
type Server struct {
	mu       sync.RWMutex // guards procs, typed, versions
	procs    map[procKey]Proc
	typed    map[procKey]TypedProc // fused fast-path dispatch table
	versions map[uint32][2]uint32  // prog -> [low, high] registered versions
	cache    *replyCache
	inflight *inflightSet
	bufSize  int
	workers  int
	shards   int  // shard count for the call-tracking state
	cacheCap int  // duplicate-reply cache capacity (0 disables)
	queue    int  // datagram admission queue depth
	maxConns int  // stream connection limit (0 = unlimited)
	noWBatch bool // stream reply batching disabled (baseline)
	dgBatch  int  // datagrams per syscall bound for ServeUDP

	idleTimeout time.Duration // stream idle-connection reap (0 = never)

	// dgio points at the batched-I/O wrapper of the most recently started
	// ServeUDP loop, for the DatagramIOStats counters.
	dgio atomic.Pointer[batchio.Conn]

	// typedCount mirrors len(typed) for a lock-free gate: servers with
	// no typed registrations skip the fused-path probe entirely.
	typedCount atomic.Int32
	truncated  atomic.Uint64
	cacheHits  atomic.Uint64 // duplicate calls answered from the reply cache
	qdrops     atomic.Uint64 // datagrams shed by admission control
	connDrops  atomic.Uint64 // connections refused by the limit
	idleDrops  atomic.Uint64 // connections reaped by the idle timeout
	conns      atomic.Int64  // live stream connections

	wg        sync.WaitGroup
	closeMu   sync.Mutex // guards closers, closerSeq, closed
	closers   map[uint64]func() error
	closerSeq uint64
	closed    bool
	done      chan struct{} // closed by Close; interrupts accept backoff
}

// Option configures a Server.
type Option func(*Server)

// WithCacheSize sets the duplicate-request cache capacity in entries
// (default 128; 0 disables the cache). The capacity divides across the
// server's shards, and all of one peer's calls hash to one shard, so a
// single peer's effective duplicate-reply window is only about
// n/WithShards entries (16 of the default 128 at 8 shards): size n as
// the per-peer retransmission depth you want to absorb multiplied by
// the shard count, not as a global total. When n is smaller than the
// shard count the cache uses fewer shards rather than inflating its
// capacity.
func WithCacheSize(n int) Option {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.cacheCap = n
	}
}

// WithShards sets the shard count for the server's call-tracking state
// (the in-flight set and the duplicate-reply cache), rounded up to a
// power of two. The default scales with GOMAXPROCS; WithShards(1) keeps
// everything behind one lock — the pre-sharding layout, kept as the
// measurable baseline for the open-loop harness.
func WithShards(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.shards = n
	}
}

// WithQueueDepth sets how many received datagrams may wait for a free
// worker before admission control sheds new arrivals (default
// max(4*workers, 64)). The queue is the overload buffer: once it fills,
// further datagrams are counted (QueueDrops) and dropped — clients
// retransmit — instead of backpressuring the read loop into the kernel's
// invisible socket-buffer drops.
func WithQueueDepth(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.queue = n
	}
}

// WithMaxConns bounds the number of concurrently served stream
// connections (default 0 = unlimited). Connections accepted beyond the
// bound are closed immediately and counted (ConnLimitDrops): shedding a
// connection at accept time is cheaper than collapsing under tens of
// thousands of half-serviced ones.
func WithMaxConns(n int) Option {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.maxConns = n
	}
}

// WithIdleTimeout reaps stream connections that stay silent for d
// (default 0 = never): a connection with no bytes arriving, no handler
// running, and no reply finishing for a full window is closed and
// counted (IdleDrops), freeing its goroutine and descriptor — the svc
// answer to clients that dial, go quiet, and hold resources forever.
// A connection busy serving calls is never reaped, however slow the
// calls: silence while a handler runs is the client waiting on the
// server. The window also bounds how long one record may trickle in:
// a peer that stalls mid-record past d is closed (uncounted — that is
// a broken stream, not an idle one).
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d < 0 {
			d = 0
		}
		s.idleTimeout = d
	}
}

// WithBufSize sets the datagram receive/reply buffer size (default 8900).
func WithBufSize(n int) Option { return func(s *Server) { s.bufSize = n } }

// WithWriteBatching toggles reply-record coalescing on stream
// connections (default on). When on, replies finishing while another
// handler is inside the write syscall queue behind it and leave together
// in one vectored write; off keeps the one-Write-per-record baseline,
// the pre-batching behavior kept measurable for the batch benchmarks.
func WithWriteBatching(on bool) Option {
	return func(s *Server) { s.noWBatch = !on }
}

// DefaultDatagramBatch is the default messages-per-syscall bound for
// ServeUDP: big enough to amortize a kernel crossing across a bursty
// queue, small enough that the per-loop buffer set stays modest.
const DefaultDatagramBatch = 32

// WithDatagramBatch bounds how many datagrams ServeUDP may move per
// syscall (default DefaultDatagramBatch). n == 1 is the
// one-datagram-per-syscall baseline. Values above 1 engage
// recvmmsg/sendmmsg only where the platform and socket support them
// (Linux kernel UDP sockets); everywhere else the portable path runs
// the baseline code regardless of n, byte-identical on the wire.
func WithDatagramBatch(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.dgBatch = n
	}
}

// WithWorkers bounds the number of concurrently executing handlers per
// transport: the size of the datagram worker pool, and the most workers
// one stream connection starts (lazily, as its pipeline deepens). The
// default is max(8, GOMAXPROCS): handlers may block on locks or
// downstream I/O, so the bound is a pipelining depth, not a parallelism
// count, and must stay useful on single-CPU hosts.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// New returns an empty server.
func New(opts ...Option) *Server {
	workers := runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	s := &Server{
		procs:    make(map[procKey]Proc),
		typed:    make(map[procKey]TypedProc),
		versions: make(map[uint32][2]uint32),
		bufSize:  8900,
		workers:  workers,
		cacheCap: 128,
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	// The sharded state is built after the options so the shard count,
	// cache capacity, and worker bound are all settled.
	if s.shards == 0 {
		s.shards = defaultShards()
	}
	s.inflight = newInflightSet(s.shards)
	if s.cacheCap > 0 {
		s.cache = newReplyCache(s.cacheCap, s.shards)
	}
	if s.queue == 0 {
		s.queue = max(4*s.workers, 64)
	}
	if s.dgBatch == 0 {
		s.dgBatch = DefaultDatagramBatch
	}
	return s
}

// Register installs the handler for (prog, vers, proc), the svc_register
// step. Registering the same triple twice replaces the handler — and
// clears any fused fast-path entry, so a later closure registration
// cannot be shadowed by a stale specialized one.
func (s *Server) Register(prog, vers, proc uint32, h Proc) {
	s.registerBoth(prog, vers, proc, h, nil)
}

// registerBoth installs the generic handler and (when th is non-nil)
// its fused fast-path entry in one lock acquisition, so the two
// dispatch tables can never disagree about which registration a triple
// belongs to — concurrent registrations interleave whole, not halved.
func (s *Server) registerBoth(prog, vers, proc uint32, h Proc, th TypedProc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := procKey{prog, vers, proc}
	s.procs[k] = h
	if th != nil {
		s.typed[k] = th
	} else {
		delete(s.typed, k)
	}
	s.typedCount.Store(int32(len(s.typed)))
	r, ok := s.versions[prog]
	if !ok {
		s.versions[prog] = [2]uint32{vers, vers}
		return
	}
	if vers < r[0] {
		r[0] = vers
	}
	if vers > r[1] {
		r[1] = vers
	}
	s.versions[prog] = r
}

// typedFor resolves the fused dispatch entry for a routing triple, or
// nil when the call must take the generic walk.
func (s *Server) typedFor(prog, vers, proc uint32) TypedProc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.typed[procKey{prog, vers, proc}]
}

// dispatch resolves a call header to a handler or an error reply status.
func (s *Server) dispatch(h *rpcmsg.CallHeader) (Proc, rpcmsg.ReplyHeader) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vers, ok := s.versions[h.Prog]
	if !ok {
		return nil, rpcmsg.ErrorReply(h.XID, rpcmsg.ProgUnavail)
	}
	if h.Vers < vers[0] || h.Vers > vers[1] {
		r := rpcmsg.ErrorReply(h.XID, rpcmsg.ProgMismatch)
		r.Mismatch = rpcmsg.MismatchInfo{Low: vers[0], High: vers[1]}
		return nil, r
	}
	proc, ok := s.procs[procKey{h.Prog, h.Vers, h.Proc}]
	if !ok {
		return nil, rpcmsg.ErrorReply(h.XID, rpcmsg.ProcUnavail)
	}
	return proc, rpcmsg.AcceptedReply(h.XID)
}

// successTemplate is the precompiled accepted-success reply header
// (AUTH_NULL verifier) that every healthy reply starts with; only the
// XID varies per call, so the hot path copies the template and patches
// one word instead of walking the generic header encoder.
var successTemplate = rpcmsg.MustReplyTemplate(rpcmsg.None())

// handle decodes one request from req and produces the reply bytes,
// appending after replyBuf's existing contents (the TCP path reserves
// the record mark there) and growing the backing array when the reply
// is larger. bs is the calling worker's own reply stream, handed to
// fused handlers so that no stream is allocated per call; it holds no
// reference to the reply once handle returns. It is shared by the
// UDP and TCP paths and safe to run from many workers at once, each
// with its own bs.
func (s *Server) handle(req, replyBuf []byte, bs *xdr.BufStream) ([]byte, error) {
	// Fused fast path: locate the routing triple and argument bytes at
	// fixed offsets and jump straight to the per-procedure specialized
	// handler, skipping the generic header walk and dispatch. Anything
	// the fixed-offset parse rejects, and every triple without a fused
	// registration, falls through to the interpretive path below —
	// which accepts exactly the same messages and produces identical
	// replies. The atomic gate keeps closure-only servers from paying
	// the parse and the extra lock acquisition on every message.
	if s.typedCount.Load() != 0 {
		if xid, prog, vers, proc, body, ok := rpcmsg.CallBody(req); ok {
			if th := s.typedFor(prog, vers, proc); th != nil {
				return s.handleTyped(th, body, xid, replyBuf, bs)
			}
		}
	}
	d := xdr.GetDec(req)
	defer xdr.PutDec(d)
	var hdr rpcmsg.CallHeader
	if err := hdr.Marshal(&d.X); err != nil {
		// Undecodable header: no XID to reply to; drop, as svc_udp did.
		return nil, fmt.Errorf("server: bad call header: %w", err)
	}

	proc, rh := s.dispatch(&hdr)
	var results Marshal
	if proc != nil {
		var err error
		results, err = proc(&d.X)
		switch {
		case err == nil:
		case errors.Is(err, ErrGarbageArgs):
			rh = rpcmsg.ErrorReply(hdr.XID, rpcmsg.GarbageArgs)
			results = nil
		default:
			rh = rpcmsg.ErrorReply(hdr.XID, rpcmsg.SystemErr)
			results = nil
		}
	}

	base := len(replyBuf)
	e := xdr.GetEnc(replyBuf)
	defer xdr.PutEnc(e)
	if rh.Stat == rpcmsg.MsgAccepted && rh.AcceptStat == rpcmsg.Success &&
		rh.Verf.Flavor == rpcmsg.AuthNone && len(rh.Verf.Body) == 0 {
		successTemplate.CopyTo(e.BS.Extend(successTemplate.Len()), rh.XID)
	} else if err := rh.Marshal(&e.X); err != nil {
		return nil, fmt.Errorf("server: marshal reply header: %w", err)
	}
	if results != nil {
		if err := results(&e.X); err != nil {
			// Results failed to encode: restart with SYSTEM_ERR, keeping
			// any reserved prefix in place.
			if err2 := e.BS.SetPos(base); err2 != nil {
				return nil, fmt.Errorf("server: marshal error reply: %w", err2)
			}
			se := rpcmsg.ErrorReply(hdr.XID, rpcmsg.SystemErr)
			if err2 := se.Marshal(&e.X); err2 != nil {
				return nil, fmt.Errorf("server: marshal error reply: %w", err2)
			}
		}
	}
	return e.BS.Buffer(), nil
}

// handleTyped runs one call through its fused handler: the success
// reply (precompiled header + result plan) is appended in one pass by
// the handler itself onto the worker's stream bs; error outcomes rewind
// the buffer and marshal the same error replies the generic path
// produces.
func (s *Server) handleTyped(th TypedProc, body []byte, xid uint32, replyBuf []byte, bs *xdr.BufStream) ([]byte, error) {
	base := len(replyBuf)
	bs.SetBuffer(replyBuf)
	err := th(body, xid, bs)
	out := bs.Buffer()
	bs.SetBuffer(nil)
	if err == nil {
		return out, nil
	}
	stat := rpcmsg.SystemErr
	if errors.Is(err, ErrGarbageArgs) {
		stat = rpcmsg.GarbageArgs
	}
	// Rewind past anything a partially-failed handler wrote, keeping
	// the reserved prefix (the TCP record mark) in place.
	e := xdr.GetEnc(out[:base])
	defer xdr.PutEnc(e)
	rh := rpcmsg.ErrorReply(xid, stat)
	if err := rh.Marshal(&e.X); err != nil {
		return nil, fmt.Errorf("server: marshal error reply: %w", err)
	}
	return e.BS.Buffer(), nil
}

// dgram is one received datagram in flight to a worker.
type dgram struct {
	from net.Addr
	req  *[]byte // pooled; the worker returns it
}

// ServeUDP answers datagram calls on conn until the connection or server
// is closed. It blocks; run it on its own goroutine when serving multiple
// transports. Datagrams fan out to a bounded pool of workers, any of
// which may take any datagram: a retransmission that arrives while the
// original is still executing is detected via the in-flight set and
// dropped (the client retransmits again and is answered from the
// duplicate-request cache once the first execution lands), so the
// at-most-once guarantee holds without pinning calls to workers —
// pinning (e.g. sharding on XID) would serialize unrelated calls that
// collide on a shard and cap the useful concurrency below the pool size.
//
// Admission control: the queue between the read loop and the pool is
// bounded (WithQueueDepth). When every worker is busy and the queue is
// full the datagram is dropped and counted (QueueDrops) — datagram
// clients retransmit, so shedding load visibly at the door beats
// stalling the read loop until the kernel sheds it invisibly.
func (s *Server) ServeUDP(conn net.PacketConn) error {
	s.track(conn.Close)
	s.wg.Add(1)
	defer s.wg.Done()

	// Batched I/O wrapper: up to dgBatch messages per recvmmsg/sendmmsg
	// where the platform supports it; with dgBatch == 1 (or anywhere the
	// mmsg path is unavailable) every operation is the exact
	// one-datagram-per-syscall code this loop always ran. Replies from
	// concurrent workers coalesce through a group-commit sender on the
	// batched path and go straight to WriteTo on the baseline.
	bc := batchio.New(conn, s.dgBatch)
	s.dgio.Store(bc)
	var sd replySender = directSender{bc}
	if bc.Batch() > 1 {
		sd = batchio.NewSender(bc, xdr.GetBuf, xdr.PutBuf)
	}

	jobs := make(chan dgram, s.queue)
	var workers sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var bs xdr.BufStream
			for d := range jobs {
				s.answerDatagram(sd, d.from, *d.req, &bs)
				xdr.PutBuf(d.req)
			}
		}()
	}
	defer workers.Wait()
	defer close(jobs)

	msgs := make([]batchio.Message, bc.Batch())
	bps := make([]*[]byte, bc.Batch())
	defer func() {
		for _, bp := range bps {
			if bp != nil {
				xdr.PutBuf(bp)
			}
		}
	}()
	for {
		// Arm each slot with a receive buffer of exactly bufSize bytes:
		// recycled pool buffers may be larger, and the datagram size bound
		// must not vary with them. Slots whose buffer was handed to a
		// worker get a fresh one; the rest reuse theirs.
		for i := range msgs {
			if bps[i] == nil {
				bps[i] = xdr.GetBuf(s.bufSize)
			}
			msgs[i].Buf = (*bps[i])[:s.bufSize]
			msgs[i].N, msgs[i].Addr = 0, nil
		}
		n, err := bc.ReadBatch(msgs)
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return fmt.Errorf("server: read: %w", err)
		}
		for i := 0; i < n; i++ {
			m := &msgs[i]
			if m.N == s.bufSize {
				// A request that fills the buffer exactly cannot be told
				// apart from one the kernel truncated to fit it (recvmmsg
				// truncates just as silently as recvfrom); decoding the
				// prefix as if complete risks executing a call on garbage
				// arguments. Drop it (the client retransmits) and count the
				// drop — the mirror of the client-side reply check.
				s.truncated.Add(1)
				continue
			}
			bp := bps[i]
			*bp = m.Buf[:m.N]
			select {
			case jobs <- dgram{from: m.Addr, req: bp}:
				bps[i] = nil // ownership moved to the worker; rearm next pass
			default:
				// Pool saturated and queue full: shed the call here, where
				// it is countable, instead of blocking the read loop.
				s.qdrops.Add(1)
			}
		}
	}
}

// replySender is where a datagram reply leaves the server: the direct
// WriteTo baseline or the group-commit batched sender. The caller keeps
// ownership of msg either way — the batched sender copies the reply into
// its own pooled buffer before queueing it.
type replySender interface {
	Send(to net.Addr, msg []byte)
}

// directSender is the unbatched reply path: one counted WriteTo per
// reply, errors dropped as they always were (datagram clients
// retransmit).
type directSender struct{ c *batchio.Conn }

func (d directSender) Send(to net.Addr, msg []byte) { d.c.WriteTo(msg, to) }

// DatagramIOStats reports the cumulative syscall and message counters of
// the most recently started ServeUDP loop: reads then writes, calls then
// messages. Calls == messages on the unbatched path; messages/calls is
// the realized batch factor.
func (s *Server) DatagramIOStats() (readCalls, readMsgs, writeCalls, writeMsgs uint64) {
	bc := s.dgio.Load()
	if bc == nil {
		return 0, 0, 0, 0
	}
	st := bc.Stats()
	return st.ReadCalls.Load(), st.ReadMsgs.Load(), st.WriteCalls.Load(), st.WriteMsgs.Load()
}

// TruncatedDrops reports how many possibly-truncated request datagrams
// (received length == the datagram buffer size) the server has
// discarded.
func (s *Server) TruncatedDrops() uint64 { return s.truncated.Load() }

// QueueDrops reports how many datagrams admission control has shed
// because the worker pool and its queue were both full.
func (s *Server) QueueDrops() uint64 { return s.qdrops.Load() }

// CacheHits reports how many duplicate datagram calls were answered
// from the reply cache instead of re-executed — the observable half of
// the at-most-once guarantee under retransmission.
func (s *Server) CacheHits() uint64 { return s.cacheHits.Load() }

// ConnLimitDrops reports how many stream connections were refused by
// the WithMaxConns bound.
func (s *Server) ConnLimitDrops() uint64 { return s.connDrops.Load() }

// IdleDrops reports how many stream connections the WithIdleTimeout
// reaper has closed for staying silent a full window.
func (s *Server) IdleDrops() uint64 { return s.idleDrops.Load() }

// Conns reports the number of stream connections currently being served.
func (s *Server) Conns() int { return int(s.conns.Load()) }

func (s *Server) answerDatagram(sd replySender, from net.Addr, req []byte, bs *xdr.BufStream) {
	// The pooled reply buffer doubles as the destination for cache hits:
	// get copies the cached bytes into it under the shard lock (the
	// cache's own buffers are recycled by concurrent evictions, so they
	// must never be written to the socket after the lock is released).
	rp := xdr.GetBuf(s.bufSize)
	defer xdr.PutBuf(rp)
	// Duplicate-request cache: a retransmission of a call we already
	// executed is answered with the cached bytes, preserving the
	// "execute at most once per XID while cached" behaviour.
	xid, hasXID := rpcmsg.PeekXID(req)
	var peer peerKey
	if hasXID {
		peer = makePeerKey(from)
		if s.cache != nil {
			if cached, ok := s.cache.get(peer, xid, (*rp)[:0]); ok {
				s.cacheHits.Add(1)
				*rp = cached
				sd.Send(from, cached)
				return
			}
		}
		// A retransmission of a call currently executing on another
		// worker must not execute a second time — even with the reply
		// cache disabled; drop it and let a later retransmission be
		// answered (from the cache, or by re-execution once the first
		// finishes).
		if !s.inflight.begin(peer, xid) {
			return
		}
		defer s.inflight.end(peer, xid)
		// Double-check the cache now that the claim is held: the original
		// execution may have finished — and cached its reply — between the
		// miss above and the claim, and executing again would break
		// at-most-once for non-idempotent procedures.
		if s.cache != nil {
			if cached, ok := s.cache.get(peer, xid, (*rp)[:0]); ok {
				s.cacheHits.Add(1)
				*rp = cached
				sd.Send(from, cached)
				return
			}
		}
	}
	out, err := s.handle(req, *rp, bs)
	if err != nil {
		return // undecodable datagram: drop silently
	}
	*rp = out // keep any growth pooled
	if len(out) >= s.bufSize {
		// The growable reply buffer fits any results, but a datagram
		// cannot carry them: replace the reply with SYSTEM_ERR — which
		// always fits, and is sent and cached like any reply so the
		// handler is not re-executed per retransmission — exactly what
		// the original fixed-buffer encode produced when the results
		// overflowed it. The bound is exclusive: a reply that *fills*
		// the peer's receive buffer is dropped there as possibly
		// truncated, so it must stay strictly below. Stream replies
		// grow freely.
		if !hasXID {
			return
		}
		buf := xdr.NewBufEncode((*rp)[:0])
		se := rpcmsg.ErrorReply(xid, rpcmsg.SystemErr)
		if err := se.Marshal(xdr.NewEncoder(buf)); err != nil {
			return
		}
		out = buf.Buffer()
		*rp = out
	}
	if hasXID && s.cache != nil {
		s.cache.put(peer, xid, out)
	}
	sd.Send(from, out)
}

// ServeTCP accepts stream connections and answers record-marked calls on
// each, one read loop per connection with its own workers. It blocks
// until the listener or server is closed.
//
// Transient accept failures (ECONNABORTED, EMFILE, and anything else the
// runtime reports as temporary) are retried with capped exponential
// backoff — the net/http.Server pattern — so one aborted handshake or a
// momentary descriptor squeeze cannot take down the listener; only close
// or a permanent failure exits the loop. When WithMaxConns is set,
// connections beyond the bound are closed at accept and counted.
func (s *Server) ServeTCP(ln net.Listener) error {
	s.track(ln.Close)
	s.wg.Add(1)
	defer s.wg.Done()
	var tempDelay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if tempDelay == 0 {
					tempDelay = 5 * time.Millisecond
				} else {
					tempDelay *= 2
				}
				if tempDelay > time.Second {
					tempDelay = time.Second
				}
				// Sleep interruptibly: Close must not wait out a capped
				// backoff (up to a second) before the loop notices the
				// server shut down.
				t := time.NewTimer(tempDelay)
				select {
				case <-t.C:
				case <-s.done:
					t.Stop()
					return nil
				}
				continue
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		tempDelay = 0
		// Add-then-check keeps the bound exact when several ServeTCP
		// loops share one Server; load-then-add would let concurrent
		// accepts race past it by up to the listener count.
		if n := s.conns.Add(1); s.maxConns > 0 && n > int64(s.maxConns) {
			s.conns.Add(-1)
			s.connDrops.Add(1)
			_ = conn.Close()
			continue
		}
		id := s.track(conn.Close)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.Add(-1)
			// Untrack on exit: a long-lived server accepts unbounded
			// connections, and retaining every dead connection's closer
			// would grow the set without bound (and re-close them all on
			// shutdown).
			defer s.untrack(id)
			s.serveConn(conn)
		}()
	}
}

// streamConn is what one stream connection's read loop shares with its
// workers.
type streamConn struct {
	conn net.Conn
	wb   *xdr.RecBatcher
	// reqs hands each request record to an idle worker. It is unbuffered
	// so that a send completes only into a worker's hands: a blocked send
	// is what bounds the handlers in flight.
	reqs    chan *[]byte
	workers sync.WaitGroup
	// inFlight/completed drive the idle reaper: a timeout only reaps when
	// no handler is running and none finished during the armed window.
	// Workers bump completed before dropping inFlight, so the reaper can
	// never observe "nothing running, nothing finished" mid-handoff.
	inFlight, completed atomic.Int64
}

// serveConn serves one stream connection, as svc_tcp served each
// connection from one loop, but with up to s.workers calls in flight.
// The read loop hands each request record to an idle worker of this
// connection; it starts another worker only when none is idle and
// fewer than s.workers exist, and otherwise blocks until one is free.
// Workers live as long as the connection, so a call starts no
// goroutine. The reply records leave through a group-commit batcher:
// each finishing worker either writes immediately (uncontended) or
// queues behind the worker currently inside the write syscall, whose
// next vectored write carries every reply that accumulated meanwhile.
// A slow call never blocks the replies of later, faster calls (the
// client demultiplexes them by XID), and under pipelining many replies
// share one syscall.
func (s *Server) serveConn(conn net.Conn) {
	c := &streamConn{conn: conn, reqs: make(chan *[]byte)}
	// Defers run LIFO: closing reqs ends the idle workers, and the
	// connection is closed before waiting for the busy ones, because a
	// worker blocked writing a reply to a peer that stopped reading is
	// only unblocked by the close; the other order would wedge this
	// goroutine forever on a stalled client.
	defer c.workers.Wait()
	defer conn.Close()
	defer close(c.reqs)
	rrec := xdr.NewRecStream(conn, 0)
	c.wb = xdr.NewRecBatcher(xdr.NewRecStream(conn, 0))
	// A failed reply write leaves the record stream unusable; close the
	// connection so the read loop exits and the peer fails fast instead
	// of waiting out its call timeouts.
	c.wb.OnError = func(error) { _ = conn.Close() }
	if s.noWBatch {
		c.wb.MaxBatch = 1
	}
	// Flush invariant: every record handed to wb is flushed by some
	// worker before that worker takes its next record or exits (the
	// leader loops until the queue is empty, and a record queued after
	// the leader exits makes its own writer the new leader), and
	// workers.Wait holds serveConn open until every worker exits — so no
	// reply is stranded by connection teardown.
	started := 0
	for {
		// Read the full request record via the record layer; unlike a
		// datagram, a TCP record may exceed the datagram buffer size,
		// so the buffer grows as needed.
		bp := xdr.GetBuf(s.bufSize)
		req, err := s.readRecordIdle(conn, rrec, (*bp)[:0], &c.inFlight, &c.completed)
		*bp = req
		if err != nil {
			xdr.PutBuf(bp)
			return // connection closed, broken framing, or idle-reaped
		}
		c.inFlight.Add(1)
		select {
		case c.reqs <- bp: // an idle worker took it
			continue
		default:
		}
		if started < s.workers {
			started++
			c.workers.Add(1)
			go s.connWorker(c, bp)
			continue
		}
		c.reqs <- bp
	}
}

// connWorker is one of a stream connection's workers: it answers bp,
// then every record the read loop hands it, until the read loop ends.
// Its reply stream lives as long as it does.
func (s *Server) connWorker(c *streamConn, bp *[]byte) {
	defer c.workers.Done()
	var bs xdr.BufStream
	for ok := true; ok; bp, ok = <-c.reqs {
		rp := xdr.GetBuf(s.bufSize)
		// Reserve the record mark at the head of the reply buffer: handle
		// marshals the reply behind it and the batcher patches the mark
		// in place, so the fully-formed reply goes to the socket with no
		// second copy.
		out, err := s.handle(*bp, (*rp)[:xdr.RecordMarkLen], &bs)
		if err != nil {
			xdr.PutBuf(rp)
			// Undecodable call header: the stream is suspect and there is
			// no XID to reply to; close the connection so the peer fails
			// fast, as the original svc_tcp loop did.
			_ = c.conn.Close()
		} else {
			*rp = out
			// Ownership of rp transfers to the batcher, which releases it
			// once the batch carrying it is written (or dropped on a
			// poisoned stream). Write errors are handled by OnError.
			_ = c.wb.Write(rp)
		}
		xdr.PutBuf(bp)
		c.completed.Add(1)
		c.inFlight.Add(-1)
	}
}

// readRecordIdle reads one request record, enforcing the idle timeout
// when one is configured. The deadline re-arms as long as the window
// saw any sign of life — a handler still running, or one that finished
// (its client is likely composing the next call) — so only a
// connection that stayed truly silent for a full window is reaped and
// counted. Bytes arriving mid-window reset nothing: a timeout after any
// byte of the next record was received, including bytes an earlier read
// took in ahead of it, is a stall mid-record, which the record layer
// cannot resume, so the connection ends.
func (s *Server) readRecordIdle(conn net.Conn, rrec *xdr.RecStream, dst []byte,
	inFlight, completed *atomic.Int64) ([]byte, error) {
	if s.idleTimeout <= 0 {
		return rrec.ReadRecord(dst)
	}
	for {
		done0 := completed.Load()
		_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		out, err := rrec.ReadRecord(dst)
		if err == nil {
			return out, nil
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() || rrec.InRecord() {
			return out, err // closed, broken framing, or stalled mid-record
		}
		if inFlight.Load() > 0 || completed.Load() != done0 {
			continue // busy serving: silence here is the client waiting on us
		}
		s.idleDrops.Add(1)
		return out, err
	}
}

// track registers a closer to be invoked by Close and returns a handle
// for untrack. A closer registered after Close has begun is invoked
// immediately (the transport must still shut down) and not retained.
func (s *Server) track(close func() error) uint64 {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		_ = close()
		return 0
	}
	if s.closers == nil {
		s.closers = make(map[uint64]func() error)
	}
	s.closerSeq++
	id := s.closerSeq
	s.closers[id] = close
	s.closeMu.Unlock()
	return id
}

// untrack drops a closer whose transport has already shut down, so the
// set tracks live transports instead of growing with every connection
// ever accepted.
func (s *Server) untrack(id uint64) {
	if id == 0 {
		return
	}
	s.closeMu.Lock()
	delete(s.closers, id)
	s.closeMu.Unlock()
}

// trackedClosers reports the number of live tracked closers (tests pin
// the connection-closer leak with it).
func (s *Server) trackedClosers() int {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	return len(s.closers)
}

func (s *Server) isClosed() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	return s.closed
}

// Close stops all transports and waits for the service loops to drain.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	closers := make([]func() error, 0, len(s.closers))
	for _, c := range s.closers {
		closers = append(closers, c)
	}
	s.closers = nil
	s.closeMu.Unlock()
	var firstErr error
	for _, c := range closers {
		if err := c(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.wg.Wait()
	return firstErr
}

// peerKeyBytes is the fixed-size address window of a peerKey: room for
// a 16-byte IPv6 address, and for the names in-process simulators use
// as addresses.
const peerKeyBytes = 24

// peerKey identifies a datagram sender without allocating: the
// in-flight set and the duplicate-request cache key every datagram on
// (peer, xid), so a heap key — the peer+xid string the first
// implementation built — costs one allocation per received datagram on
// the hot path. The key is a comparable value type instead: address
// bytes (or a short textual address) inline in a fixed array, with a
// string spill only for exotic address types whose rendering does not
// fit.
type peerKey struct {
	kind uint8 // 0 none, 1 UDP, 2 textual
	n    uint8 // bytes of b in use
	port uint16
	b    [peerKeyBytes]byte
	rest string // overflow/zone spill; empty on the hot paths
}

// makePeerKey builds the key for one sender. *net.UDPAddr (the kernel
// UDP path) and compact textual addresses (netsim) stay allocation-free;
// anything else falls back to the address's String rendering.
func makePeerKey(a net.Addr) peerKey {
	if u, ok := a.(*net.UDPAddr); ok {
		k := peerKey{kind: 1, port: uint16(u.Port), rest: u.Zone}
		k.n = uint8(copy(k.b[:], u.IP)) // 4 or 16 bytes, already canonical
		return k
	}
	s := a.String()
	k := peerKey{kind: 2}
	if len(s) <= peerKeyBytes {
		k.n = uint8(copy(k.b[:], s))
		return k
	}
	k.rest = s
	return k
}

// cacheKey is the (peer, xid) identity of one datagram call, shared by
// the in-flight set and the duplicate-reply cache (both in shard.go).
type cacheKey struct {
	peer peerKey
	xid  uint32
}
