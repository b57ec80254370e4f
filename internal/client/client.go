// Package client implements the client half of Sun RPC: the Go rendering
// of clnt_udp.c and clnt_tcp.c, extended with a concurrent multiplexed
// transport. A client assigns XIDs atomically, marshals the call header
// and arguments into pooled buffers, retransmits over datagram
// transports, and decodes the reply header before handing the result
// stream to the caller's unmarshaler.
//
// The two clients share one call path, as the original pair differed
// only in how a request leaves and how a reply comes back. UDP and TCP
// embed core, which owns the client-lifetime state, the entry points
// (Call, CallCtx, the typed path), the call deadline, the reply wait and
// the retry backoff. Each transport supplies only its round trip: UDP
// the datagram send and retransmit schedule, TCP the connection
// generations, reconnect and record batching.
//
// Unlike the original one-call-at-a-time clients, both transports allow
// many in-flight calls per connection: a single reader goroutine
// demultiplexes replies on their XID and routes each to the per-call
// channel registered by the issuing goroutine. Call is therefore safe —
// and useful — to invoke from many goroutines at once: over TCP the call
// records are pipelined onto one record-marked stream, and over datagram
// transports each call retransmits independently.
//
// Argument and result marshalers are pluggable (the Marshal type), which
// is what lets the benchmark harness swap the generic micro-layered stubs
// for the specialized stubs produced by internal/tempo without touching
// the transport code.
//
// In the five-layer specialization stack (see DESIGN.md) this is layer
// 4, the transport endpoint: it drives the internal/xdr streams and
// internal/rpcmsg headers on behalf of the stubs from internal/wire.
// Two batching mechanisms amortize its syscalls (DESIGN.md, "Batching
// and flush policy"): concurrent TCP calls coalesce their records into
// shared vectored writes via the group-commit RecBatcher, and
// CallBatched queues ONC fire-and-forget calls that leave with the next
// terminal Call, Flush, or Close.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// Marshal serializes or deserializes one value against an XDR handle; it
// is the xdrproc_t of the original API.
type Marshal func(x *xdr.XDR) error

// Void is the marshaler for procedures without arguments or results.
func Void(*xdr.XDR) error { return nil }

// Errors returned by calls.
var (
	// ErrTimeout reports that the total call timeout elapsed without a
	// matching reply.
	ErrTimeout = errors.New("client: call timed out")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("client: closed")
)

// RPCError reports a failure delivered inside an RPC reply (rather than a
// transport fault): a non-success accept status or a rejection.
type RPCError struct {
	// Stat is the reply status (accepted vs denied).
	Stat rpcmsg.ReplyStat
	// AcceptStat holds the failure for accepted replies.
	AcceptStat rpcmsg.AcceptStat
	// RejectStat and AuthStat hold the failure for denied replies.
	RejectStat rpcmsg.RejectStat
	AuthStat   rpcmsg.AuthStat
	// Mismatch holds the supported version range for mismatch failures.
	Mismatch rpcmsg.MismatchInfo
}

// Error describes the failure in RFC terms.
func (e *RPCError) Error() string {
	if e.Stat == rpcmsg.MsgDenied {
		if e.RejectStat == rpcmsg.RPCMismatch {
			return fmt.Sprintf("rpc denied: RPC_MISMATCH (server supports %d..%d)",
				e.Mismatch.Low, e.Mismatch.High)
		}
		return fmt.Sprintf("rpc denied: AUTH_ERROR (auth_stat %d)", e.AuthStat)
	}
	if e.AcceptStat == rpcmsg.ProgMismatch {
		return fmt.Sprintf("rpc failed: PROG_MISMATCH (server supports %d..%d)",
			e.Mismatch.Low, e.Mismatch.High)
	}
	return fmt.Sprintf("rpc failed: %v", e.AcceptStat)
}

// Config carries the knobs shared by the UDP and TCP clients.
type Config struct {
	// Prog and Vers identify the remote program.
	Prog, Vers uint32
	// Cred is the credential attached to every call (default AUTH_NULL).
	Cred rpcmsg.OpaqueAuth
	// Timeout bounds the whole call including retransmissions
	// (clnt_call's total timeout). Default 5s.
	Timeout time.Duration
	// Retransmit is the datagram retransmission interval (clntudp_create's
	// wait argument). Default 500ms. Ignored over TCP.
	Retransmit time.Duration
	// BufSize is the marshaling buffer size. Default 8900 bytes (UDPMSGSIZE
	// was 8800 in the original; we round up for headers). Over TCP it is
	// only the initial buffer size: records grow as needed.
	BufSize int
	// FirstXID seeds the transaction-id sequence; 0 derives one from the
	// clock, as gettimeofday did in clntudp_create.
	FirstXID uint32
	// NoBatch disables write coalescing on stream transports: every call
	// record is written with its own syscall, the pre-batching behavior.
	// Kept as the measurable baseline for the batch benchmarks; queued
	// batched calls (CallBatched) still queue, they just flush one record
	// per Write.
	NoBatch bool
	// Retry selects policy-driven retransmission and retry: over UDP the
	// fixed Retransmit tick becomes exponential backoff with full jitter
	// under a token-bucket budget; over TCP (with Redial set) calls that
	// fail on a broken connection are retried across reconnects when the
	// policy classifies them as safe. nil keeps the legacy semantics.
	Retry *RetryPolicy
	// Redial, on a stream client, enables transparent reconnect: when the
	// connection breaks, in-flight calls fail with a *TransportError, the
	// client redials through this function under the retry policy's
	// backoff and budget, and later calls proceed on the replacement
	// connection reusing the client's cached header templates and fused/
	// compiled codecs. nil (the default) keeps the legacy one-connection
	// lifetime. DialTCP installs a Redial automatically.
	Redial func() (net.Conn, error)
}

func (c *Config) fill() {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retransmit == 0 {
		c.Retransmit = 500 * time.Millisecond
	}
	if c.BufSize == 0 {
		c.BufSize = 8900
	}
	if c.FirstXID == 0 {
		c.FirstXID = uint32(time.Now().UnixNano())
	}
	if c.Cred.Flavor == 0 && c.Cred.Body == nil {
		c.Cred = rpcmsg.None()
	}
}

// ---------------------------------------------------------------------------
// Reply demultiplexer

// demux routes reply buffers from the transport's reader goroutine to the
// per-call channels registered by issuing goroutines, keyed on XID. It is
// the concurrency core shared by both transports.
type demux struct {
	mu    sync.Mutex // guards calls, err
	calls map[uint32]chan *[]byte
	err   error         // terminal transport error; set once
	done  chan struct{} // closed when err is set
}

func newDemux() *demux {
	return &demux{calls: make(map[uint32]chan *[]byte), done: make(chan struct{})}
}

// errXIDInFlight reports a registration colliding with a call already
// in flight on the same XID. Never surfaced to callers: registerCall
// absorbs it by advancing to the next XID.
var errXIDInFlight = errors.New("client: xid already in flight")

// register installs a reply channel for xid. The channel stays registered
// until unregister, so duplicate replies and ill-formed datagrams can be
// absorbed without losing the slot. A second registration on an XID that
// is still in flight is rejected: silently replacing the slot — what an
// unchecked map store would do — loses the first call's channel, and a
// reply for that XID would then be delivered to the wrong waiter. The
// collision is reachable once the 32-bit counter wraps on a long-lived
// connection while a slow call from the previous epoch is still waiting.
func (d *demux) register(xid uint32) (chan *[]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	if _, busy := d.calls[xid]; busy {
		return nil, errXIDInFlight
	}
	ch := make(chan *[]byte, 1)
	d.calls[xid] = ch
	return ch, nil
}

// unregister removes the slot and reclaims any undelivered reply buffer.
func (d *demux) unregister(xid uint32) {
	d.mu.Lock()
	ch := d.calls[xid]
	delete(d.calls, xid)
	d.mu.Unlock()
	if ch != nil {
		select {
		case bp := <-ch:
			xdr.PutBuf(bp)
		default:
		}
	}
}

// deliver hands a pooled reply buffer to the call waiting on xid. It
// reports false — and the caller keeps ownership of bp — when no call
// waits on that xid or its channel is already full (a stale or duplicate
// reply, dropped exactly as clntudp_call dropped mismatched XIDs).
func (d *demux) deliver(xid uint32, bp *[]byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	ch, ok := d.calls[xid]
	if !ok {
		return false
	}
	select {
	case ch <- bp:
		return true
	default:
		return false
	}
}

// fail records the terminal transport error and wakes every waiter. Only
// the first error sticks.
func (d *demux) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = err
		close(d.done)
	}
}

func (d *demux) error() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// inFlight reports how many reply slots are registered — the in-flight
// call count, exposed so leak tests can pin "cancelled calls release
// their slot".
func (d *demux) inFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.calls)
}

// lifecycle is the close state machine shared by both transports. done
// is closed the moment Close begins, so backoff and redial sleeps can
// select on it and unblock immediately instead of finishing their
// timer (the client-side mirror of the server's accept-backoff fix).
type lifecycle struct {
	mu     sync.Mutex // guards closed
	closed bool
	done   chan struct{}
}

func (l *lifecycle) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// beginClose marks the lifecycle closed and wakes every sleeper
// selecting on done. It reports whether this call was the one that
// performed the transition (repeat closes are no-ops).
func (l *lifecycle) beginClose() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.closed = true
	close(l.done)
	return true
}

// registerCall assigns the next XID and registers its reply slot,
// skipping over XIDs still claimed by in-flight calls from a previous
// counter epoch (post-wrap collisions). The loop terminates because
// fewer than 2^32 calls can be in flight at once.
func registerCall(xid *atomic.Uint32, dmx *demux) (uint32, chan *[]byte, error) {
	for {
		id := xid.Add(1)
		ch, err := dmx.register(id)
		if errors.Is(err, errXIDInFlight) {
			continue
		}
		return id, ch, err
	}
}

// ---------------------------------------------------------------------------
// Shared call-side helpers

// callTemplate compiles the per-client header template: Prog, Vers,
// Cred, and Verf are constant for a client's lifetime, so the header
// bytes are folded once and only the XID and procedure number are
// patched per call. It fails only on auth material that
// rpcmsg.CallHeader.Marshal rejects too; the client keeps that error
// and every call returns it.
func callTemplate(cfg *Config) (*rpcmsg.CallTemplate, error) {
	t, err := rpcmsg.NewCallTemplate(cfg.Prog, cfg.Vers, cfg.Cred, rpcmsg.None())
	if err != nil {
		return nil, fmt.Errorf("client: marshal call header: %w", err)
	}
	return t, nil
}

// marshalCall encodes the call header and arguments into a pooled
// buffer, leaving prefix reserved bytes at its head (the TCP transport
// reserves the record mark there, so the record layer frames and writes
// the message without copying it again). The header is one copy of
// tmpl plus two 4-byte stores. The returned buffer must go back via
// xdr.PutBuf.
func marshalCall(cfg *Config, tmpl *rpcmsg.CallTemplate, xid, proc uint32, args Marshal, prefix int) (*[]byte, error) {
	bp := xdr.GetBuf(cfg.BufSize + prefix)
	buf := (*bp)[:prefix]
	e := xdr.GetEnc(buf)
	e.BS.SetBuffer(tmpl.AppendCall(buf, xid, proc))
	err := args(&e.X)
	if err != nil {
		err = fmt.Errorf("client: marshal args: %w", err)
	}
	*bp = e.BS.Buffer() // keep any growth pooled
	xdr.PutEnc(e)
	if err != nil {
		xdr.PutBuf(bp)
		return nil, err
	}
	return bp, nil
}

// callReq selects how a call's request bytes are produced: args is the
// closure path (the legacy Marshal API), cc+argp is the fused path (one
// whole-call codec pass). Exactly one is set.
type callReq struct {
	args Marshal
	cc   *wire.CallCodec
	argp unsafe.Pointer
}

// marshalReq encodes one complete request into a pooled buffer with
// prefix reserved bytes at its head. The fused path reserves header and
// fixed-size argument bytes in one bounds check and stamps the XID into
// the image; the closure path is marshalCall unchanged. Both produce
// byte-identical messages. The client's callTemplate error is returned
// in place of any message when the header cannot compile.
func (c *core) marshalReq(r callReq, xid, proc uint32, prefix int) (*[]byte, error) {
	if c.tmplErr != nil {
		return nil, c.tmplErr
	}
	if r.cc == nil {
		return marshalCall(&c.cfg, c.tmpl, xid, proc, r.args, prefix)
	}
	bp := xdr.GetBuf(c.cfg.BufSize + prefix)
	var bs xdr.BufStream
	bs.SetBuffer((*bp)[:prefix])
	err := r.cc.Append(&bs, xid, r.argp)
	*bp = bs.Buffer() // keep any growth pooled
	if err != nil {
		xdr.PutBuf(bp)
		return nil, fmt.Errorf("client: marshal args: %w", err)
	}
	return bp, nil
}

// replySink selects how a call's reply bytes are consumed: fn is the
// closure path, rc+resp the fused path. The fused path decodes results
// straight out of the accepted-success reply; any other reply shape
// falls back to the generic header walk (via resc for the results), so
// failure detail is identical on both paths.
type replySink struct {
	fn   Marshal
	rc   *wire.ReplyCodec
	resc *wire.Codec // fallback result codec; nil for void results
	resp unsafe.Pointer
}

func (s *replySink) decode(raw []byte) error {
	if s.rc == nil {
		return decodeReply(raw, s.fn)
	}
	if handled, err := s.rc.DecodeReply(raw, s.resp); handled {
		if err != nil {
			return fmt.Errorf("client: unmarshal results: %w", err)
		}
		return nil
	}
	// Non-success, exotic, or ill-formed reply: cold path — extract the
	// full failure detail interpretively, exactly as the closure path
	// would.
	rm := Void
	if s.resc != nil {
		resc, resp := s.resc, s.resp
		rm = func(x *xdr.XDR) error { return resc.Marshal(x, resp) }
	}
	return decodeReply(raw, rm)
}

// errIllFormed marks a reply buffer whose header failed to decode; over a
// datagram transport the call keeps waiting, as clntudp_call ignored
// undecodable datagrams. It only surfaces wrapped (stream transports
// treat it as fatal), so it carries no "client:" prefix of its own.
var errIllFormed = errors.New("ill-formed reply header")

// decodeReply interprets one complete reply message and runs the caller's
// result unmarshaler. The common shape — an accepted SUCCESS with an
// in-bounds verifier — is recognized at fixed offsets without touching
// the interpretive walker; anything unusual (error statuses, denials,
// ill-formed headers) falls back to the generic ReplyHeader.Marshal so
// the full failure detail is still extracted.
func decodeReply(raw []byte, reply Marshal) error {
	if body, ok := rpcmsg.AcceptedSuccessBody(raw); ok {
		d := xdr.GetDec(body)
		err := reply(&d.X)
		xdr.PutDec(d)
		if err != nil {
			return fmt.Errorf("client: unmarshal results: %w", err)
		}
		return nil
	}
	d := xdr.GetDec(raw)
	defer xdr.PutDec(d)
	var rh rpcmsg.ReplyHeader
	if err := rh.Marshal(&d.X); err != nil {
		return errIllFormed
	}
	if err := checkReply(&rh); err != nil {
		return err
	}
	if err := reply(&d.X); err != nil {
		return fmt.Errorf("client: unmarshal results: %w", err)
	}
	return nil
}

// drainReply makes a last non-blocking check of the reply channel before
// Call returns a transport error or timeout. The reader goroutine may have
// delivered a valid reply in the same instant the connection failed, and
// select picks among ready arms at random, so without this a call could
// discard its own answer. Reports true when a decodable reply was found.
func drainReply(ch chan *[]byte, sink *replySink) (bool, error) {
	select {
	case bp := <-ch:
		err := sink.decode(*bp)
		xdr.PutBuf(bp)
		if errors.Is(err, errIllFormed) {
			return false, nil
		}
		return true, err
	default:
		return false, nil
	}
}

// ---------------------------------------------------------------------------
// Fused whole-call plans

// plannedProcs caches the fused whole-call codecs a client compiles on
// first typed use of each (procedure, plan pair): the call side fuses
// the client's header template with the argument plan, the reply side
// wraps the result plan for direct decode. An entry with no codecs
// records that its plan pair cannot fuse (no template, generic-mode
// plans). The cache keys on the procedure and re-resolves when the
// caller's plans differ from the cached pair, so the fusion decision
// always belongs to the plans in hand, never to whichever caller
// happened to arrive first.
type plannedProcs struct {
	mu sync.RWMutex // guards m
	m  map[uint32]*plannedProc
}

type plannedProc struct {
	argc, resc *wire.Codec // identity of the plans the entry was compiled for
	call       *wire.CallCodec
	rep        *wire.ReplyCodec // call == nil marks an unfusable pair
}

// lookup resolves (compiling on first use, or when the plans changed)
// the fused codecs for proc. It returns nil — route through the
// closure path — when this plan pair cannot fuse.
func (ps *plannedProcs) lookup(tmpl *rpcmsg.CallTemplate, proc uint32, argc, resc *wire.Codec) *plannedProc {
	ps.mu.RLock()
	e := ps.m[proc]
	ps.mu.RUnlock()
	if e == nil || e.argc != argc || e.resc != resc {
		e = compilePlanned(tmpl, proc, argc, resc)
		ps.mu.Lock()
		if ps.m == nil {
			ps.m = make(map[uint32]*plannedProc)
		}
		// Last writer wins: concurrent compilations for the same pair are
		// equivalent, and a different pair claims the slot for its own
		// steady state (alternating pairs on one procedure would thrash
		// the cache, but each call still gets a correct codec).
		ps.m[proc] = e
		ps.mu.Unlock()
	}
	if e.call == nil {
		return nil
	}
	return e
}

// compilePlanned builds the fused entry for one plan pair; when the
// pair must stay on the template+plan path — interpretive-mode plans,
// or no template, where every call fails anyway — the entry carries no
// codecs and records the negative decision for that pair.
// Each side runs on the rpcgen-emitted compiled engine when one is
// registered for its plan and on the fused plan engine otherwise; the
// message bytes are identical, only the marshaling engine changes.
func compilePlanned(tmpl *rpcmsg.CallTemplate, proc uint32, argc, resc *wire.Codec) *plannedProc {
	e := &plannedProc{argc: argc, resc: resc}
	// A nil template or a Generic-mode codec without a compiled routine
	// fails its constructor, so no pre-check is needed here.
	var err error
	call := wire.NewCompiledCallCodec(tmpl, proc, argc)
	if call == nil {
		if call, err = wire.NewCallCodec(tmpl, proc, argc); err != nil {
			return e
		}
	}
	rep := wire.NewCompiledReplyCodec(nil, resc)
	if rep == nil {
		if rep, err = wire.NewReplyCodec(nil, resc); err != nil {
			return e
		}
	}
	e.call, e.rep = call, rep
	return e
}

// plannedCaller is the transport hook CallTyped probes for: transports
// that can compile fused whole-call codecs report handled=true and
// perform the call; anything else falls back to the closure path.
type plannedCaller interface {
	callPlanned(ctx context.Context, proc uint32, argc *wire.Codec, arg unsafe.Pointer, resc *wire.Codec, res unsafe.Pointer) (bool, error)
}

func checkReply(rh *rpcmsg.ReplyHeader) error {
	if rh.Stat == rpcmsg.MsgAccepted && rh.AcceptStat == rpcmsg.Success {
		return nil
	}
	return &RPCError{
		Stat:       rh.Stat,
		AcceptStat: rh.AcceptStat,
		RejectStat: rh.RejectStat,
		AuthStat:   rh.AuthStat,
		Mismatch:   rh.Mismatch,
	}
}

// ---------------------------------------------------------------------------
// The call core

// transport is what each client supplies to core: one call's trip from
// registering its reply slot to its outcome, by the resolved deadline.
type transport interface {
	roundTrip(ctx context.Context, proc uint32, req callReq, sink replySink, deadline time.Time) error
}

// core is the one call path of both clients and their client-lifetime
// state; UDP and TCP embed it and supply only their transport. The state
// outlives a TCP connection generation, so a reconnect recompiles nothing.
type core struct {
	cfg     Config
	tmpl    *rpcmsg.CallTemplate
	tmplErr error // callTemplate's error, returned by every call
	xid     atomic.Uint32
	planned plannedProcs
	life    lifecycle
	policy  *RetryPolicy // nil → legacy: fixed UDP tick, no TCP retry or redial backoff
	budget  *retryBudget // shared by retransmits, call retries and redials
	stats   retryCounters
	t       transport
}

// init sets up the client-lifetime state. A datagram client takes a
// retry policy only from cfg.Retry, with Retransmit as its default
// BaseDelay; a stream client also takes the default policy when Redial
// is set, since redialing backs off under it.
func (c *core) init(cfg Config, t transport, stream bool) {
	cfg.fill()
	c.cfg, c.t = cfg, t
	c.life.done = make(chan struct{})
	c.tmpl, c.tmplErr = callTemplate(&c.cfg)
	c.xid.Store(cfg.FirstXID)
	p, seed := cfg.Retry, cfg.Retransmit
	if stream {
		seed = 0
		if p == nil && cfg.Redial != nil {
			p = &RetryPolicy{}
		}
	}
	if p != nil {
		q := p.norm(seed)
		c.policy, c.budget = &q, newRetryBudget(&q)
	}
}

// Call performs one remote procedure call: marshal header + args, send,
// await the XID-matched reply, then decode the results with reply. It
// is safe for concurrent use; unlike the original one-call-at-a-time
// clients, concurrent calls proceed in parallel and replies may arrive
// in any order. Over UDP the request is retransmitted until the reply
// arrives; over TCP it is one record out, one record back.
func (c *core) Call(proc uint32, args, reply Marshal) error {
	return c.doCall(context.Background(), proc, callReq{args: args}, replySink{fn: reply})
}

// CallCtx is Call with a per-call context: the call's deadline is the
// earlier of the context deadline and the client's Timeout, and
// cancelling the context abandons the call immediately (releasing its
// reply slot; a late reply is dropped by the demultiplexer like any
// stale one). Over TCP the deadline also bounds the shared record write
// (the batcher arms the connection's write deadline from the earliest
// deadline in each batch).
func (c *core) CallCtx(ctx context.Context, proc uint32, args, reply Marshal) error {
	return c.doCall(ctx, proc, callReq{args: args}, replySink{fn: reply})
}

// callPlanned is the fused entry point CallTyped routes typed calls
// through: same transport semantics as Call, with the request encoded
// by a whole-call codec and the results decoded straight from the
// reply. handled=false sends the caller to the closure path.
func (c *core) callPlanned(ctx context.Context, proc uint32, argc *wire.Codec, arg unsafe.Pointer, resc *wire.Codec, res unsafe.Pointer) (bool, error) {
	e := c.planned.lookup(c.tmpl, proc, argc, resc)
	if e == nil {
		return false, nil
	}
	return true, c.doCall(ctx, proc,
		callReq{cc: e.call, argp: arg},
		replySink{rc: e.rep, resc: resc, resp: res})
}

func (c *core) doCall(ctx context.Context, proc uint32, req callReq, sink replySink) error {
	if c.isClosed() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.t.roundTrip(ctx, proc, req, sink, callDeadline(ctx, c.cfg.Timeout))
}

// await is the reply wait: it returns the decoded reply once one
// arrives on ch, or fails the call when its deadline passes, ctx ends,
// or dmx fails. Each failure first makes a last drainReply check, so a
// reply that raced it still wins. broken reports a dmx failure: err is
// then ErrClosed or the demultiplexer's terminal error, and a stream
// client may retry on a new connection.
//
// rt, when non-nil, is the datagram retransmit schedule, run on a timer
// of its own; an ill-formed reply is then ignored and the wait goes on,
// as clntudp_call ignored undecodable datagrams. Without it (a stream)
// an ill-formed reply fails the call.
func (c *core) await(ctx context.Context, dmx *demux, ch chan *[]byte, sink *replySink, deadline time.Time, rt *retransmit) (broken bool, err error) {
	overall := time.NewTimer(time.Until(deadline))
	defer overall.Stop()
	var tick <-chan time.Time
	var retrans *time.Timer
	if rt != nil {
		retrans = time.NewTimer(rt.delay())
		defer retrans.Stop()
		tick = retrans.C
	}
	for {
		select {
		case bp := <-ch:
			derr := sink.decode(*bp)
			xdr.PutBuf(bp)
			if !errors.Is(derr, errIllFormed) {
				return false, derr
			}
			if rt == nil {
				return false, fmt.Errorf("client: read reply: %w", derr)
			}
			continue
		case <-tick:
			next, serr := rt.fire()
			if serr == nil {
				if next > 0 {
					retrans.Reset(next)
				}
				continue
			}
			err = serr
		case <-overall.C:
		case <-ctx.Done():
		case <-dmx.done:
			broken, err = true, dmx.error()
		}
		if ok, derr := drainReply(ch, sink); ok {
			return false, derr
		}
		switch {
		case broken && c.isClosed():
			return true, ErrClosed
		case err != nil:
			return broken, err
		case ctx.Err() != nil:
			return false, ctx.Err()
		}
		return false, ErrTimeout
	}
}

// errBudget reports a retry or redial suppressed by the token-bucket
// budget: the client is failing faster than the policy lets it retry.
var errBudget = errors.New("client: retry budget exhausted")

// backoff is the sleep before stream retry n (1 for the first): it
// spends one budget token, or counts the denial and returns errBudget,
// then sleeps the policy's jittered delay. ctx and Close cut the sleep
// short, returning ctx.Err() or ErrClosed.
func (c *core) backoff(ctx context.Context, n int) error {
	if !c.budget.take() {
		c.stats.budgetDenied.Add(1)
		return errBudget
	}
	t := time.NewTimer(c.policy.delay(n))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.life.done:
		return ErrClosed
	}
}

// RetryStats reports the client's retransmission and retry counters.
func (c *core) RetryStats() RetryStats { return c.stats.retryStats() }

func (c *core) isClosed() bool { return c.life.isClosed() }

// ---------------------------------------------------------------------------
// UDP

// UDP is a datagram client (CLIENT from clntudp_create): unreliable
// transport, at-least-once semantics via retransmission, reply matched to
// request by XID. Any number of goroutines may Call concurrently; each
// call retransmits independently while a shared reader goroutine routes
// replies.
type UDP struct {
	core
	conn   net.PacketConn
	server net.Addr

	dmx       *demux
	truncated atomic.Uint64
	reader    sync.Once
}

// NewUDP returns a client sending calls for cfg.Prog/cfg.Vers to server
// over conn. The caller retains ownership of conn's lifetime via Close.
func NewUDP(conn net.PacketConn, server net.Addr, cfg Config) *UDP {
	c := &UDP{conn: conn, server: server, dmx: newDemux()}
	c.init(cfg, c, false)
	return c
}

// roundTrip sends one datagram call and awaits its reply, retransmitting
// on the schedule of retransmit.
func (c *UDP) roundTrip(ctx context.Context, proc uint32, req callReq, sink replySink, deadline time.Time) error {
	c.reader.Do(func() { go c.readLoop() })

	xid, ch, err := registerCall(&c.xid, c.dmx)
	if err != nil {
		return err
	}
	defer c.dmx.unregister(xid)

	reqBuf, err := c.marshalReq(req, xid, proc, 0)
	if err != nil {
		return err
	}
	defer xdr.PutBuf(reqBuf)
	if len(*reqBuf) >= c.cfg.BufSize {
		// The growable marshal buffer fits any request, but a datagram
		// transport must still bound it: reject client-side, as the
		// original fixed-buffer client did with a marshal overflow. The
		// bound is exclusive: a datagram that *fills* the receiver's
		// buffer is indistinguishable from a truncated one and is
		// dropped on arrival, so sending it would only burn the timeout.
		return fmt.Errorf("client: marshal args: %w (request %d bytes reaches datagram buffer %d)",
			xdr.ErrOverflow, len(*reqBuf), c.cfg.BufSize)
	}

	if err := c.send(*reqBuf); err != nil {
		return err
	}
	_, err = c.await(ctx, c.dmx, ch, &sink, deadline, &retransmit{c: c, req: *reqBuf, sent: 1})
	return err
}

// retransmit is one call's datagram retransmit schedule. With a policy
// it is exponential backoff with full jitter, bounded by MaxAttempts and
// the retry budget; without one it is the classic fixed tick. Either way
// the deadline — not the attempt bound — ends the call: a stopped
// schedule still waits for a straggling reply.
type retransmit struct {
	c    *UDP
	req  []byte
	sent int // datagrams sent so far
}

func (r *retransmit) delay() time.Duration {
	if r.c.policy == nil {
		return r.c.cfg.Retransmit
	}
	return r.c.policy.delay(r.sent)
}

// fire runs when the retransmit timer expires. It returns the delay
// until the next expiry, or 0 once the schedule is exhausted.
func (r *retransmit) fire() (time.Duration, error) {
	c := r.c
	if c.policy != nil && r.sent >= c.policy.MaxAttempts {
		return 0, nil
	}
	if !c.budget.take() {
		// Suppressed, not failed: count it, keep the schedule running
		// so a refilled bucket resumes retransmitting.
		c.stats.budgetDenied.Add(1)
		return r.delay(), nil
	}
	if err := c.send(r.req); err != nil {
		return 0, err
	}
	r.sent++
	c.stats.retransmits.Add(1)
	return r.delay(), nil
}

// InFlight reports how many calls currently hold a reply slot; it
// returns to zero once every outstanding call finishes, times out, or
// is cancelled (no slot leaks).
func (c *UDP) InFlight() int { return c.dmx.inFlight() }

func (c *UDP) send(req []byte) error {
	if _, err := c.conn.WriteTo(req, c.server); err != nil {
		if c.isClosed() {
			return ErrClosed
		}
		return fmt.Errorf("client: send: %w", err)
	}
	return nil
}

// maxConsecReadErrs bounds how many back-to-back datagram read errors the
// reader tolerates before declaring the socket dead.
const maxConsecReadErrs = 64

// readLoop is the demultiplexer: it owns the socket's read side, peeks
// the XID of each datagram, and hands the pooled buffer to the matching
// call. It exits when the socket is closed or persistently failing.
func (c *UDP) readLoop() {
	consecErrs := 0
	for {
		bp := xdr.GetBuf(c.cfg.BufSize)
		// Read into exactly BufSize bytes: recycled pool buffers may be
		// larger, and the datagram size bound must not vary with them.
		buf := (*bp)[:c.cfg.BufSize]
		n, _, err := c.conn.ReadFrom(buf)
		if err != nil {
			xdr.PutBuf(bp)
			if c.isClosed() || errors.Is(err, net.ErrClosed) {
				c.dmx.fail(ErrClosed)
				return
			}
			// Datagram read errors are usually per-packet (e.g. an ICMP
			// port-unreachable surfaced on read after a send to a briefly
			// down server): keep reading so one transient error does not
			// brick the client — calls keep retransmitting meanwhile. A
			// persistent error stream means the socket is dead; fail every
			// call rather than spinning forever.
			if consecErrs++; consecErrs >= maxConsecReadErrs {
				c.dmx.fail(fmt.Errorf("client: recv: %w", err))
				return
			}
			continue
		}
		consecErrs = 0
		if n == c.cfg.BufSize {
			// A datagram that fills the read buffer exactly cannot be told
			// apart from one the kernel truncated to fit it; handing it to
			// the reply decoder would risk parsing a prefix of the real
			// message as if complete. Drop it — the call retransmits — and
			// count the drop so operators can size BufSize accordingly.
			c.truncated.Add(1)
			xdr.PutBuf(bp)
			continue
		}
		*bp = buf[:n]
		xid, ok := rpcmsg.PeekXID(*bp)
		if !ok || !c.dmx.deliver(xid, bp) {
			xdr.PutBuf(bp) // stale or duplicate reply: discard
		}
	}
}

// TruncatedDrops reports how many possibly-truncated reply datagrams
// (received length == BufSize) the reader has discarded.
func (c *UDP) TruncatedDrops() uint64 { return c.truncated.Load() }

// Close releases the client and its socket (which stops the reader).
// In-flight calls fail with ErrClosed; repeat closes are no-ops.
func (c *UDP) Close() error {
	if !c.life.beginClose() {
		return nil
	}
	err := c.conn.Close()
	c.dmx.fail(ErrClosed)
	return err
}

// ---------------------------------------------------------------------------
// TCP

// TCP is a connection-oriented client (clnttcp_create): reliable
// transport, record-marked stream, no retransmission. Calls from many
// goroutines are pipelined onto the single connection: requests are
// written back to back and a reader goroutine routes each reply record to
// its call by XID, so replies may be consumed out of order.
//
// Record writes go through a group-commit batcher: when several calls
// are in flight their request records coalesce into one vectored write,
// so syscalls amortize across the pipeline depth (Config.NoBatch keeps
// the one-write-per-record baseline). CallBatched queues fire-and-forget
// requests on the same writer.
type TCP struct {
	core

	// connMu guards cur, redialCh — the connection generations. cur is the connection
	// calls go out on; each generation owns its conn, demultiplexer,
	// batcher, and reader, so a dead generation's state never bleeds
	// into its replacement. redialCh is non-nil while one goroutine is
	// reconnecting (closed when it finishes): single-flight, so a burst
	// of failing calls produces one dial sequence, not one each.
	connMu   sync.Mutex
	cur      *tcpConn
	redialCh chan struct{}
}

// tcpConn is one connection generation: everything whose lifetime is
// the connection's, not the client's. The client-lifetime state — XID
// counter, header template, fused/compiled codec cache, retry budget,
// stats — lives in core and is reused across generations.
type tcpConn struct {
	conn   net.Conn
	dmx    *demux
	batch  *xdr.RecBatcher // owns the write side of the record stream
	reader sync.Once
}

func (tc *tcpConn) start(c *TCP) {
	tc.reader.Do(func() { go c.readLoop(tc) })
}

// minWriteGrace floors the armed write deadline: a call whose own
// deadline already passed (it will time out regardless) must not arm an
// instantly-expired deadline and poison the shared write for the
// healthy calls batched with it.
const minWriteGrace = 5 * time.Millisecond

// newConn builds a connection generation around conn, wiring the
// batcher's deadline and failure hooks to this generation only.
func (c *TCP) newConn(conn net.Conn) *tcpConn {
	tc := &tcpConn{conn: conn, dmx: newDemux()}
	tc.batch = xdr.NewRecBatcher(xdr.NewRecStream(conn, 0))
	// The write deadline covers each vectored write: a peer that stopped
	// reading must not wedge the writers sharing the stream past their
	// call budget. earliest is the tightest per-call deadline among the
	// batched records (from WriteDeadline), so a nearly-expired call
	// bounds the write by its own remaining budget, never by a whole
	// fresh Timeout; records with no deadline fall back to Timeout.
	tc.batch.PreWrite = func(earliest time.Time) error {
		dl := time.Now().Add(c.cfg.Timeout)
		if !earliest.IsZero() && earliest.Before(dl) {
			dl = earliest
			if floor := time.Now().Add(minWriteGrace); dl.Before(floor) {
				dl = floor
			}
		}
		return conn.SetWriteDeadline(dl)
	}
	// A failed or timed-out batch write leaves the record framing
	// unusable for every call sharing the stream — including calls whose
	// records were queued by a leader that already returned — so fail the
	// generation and close its connection so everyone unblocks now.
	tc.batch.OnError = func(err error) {
		if c.isClosed() {
			tc.dmx.fail(ErrClosed)
		} else {
			tc.dmx.fail(fmt.Errorf("client: send record: %w", err))
		}
		_ = conn.Close()
	}
	if c.cfg.NoBatch {
		tc.batch.MaxBatch = 1
	}
	return tc
}

// NewTCP returns a client issuing calls over the established connection.
// With cfg.Redial set the connection is only the first of possibly many:
// when it breaks, the client redials under the retry policy and swaps in
// a replacement generation transparently.
func NewTCP(conn net.Conn, cfg Config) *TCP {
	c := &TCP{}
	c.init(cfg, c, true)
	c.cur = c.newConn(conn)
	return c
}

// DialTCP dials addr and returns a stream client with transparent
// reconnect enabled: cfg.Redial defaults to redialing the same address.
func DialTCP(network, addr string, cfg Config) (*TCP, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if cfg.Redial == nil {
		cfg.Redial = func() (net.Conn, error) { return net.Dial(network, addr) }
	}
	return NewTCP(conn, cfg), nil
}

// current returns the live connection generation.
func (c *TCP) current() *tcpConn {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.cur
}

// acquire returns a healthy connection generation, reconnecting if the
// current one has failed. Without a Redial it returns the current
// generation regardless of health — the call then surfaces the dead
// generation's error exactly as the legacy client did. With one, the
// first goroutine to find the generation dead becomes the redialer and
// the rest wait on its outcome (bounded by the caller's deadline).
func (c *TCP) acquire(ctx context.Context, deadline time.Time) (*tcpConn, error) {
	for {
		c.connMu.Lock()
		if c.isClosed() {
			c.connMu.Unlock()
			return nil, ErrClosed
		}
		tc := c.cur
		if tc.dmx.error() == nil || c.cfg.Redial == nil {
			c.connMu.Unlock()
			return tc, nil
		}
		if c.redialCh == nil {
			ch := make(chan struct{})
			c.redialCh = ch
			c.connMu.Unlock()
			err := c.reconnect(tc)
			c.connMu.Lock()
			c.redialCh = nil
			c.connMu.Unlock()
			close(ch)
			if err != nil {
				return nil, err
			}
			continue
		}
		ch := c.redialCh
		c.connMu.Unlock()
		wait := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
			wait.Stop()
		case <-wait.C:
			return nil, ErrTimeout
		case <-ctx.Done():
			wait.Stop()
			return nil, ctx.Err()
		case <-c.life.done:
			wait.Stop()
			return nil, ErrClosed
		}
	}
}

// reconnect retires the dead generation and dials its replacement under
// the retry policy: each attempt after the first backs off (a budget
// token and a jittered sleep, interruptible by Close). On success the
// replacement is installed as cur (unless Close won the race, in which
// case the fresh connection is closed again).
func (c *TCP) reconnect(old *tcpConn) error {
	if old != nil {
		_ = old.conn.Close()
	}
	var lastErr error
	for attempt := 1; attempt <= c.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			// The redial serves every call waiting on it, so no one
			// call's ctx may end it; only Close does.
			if err := c.backoff(context.Background(), attempt-1); err != nil {
				if errors.Is(err, errBudget) {
					return fmt.Errorf("client: reconnect: %w", err)
				}
				return err
			}
		}
		if c.isClosed() {
			return ErrClosed
		}
		conn, err := c.cfg.Redial()
		if err != nil {
			c.stats.redialFailures.Add(1)
			lastErr = err
			continue
		}
		tc := c.newConn(conn)
		c.connMu.Lock()
		if c.isClosed() {
			c.connMu.Unlock()
			_ = conn.Close()
			return ErrClosed
		}
		c.cur = tc
		c.connMu.Unlock()
		c.stats.reconnects.Add(1)
		return nil
	}
	return fmt.Errorf("client: reconnect: %w", lastErr)
}

// roundTrip drives one call to completion, possibly across connection
// generations. Each attempt runs on the then-current generation; a
// transport failure is classified by whether the request could have
// reached the server. "Definitely not sent" failures (the batcher
// rejected the record before queueing it, or the generation was already
// dead at registration) are always safe to retry; "maybe sent" failures
// (the record was handed to the wire before the connection died) are
// retried only under RetryPolicy.RetryAmbiguous, because the stream
// path has no duplicate-request cache to absorb a re-execution.
func (c *TCP) roundTrip(ctx context.Context, proc uint32, req callReq, sink replySink, deadline time.Time) error {
	maxAttempts := 1
	if c.policy != nil && c.cfg.Redial != nil {
		maxAttempts = c.policy.MaxAttempts
	}
	var lastErr error
	lastSent := false
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			if lastSent && !c.policy.RetryAmbiguous {
				break
			}
			if err := c.backoff(ctx, attempt-1); err != nil {
				if !errors.Is(err, errBudget) {
					return err
				}
				lastErr = fmt.Errorf("%w (%w)", lastErr, err)
				break
			}
			if time.Now().After(deadline) {
				break
			}
			c.stats.retries.Add(1)
		}
		final, err, sent := c.attemptOnce(ctx, proc, req, &sink, deadline)
		if final {
			return err
		}
		lastErr, lastSent = err, sent
	}
	if c.cfg.Redial == nil {
		return lastErr
	}
	return &TransportError{Err: lastErr, MaybeSent: lastSent}
}

// attemptOnce runs one send/await cycle on the current generation.
// final=true means err is the call's outcome (reply decoded, RPC error,
// timeout, cancellation, closed client); final=false means a transport
// failure the retry loop may act on, with sent reporting whether the
// request could have reached the server.
func (c *TCP) attemptOnce(ctx context.Context, proc uint32, req callReq, sink *replySink, deadline time.Time) (final bool, err error, sent bool) {
	tc, aerr := c.acquire(ctx, deadline)
	if aerr != nil {
		if errors.Is(aerr, ErrClosed) || errors.Is(aerr, ErrTimeout) ||
			errors.Is(aerr, context.Canceled) || errors.Is(aerr, context.DeadlineExceeded) {
			return true, aerr, false
		}
		// Reconnect already retried dialing under the policy; surface its
		// failure with the not-sent classification rather than looping.
		return true, &TransportError{Err: aerr, MaybeSent: false}, false
	}
	tc.start(c)

	xid, ch, rerr := registerCall(&c.xid, tc.dmx)
	if rerr != nil {
		// The generation died before the call registered: nothing sent.
		if c.isClosed() {
			return true, ErrClosed, false
		}
		return false, rerr, false
	}
	defer tc.dmx.unregister(xid)

	// The record mark is reserved at the head of the marshal buffer, so
	// the record layer patches it in place and the whole call leaves in
	// one Write — the message is never copied into the fragment buffer.
	reqBuf, merr := c.marshalReq(req, xid, proc, xdr.RecordMarkLen)
	if merr != nil {
		return true, merr, false
	}
	// Ownership of reqBuf transfers to the batcher: it is released after
	// the batch carrying it is written. Concurrent callers coalesce —
	// their records leave in one vectored write — and any queued batched
	// calls (CallBatched) ride out with this record. The call's deadline
	// rides along so the batch write is armed with the earliest deadline
	// among its records.
	if werr := tc.batch.WriteDeadline(reqBuf, deadline); werr != nil {
		if c.isClosed() {
			return true, ErrClosed, false
		}
		// A record rejected by an already-failed batcher never entered the
		// queue: definitively not sent. Any other write failure may have
		// put a prefix of the batch — including this record — on the wire.
		return false, fmt.Errorf("client: send record: %w", werr), !errors.Is(werr, xdr.ErrRejected)
	}

	// A generation that broke with the client still open had the request
	// handed to its wire: the server may have executed it even though no
	// reply arrived.
	broken, err := c.await(ctx, tc.dmx, ch, sink, deadline, nil)
	return !broken || errors.Is(err, ErrClosed), err, true
}

// ReconnectStats reports the client's transparent-reconnect counters.
func (c *TCP) ReconnectStats() ReconnectStats { return c.stats.reconnectStats() }

// InFlight reports how many calls currently hold a reply slot on the
// live connection generation; see (*UDP).InFlight.
func (c *TCP) InFlight() int { return c.current().dmx.inFlight() }

// QueuedRecords reports how many records sit unflushed in the live
// generation's batcher queue (leak gauge: cancelled and failed calls
// must not strand entries there).
func (c *TCP) QueuedRecords() int { return c.current().batch.Pending() }

// CallBatched issues one ONC batched (fire-and-forget) call: the request
// is marshaled and queued on the connection's record writer, and no
// reply is awaited — the original batching protocol of clnt_tcp, where a
// sequence of batched calls is terminated by a normal Call whose write
// flushes the queue and whose reply confirms the connection is alive.
// Queued calls also leave when the queued bytes reach the batcher's
// watermark, on an explicit Flush, or on Close.
//
// The semantics are strictly weaker than Call: no reply means no
// at-most-once confirmation and no error report from the server (the
// server's reply, if any, is discarded by the demultiplexer), and a
// transport failure after CallBatched returns surfaces only on the next
// Call, Flush, or CallBatched. Not supported over UDP, exactly as in the
// original: a datagram transport would need retransmission, which needs
// a reply.
func (c *TCP) CallBatched(proc uint32, args Marshal) error {
	tc, aerr := c.acquire(context.Background(), time.Now().Add(c.cfg.Timeout))
	if aerr != nil {
		return aerr
	}
	// Start the reader even though no reply is expected: the server
	// replies to batched calls it cannot tell apart from normal ones, and
	// someone must drain those records off the connection.
	tc.start(c)
	xid := c.xid.Add(1)
	reqBuf, err := c.marshalReq(callReq{args: args}, xid, proc, xdr.RecordMarkLen)
	if err != nil {
		return err
	}
	if err := tc.batch.Queue(reqBuf); err != nil {
		if c.isClosed() {
			return ErrClosed
		}
		return fmt.Errorf("client: send record: %w", err)
	}
	return nil
}

// Flush forces out every queued batched call without issuing a terminal
// Call. A failure here poisons the connection like any other write
// failure.
func (c *TCP) Flush() error {
	if err := c.current().batch.Flush(); err != nil {
		if c.isClosed() {
			return ErrClosed
		}
		return fmt.Errorf("client: send record: %w", err)
	}
	return nil
}

// readLoop owns one generation's read side: it slurps one reply record
// at a time into a pooled buffer and routes it by XID. Records for XIDs
// with no waiter (e.g. replies arriving after a call timed out) are
// dropped. A read failure fails only this generation; with Redial set
// the next call swaps in a replacement.
func (c *TCP) readLoop(tc *tcpConn) {
	rrec := xdr.NewRecStream(tc.conn, 0)
	for {
		bp := xdr.GetBuf(c.cfg.BufSize)
		rec, err := rrec.ReadRecord((*bp)[:0])
		*bp = rec
		if err != nil {
			xdr.PutBuf(bp)
			if c.isClosed() {
				tc.dmx.fail(ErrClosed)
			} else {
				tc.dmx.fail(fmt.Errorf("client: read reply: %w", err))
			}
			return
		}
		xid, ok := rpcmsg.PeekXID(rec)
		if !ok || !tc.dmx.deliver(xid, bp) {
			xdr.PutBuf(bp) // stale record (timed-out call): discard
		}
	}
}

// Close flushes any queued batched calls, then releases the client and
// its connection. In-flight calls fail with ErrClosed; a flush failure
// is reported once close itself succeeded (repeat closes stay nil — the
// batcher's empty Flush is a no-op even after a transport failure).
// Closing also interrupts any in-progress retry backoff or redial sleep
// immediately: sleepers select on the lifecycle's done channel.
func (c *TCP) Close() error {
	if !c.life.beginClose() {
		return nil
	}
	tc := c.current()
	ferr := tc.batch.Flush()
	err := tc.conn.Close()
	tc.dmx.fail(ErrClosed)
	if err == nil && ferr != nil {
		err = fmt.Errorf("client: flush batched calls: %w", ferr)
	}
	return err
}

// Caller is the interface satisfied by both transports; generated stubs
// are written against it.
type Caller interface {
	Call(proc uint32, args, reply Marshal) error
	CallCtx(ctx context.Context, proc uint32, args, reply Marshal) error
	Close() error
}

var (
	_ Caller        = (*UDP)(nil)
	_ Caller        = (*TCP)(nil)
	_ plannedCaller = (*UDP)(nil)
	_ plannedCaller = (*TCP)(nil)
)
