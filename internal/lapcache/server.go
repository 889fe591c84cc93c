package lapcache

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockbuf"
	"repro/internal/blockdev"
	"repro/internal/wire"
)

// Every connection starts in the JSON protocol: newline-delimited
// JSON, one request and one response per line, pipelined in order per
// connection. Offsets and sizes are in blocks; clients convert byte
// ranges with blockdev.ByteRangeToSpan, honouring the paper's
// two-bytes-two-blocks rule. A "ping" reports the server's algorithm,
// block size and maximum protocol version; a client that sees
// proto_max >= wire.ProtoBinary may send {"op":"upgrade"} and switch
// the connection to the binary framed protocol (see internal/wire),
// whose read path streams raw block payloads straight from the
// cache's refcounted buffers — no base64, no copy. Plain JSON stays
// fully supported for old clients and debugging (lapget -json).
//
// Ordering on a binary connection: a request is ordered after every
// request whose response the client has already received. Requests
// pipelined on one connection are not ordered among themselves —
// exactly as requests on different connections never were — and
// their responses may arrive in any order, matched by Seq. Cache hits
// are answered inline and in order; a request that can block (a read
// with an uncached block, a write, a close forwarded to the owner)
// runs on a worker and answers when it finishes. A client that needs
// one request to see another's effect waits for the first response.

// WireRequest is one client request (JSON protocol).
type WireRequest struct {
	Op     string `json:"op"` // ping | read | write | close | stats | upgrade
	File   int32  `json:"file,omitempty"`
	Offset int32  `json:"offset,omitempty"` // first block
	Size   int32  `json:"size,omitempty"`   // blocks
	// WantData asks a read to return the block payload (base64 in
	// JSON); replay clients leave it off to keep the wire thin.
	WantData bool `json:"want_data,omitempty"`
	// Data carries a write's payload; nil writes the deterministic
	// fill pattern.
	Data []byte `json:"data,omitempty"`
	// Proto names the protocol version an "upgrade" requests
	// (defaults to wire.ProtoBinary).
	Proto int `json:"proto,omitempty"`
}

// WireResponse is one server response (JSON protocol).
type WireResponse struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// Hit is set on reads: every requested block was cached on
	// arrival.
	Hit  bool   `json:"hit,omitempty"`
	Data []byte `json:"data,omitempty"`
	// Replicated is set on writes: the blocks were also installed on
	// the file's R=2 successor before the ack (durably double-homed).
	Replicated bool      `json:"replicated,omitempty"`
	Stats      *Snapshot `json:"stats,omitempty"`
	Alg        string    `json:"alg,omitempty"`
	BlockSize  int       `json:"block_size,omitempty"`
	// ProtoMax (on ping) is the newest protocol version this server
	// speaks; a client upgrades past JSON only after seeing it.
	ProtoMax int `json:"proto_max,omitempty"`
	// Owner and OwnerSelf answer an "owner" request on a clustered
	// server: the advertise address of the file's ring owner and
	// whether that owner is the answering node.
	Owner     string `json:"owner,omitempty"`
	OwnerSelf bool   `json:"owner_self,omitempty"`
}

// pingPayload is the JSON document carried by binary ping and stats
// responses (rare ops, so their encoding is irrelevant).
type pingPayload struct {
	Alg       string `json:"alg"`
	BlockSize int    `json:"block_size"`
	ProtoMax  int    `json:"proto_max"`
	// Self and Members describe cluster membership on a clustered
	// server; absent on a single node.
	Self    string   `json:"self,omitempty"`
	Members []string `json:"members,omitempty"`
}

// ownerPayload is the JSON document answering an ownership query.
type ownerPayload struct {
	Owner string `json:"owner"`
	Self  bool   `json:"self"`
}

// CloseReason classifies why one connection's serve loop ended. The
// distinctions matter under faults: a client cut off in the middle of
// a frame used to be indistinguishable from one that idled out, which
// made injected disconnects invisible in drain accounting.
type CloseReason string

const (
	// CloseEOF: the client disconnected cleanly at a frame boundary.
	CloseEOF CloseReason = "eof"
	// CloseIdle: no request arrived within IdleTimeout (the deadline
	// fired at a frame boundary).
	CloseIdle CloseReason = "idle_timeout"
	// CloseMidFrame: the connection died or stalled out INSIDE a frame
	// — a truncated header, a payload that never finished, an injected
	// mid-stream disconnect. Never conflated with CloseIdle: the
	// client was mid-request, not quiet.
	CloseMidFrame CloseReason = "mid_frame"
	// CloseShutdown: the server's drain path retired the connection.
	CloseShutdown CloseReason = "shutdown"
	// CloseProtocol: the client sent bytes that do not parse as a
	// frame (bad version, nonzero reserved byte, oversized payload).
	CloseProtocol CloseReason = "protocol"
	// CloseWrite: a response write or flush failed (slow or gone
	// client).
	CloseWrite CloseReason = "write_error"
	// CloseTransport: a non-EOF transport error at a frame boundary
	// (connection reset between requests).
	CloseTransport CloseReason = "transport"
)

// Server fronts an Engine over TCP.
type Server struct {
	e *Engine

	// Cluster, when non-nil, exposes ring membership through the
	// "owner" op and lets peers address this node as part of a
	// cooperative cache. nil on a single-node server, which answers
	// ownership queries with an error.
	Cluster ClusterInfo

	// Shards, when > 1, splits the accept path and the connection
	// registry into that many independent shards (lapcached -shards):
	// each shard runs its own accept goroutine on the shared listener
	// and pins every connection it accepts to its own mutex, conn set
	// and close-reason ledger, so the hit path of one connection never
	// contends on registry state touched by connections pinned
	// elsewhere. Set before Serve; 0 or 1 keeps the historical single
	// accept loop.
	Shards int
	// NoCoalesce disables opportunistic response coalescing on the
	// binary path: every response flushes with its own vectored write.
	// The hotpath experiment's A/B toggle; leave false in production.
	NoCoalesce bool

	// IdleTimeout, when positive, closes a connection that sends no
	// request for the duration (lapcached -idle-timeout). Zero keeps
	// connections open forever, the historical behaviour.
	IdleTimeout time.Duration
	// DrainGrace bounds how long Close waits for an in-flight
	// response to flush to a slow client before the write is abandoned
	// (default 2s).
	DrainGrace time.Duration
	// ConnWrap, when non-nil, interposes on every accepted connection
	// before any protocol traffic; the chaos harness uses it to inject
	// transport faults on the server side of the wire.
	ConnWrap func(net.Conn) net.Conn

	mu      sync.Mutex
	ln      net.Listener
	shards  []*connShard
	closed  bool
	closing chan struct{}
	wg      sync.WaitGroup
}

// connShard is one slice of the connection registry: the conn set and
// close-reason ledger for the connections pinned to it. With Shards=1
// there is exactly one; with more, each accept goroutine owns one, so
// connection registration, teardown and close accounting never cross
// shards.
type connShard struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	reasons map[CloseReason]uint64
}

func newConnShard() *connShard {
	return &connShard{
		conns:   make(map[net.Conn]struct{}),
		reasons: make(map[CloseReason]uint64),
	}
}

// NewServer returns a server around e.
func NewServer(e *Engine) *Server {
	return &Server{
		e:       e,
		closing: make(chan struct{}),
	}
}

// CloseCounts returns how many connections ended for each reason —
// the drain path's audit trail (tests and the chaos harness assert
// injected mid-frame disconnects land under CloseMidFrame, not
// CloseIdle). Counts aggregate across shards.
func (s *Server) CloseCounts() map[CloseReason]uint64 {
	s.mu.Lock()
	shards := s.shards
	s.mu.Unlock()
	out := make(map[CloseReason]uint64)
	for _, sh := range shards {
		sh.mu.Lock()
		for r, n := range sh.reasons {
			out[r] += n
		}
		sh.mu.Unlock()
	}
	return out
}

// noteClose records one connection's close reason in its shard.
func (s *Server) noteClose(sh *connShard, r CloseReason) {
	sh.mu.Lock()
	sh.reasons[r]++
	sh.mu.Unlock()
}

// acceptFailureBudget bounds consecutive accept-loop errors before
// Serve gives up; transient failures (fd exhaustion, injected
// listener faults) are retried with backoff instead of killing the
// server.
const acceptFailureBudget = 10

// Serve accepts connections on ln until Close. Transient accept
// errors are retried with capped backoff (up to acceptFailureBudget
// consecutive failures per accept loop); it returns nil after a
// Close-initiated shutdown and the first accept error once a loop's
// retry budget is spent. With Shards > 1, that many accept goroutines
// share the listener and pin each accepted connection to their own
// shard.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("lapcache: server already closed")
	}
	s.ln = ln
	if s.shards == nil {
		ns := s.Shards
		if ns < 1 {
			ns = 1
		}
		s.shards = make([]*connShard, ns)
		for i := range s.shards {
			s.shards[i] = newConnShard()
		}
	}
	shards := s.shards
	s.mu.Unlock()
	if len(shards) == 1 {
		return s.acceptLoop(ln, shards[0])
	}
	errc := make(chan error, len(shards))
	for _, sh := range shards {
		go func(sh *connShard) { errc <- s.acceptLoop(ln, sh) }(sh)
	}
	var first error
	for range shards {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acceptLoop is one shard's accept goroutine on the shared listener.
func (s *Server) acceptLoop(ln net.Listener, sh *connShard) error {
	failures := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			failures++
			if failures >= acceptFailureBudget {
				return err
			}
			// Back off before retrying; a torn-down listener fails every
			// retry instantly, so the budget still bounds the loop.
			backoff := 5 * time.Millisecond << uint(failures)
			if backoff > 250*time.Millisecond {
				backoff = 250 * time.Millisecond
			}
			select {
			case <-s.closing:
				return nil
			case <-time.After(backoff):
			}
			continue
		}
		failures = 0
		if s.ConnWrap != nil {
			conn = s.ConnWrap(conn)
		}
		// Register under the shard mutex so the check-and-register is
		// atomic with Close's deadline sweep of this shard: either the
		// closing flag is visible here, or the registration completes
		// before Close acquires sh.mu and the sweep covers the conn.
		sh.mu.Lock()
		if s.isClosing() {
			sh.mu.Unlock()
			conn.Close()
			return nil
		}
		sh.conns[conn] = struct{}{}
		s.wg.Add(1)
		sh.mu.Unlock()
		go s.handle(conn, sh)
	}
}

// Close stops accepting and shuts down draining: every in-flight
// request finishes dispatching and its response is flushed (bounded
// by DrainGrace for clients too slow to take the bytes) before the
// connection closes; idle connections are interrupted immediately.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.closing)
	if s.ln != nil {
		s.ln.Close()
	}
	grace := s.DrainGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	shards := s.shards
	s.mu.Unlock()
	now := time.Now()
	for _, sh := range shards {
		sh.mu.Lock()
		for c := range sh.conns {
			// Unblock read loops parked between requests; requests
			// already dispatched — inline or on a worker — still finish
			// and flush their responses (the drain), bounded by the write
			// deadline.
			c.SetReadDeadline(now)
			c.SetWriteDeadline(now.Add(grace))
		}
		sh.mu.Unlock()
	}
	s.wg.Wait()
}

func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// armRead sets the deadline for the next blocking read on conn:
// the idle timeout if configured, cleared otherwise — and an
// immediate deadline if the server is closing (re-checked after
// setting, so a racing Close cannot be overwritten into oblivion).
func (s *Server) armRead(conn net.Conn) {
	if s.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
	if s.isClosing() {
		conn.SetReadDeadline(time.Now())
	}
}

func (s *Server) handle(conn net.Conn, sh *connShard) {
	defer func() {
		conn.Close()
		sh.mu.Lock()
		delete(sh.conns, conn)
		sh.mu.Unlock()
		s.wg.Done()
	}()
	h := &connHandler{
		s:    s,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	s.noteClose(sh, h.serveJSON())
}

// readReason classifies a failed read. midFrame reports the failure
// happened inside a frame (a partial header, an unfinished payload, a
// half-sent JSON line): that is always a mid-frame close, never an
// idle timeout, whatever error the deadline machinery dressed it in.
func (s *Server) readReason(err error, midFrame bool) CloseReason {
	if midFrame {
		return CloseMidFrame
	}
	if s.isClosing() {
		return CloseShutdown
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return CloseIdle
	}
	if errors.Is(err, io.EOF) {
		return CloseEOF
	}
	return CloseTransport
}

// connHandler runs one connection's request loop, starting in JSON
// and optionally upgrading to binary frames. bw serves only the JSON
// protocol; after the binary upgrade, responses go through frameSinks
// — vectored writes straight to conn, no bufio staging copy.
type connHandler struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// out gathers the responses the read loop answers inline.
	out frameSink

	// wmu serializes response writes from the read loop and the
	// workers; broken (set under wmu) marks a failed write, after which
	// every later response is dropped — the stream is torn — and the
	// read loop stops.
	wmu    sync.Mutex
	broken atomic.Bool

	// Blocking requests run on workers (see serveBinary). Each job
	// record pairs with one worker goroutine, both created on demand up
	// to MaxConnInflight: work carries records to idle workers and free
	// returns finished ones to the read loop.
	work    chan *job
	free    chan *job
	njobs   int // records created; read loop only
	workers sync.WaitGroup
}

// frameSink gathers binary response frames for one vectored write.
// release holds the refcounted cache buffers whose bytes the batch
// references, released only after the syscall returns (or the batch
// is dropped on a dying connection).
type frameSink struct {
	batch   wire.FrameBatch
	release []*blockbuf.Buf
}

// queueError stages an error frame for hd's request.
func (fs *frameSink) queueError(hd wire.Header, msg string) {
	// AppendFrame only fails past MaxPayload; error messages are
	// always far below it.
	fs.batch.AppendFrame(wire.Header{Op: hd.Op, Seq: hd.Seq}, []byte(msg)) //nolint:errcheck
}

// queueRead stages a successful read's response. With want set, each
// block's payload goes out straight from its cache buffer, whose
// reference moves to release until the flush syscall returns;
// otherwise the references are dropped at once.
func (fs *frameSink) queueRead(hd wire.Header, hit, want bool, total int64, bufs []*blockbuf.Buf) {
	flags := wire.FlagOK
	if hit {
		flags |= wire.FlagHit
	}
	out := wire.Header{Op: hd.Op, Flags: flags, Seq: hd.Seq}
	if want {
		out.PayloadLen = uint32(total)
	}
	fs.batch.AppendHeader(out)
	for _, buf := range bufs {
		if want {
			fs.batch.AppendPayload(buf.Bytes())
			fs.release = append(fs.release, buf)
		} else {
			buf.Release()
		}
	}
}

// flush writes the queued responses with one vectored write and
// releases the cache buffers they referenced — after the syscall, per
// the net.Buffers ownership rule (DESIGN.md §13).
func (fs *frameSink) flush(w io.Writer) error {
	err := fs.batch.Flush(w)
	fs.releaseAll()
	return err
}

// drop abandons the queued responses, still releasing their buffers.
func (fs *frameSink) drop() {
	fs.batch.Reset()
	fs.releaseAll()
}

func (fs *frameSink) releaseAll() {
	for i, b := range fs.release {
		b.Release()
		fs.release[i] = nil
	}
	fs.release = fs.release[:0]
}

// send flushes fs to the connection under the write lock, or drops it
// if an earlier write already tore the stream. A failed write marks
// the connection broken and closes it, which also ends the read loop.
// It reports whether the connection is still writable.
func (h *connHandler) send(fs *frameSink) bool {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	if h.broken.Load() {
		fs.drop()
		return false
	}
	if fs.batch.Len() == 0 {
		return true
	}
	if err := fs.flush(h.conn); err != nil {
		h.broken.Store(true)
		h.conn.Close()
		return false
	}
	return true
}

// nextRequestBuffered reports whether a COMPLETE next request —
// header and payload — is already sitting in the read buffer. This is
// the coalescing latch: responses keep accumulating only while the
// next dispatch is guaranteed not to block on the socket, so a batch
// can never deadlock against a client that waits for responses before
// sending more. Purely data-driven (drain-the-ready-queue); never a
// timer, so an unpipelined request's response is never held back.
func (h *connHandler) nextRequestBuffered() bool {
	if h.br.Buffered() < wire.HeaderSize {
		return false
	}
	p, err := h.br.Peek(wire.HeaderSize)
	if err != nil {
		return false
	}
	hd, err := wire.ParseHeader(p)
	if err != nil {
		// The next frame is garbage; flush what we have first — the
		// loop will then kill the connection with CloseProtocol.
		return false
	}
	return h.br.Buffered() >= wire.HeaderSize+int(hd.PayloadLen)
}

// serveJSON is the line-delimited JSON loop. Lines are bounded by
// wire.MaxFrame (the documented frame cap — the old bufio.Scanner
// 64 KiB default truncated multi-block WantData reads).
func (h *connHandler) serveJSON() CloseReason {
	s := h.s
	enc := json.NewEncoder(h.bw)
	for {
		s.armRead(h.conn)
		line, err := wire.ReadLine(h.br, wire.MaxFrame)
		if err != nil {
			// A half-sent line (unexpected EOF) is a mid-frame death,
			// not an idle client.
			return s.readReason(err, errors.Is(err, io.ErrUnexpectedEOF))
		}
		if len(line) == 0 {
			continue
		}
		var req WireRequest
		var resp WireResponse
		upgrade := false
		if err := json.Unmarshal(line, &req); err != nil {
			resp.Err = fmt.Sprintf("bad request: %v", err)
		} else if req.Op == "upgrade" {
			if req.Proto == 0 || req.Proto == wire.ProtoBinary {
				resp.OK = true
				upgrade = true
			} else {
				resp.Err = fmt.Sprintf("unsupported protocol %d", req.Proto)
			}
		} else {
			resp = s.dispatch(&req)
		}
		if err := enc.Encode(&resp); err != nil {
			return CloseWrite
		}
		if err := h.bw.Flush(); err != nil {
			return CloseWrite
		}
		if upgrade {
			return h.serveBinary()
		}
		if s.isClosing() {
			return CloseShutdown
		}
	}
}

// maxCoalesce bounds how many responses accumulate in the batch
// before a flush is forced even with more requests buffered; it caps
// the memory pinned by gathered cache buffers and keeps one writev's
// iovec list small.
const maxCoalesce = 64

// MaxConnInflight bounds the blocking requests one binary connection
// may have in flight on the server. At the bound the read loop stops
// reading until one finishes: that is the connection's backpressure.
// lapclient.DefaultWindow is this value, so a client within its
// default window never meets the bound.
const MaxConnInflight = 32

// job is one blocking request handed from the read loop to a worker,
// with the reusable state to serve it: the write payload, the read's
// gathered buffers and the response frames.
type job struct {
	hd      wire.Header
	payload []byte
	bufs    []*blockbuf.Buf
	out     frameSink
}

// serveBinary is the framed loop after an upgrade. Requests that can
// be answered without blocking — cache hits, ping, owner, stats, local
// closes, errors — are answered inline on the read loop, in order:
// read responses stream block payloads directly from the cache's
// refcounted buffers onto the socket with vectored writes — no base64,
// no staging copy — and responses to pipelined requests coalesce into
// a single writev: the batch flushes exactly when no complete next
// request is already buffered (see nextRequestBuffered), so a lone
// request's latency never waits on a latch.
//
// Every request that can block — a read with an uncached block, any
// write, a close forwarded to the owner — goes to a worker, up to
// MaxConnInflight at once, and its response goes out whenever it is
// ready: responses on one connection may leave in any order, matched
// by Seq. One slow store miss or nested peer RPC therefore never holds
// up the requests queued behind it on the connection, and handlers
// waiting on each other's peer RPCs cannot form a cycle.
//
// The loop returns only after every handed-off request has flushed its
// response or dropped it with its buffers released.
func (h *connHandler) serveBinary() CloseReason {
	s := h.s
	var (
		scratch [wire.HeaderSize]byte
		payload []byte          // reused for write payloads
		bufs    []*blockbuf.Buf // reused for read responses
		reason  CloseReason
	)
	for !h.broken.Load() {
		s.armRead(h.conn)
		// Read the header bytes directly (not wire.ReadHeader) so a
		// death after SOME header bytes — a truncated frame — is
		// distinguishable from a death at the frame boundary.
		n, err := io.ReadFull(h.br, scratch[:])
		if err != nil {
			reason = s.readReason(err, n > 0)
			if reason == CloseIdle && len(h.free) < h.njobs {
				// A connection waiting on its own handed-off requests is
				// not idle.
				continue
			}
			break
		}
		hd, err := wire.ParseHeader(scratch[:])
		if err != nil {
			reason = CloseProtocol
			break
		}
		if payload, err = wire.ReadPayload(h.br, hd, payload); err != nil {
			// The header arrived but its payload did not: mid-frame by
			// definition, whatever the underlying error.
			reason = CloseMidFrame
			break
		}
		// Version-skew guard: a structurally sound frame whose op or
		// flags this build does not define gets an error frame, not a
		// dropped connection — the payload has already been consumed, so
		// the stream stays framed and the client can fall back.
		if !hd.Op.Known() || !hd.Flags.Known() {
			h.out.queueError(hd, fmt.Sprintf("unsupported op %s flags %#x", hd.Op, uint8(hd.Flags)))
		} else {
			h.dispatchBinary(hd, &payload, &bufs)
		}
		if s.NoCoalesce || h.out.batch.Len() >= maxCoalesce || !h.nextRequestBuffered() {
			if !h.send(&h.out) {
				reason = CloseWrite
				break
			}
		}
		if s.isClosing() {
			h.send(&h.out)
			reason = CloseShutdown
			break
		}
	}
	h.out.drop()
	if h.work != nil {
		// The workers drain every handed-off request before they exit.
		close(h.work)
	}
	h.workers.Wait()
	if h.broken.Load() {
		return CloseWrite
	}
	return reason
}

// takeJob returns a job record for a request about to be handed off:
// a free one, or a new one with its own worker while fewer than
// MaxConnInflight exist. At the bound the read loop first flushes the
// responses it already holds, then waits for a request to finish.
func (h *connHandler) takeJob() *job {
	select {
	case j := <-h.free:
		return j
	default:
	}
	if h.njobs < MaxConnInflight {
		if h.work == nil {
			h.work = make(chan *job, MaxConnInflight)
			h.free = make(chan *job, MaxConnInflight)
		}
		h.njobs++
		h.workers.Add(1)
		go h.worker()
		return new(job)
	}
	h.send(&h.out)
	return <-h.free
}

// handoff passes hd's request, filled into j, to a worker.
func (h *connHandler) handoff(j *job, hd wire.Header) {
	j.hd = hd
	h.work <- j
}

// worker serves handed-off requests until the connection ends. Its
// response goes out on its own, under the write lock, as soon as it
// is ready.
func (h *connHandler) worker() {
	defer h.workers.Done()
	for j := range h.work {
		if h.broken.Load() {
			// Nobody can read the response: skip the work. The client
			// never saw an acknowledgement, so nothing is lost.
			for _, b := range j.bufs {
				b.Release()
			}
			j.bufs = j.bufs[:0]
		} else {
			h.serveBlocking(j)
			h.send(&j.out)
		}
		h.free <- j
	}
}

// readShape reports whether a read wants its data back and how many
// bytes that is.
func (s *Server) readShape(hd wire.Header) (want bool, total int64) {
	return hd.Flags&wire.FlagWantData != 0, int64(hd.Size) * int64(s.e.BlockSize())
}

// dispatchBinary handles one known binary request on the read loop:
// it answers into h.out whatever it can without blocking and hands
// the rest to a worker. bufs is the loop's reusable gather slice for
// read responses; buffers queued for the wire move to h.out.release
// and are released after the flush syscall. A handed-off write takes
// *payload with it and leaves the loop a spare buffer.
func (h *connHandler) dispatchBinary(hd wire.Header, payload *[]byte, bufs *[]*blockbuf.Buf) {
	s := h.s
	peer := hd.Flags&wire.FlagPeer != 0
	switch hd.Op {
	case wire.OpPing:
		pp := pingPayload{
			Alg: s.e.AlgName(), BlockSize: s.e.BlockSize(), ProtoMax: wire.ProtoBinary,
		}
		if s.Cluster != nil {
			pp.Self = s.Cluster.Self()
			pp.Members = s.Cluster.MemberAddrs()
		}
		doc, err := json.Marshal(pp)
		if err != nil {
			h.out.queueError(hd, "encode ping: "+err.Error())
			return
		}
		h.out.batch.AppendFrame(wire.Header{Op: hd.Op, Flags: wire.FlagOK, Seq: hd.Seq}, doc) //nolint:errcheck

	case wire.OpOwner:
		if s.Cluster == nil {
			h.out.queueError(hd, "server is not clustered")
			return
		}
		addr, self := s.Cluster.OwnerOf(blockdev.FileID(hd.File))
		doc, err := json.Marshal(ownerPayload{Owner: addr, Self: self})
		if err != nil {
			h.out.queueError(hd, "encode owner: "+err.Error())
			return
		}
		h.out.batch.AppendFrame(wire.Header{Op: hd.Op, Flags: wire.FlagOK, Seq: hd.Seq}, doc) //nolint:errcheck

	case wire.OpRead:
		want, total := s.readShape(hd)
		if want && (total <= 0 || total > wire.MaxDataBytes) {
			h.out.queueError(hd, fmt.Sprintf("read of %d blocks exceeds the %d-byte payload cap", hd.Size, wire.MaxDataBytes))
			return
		}
		b, done, err := s.e.ReadCached((*bufs)[:0], blockdev.FileID(hd.File), blockdev.BlockNo(hd.Offset), hd.Size, peer)
		*bufs = b[:0]
		switch {
		case err != nil:
			h.out.queueError(hd, err.Error())
		case done:
			h.out.queueRead(hd, true, want, total, b)
		default:
			// A block is missing: the worker takes the resident prefix
			// and fetches the rest.
			j := h.takeJob()
			j.bufs = append(j.bufs[:0], b...)
			h.handoff(j, hd)
		}

	case wire.OpWrite:
		j := h.takeJob()
		j.payload, *payload = *payload, j.payload
		h.handoff(j, hd)

	case wire.OpClose:
		f := blockdev.FileID(hd.File)
		switch {
		case peer:
			s.e.PeerCloseFile(f)
		case s.e.Owns(f):
			s.e.CloseFile(f)
		default:
			h.handoff(h.takeJob(), hd)
			return
		}
		h.out.batch.AppendFrame(wire.Header{Op: hd.Op, Flags: wire.FlagOK, Seq: hd.Seq}, nil) //nolint:errcheck

	case wire.OpStats:
		snap := s.e.Snapshot()
		doc, err := json.Marshal(&snap)
		if err != nil {
			h.out.queueError(hd, "encode stats: "+err.Error())
			return
		}
		h.out.batch.AppendFrame(wire.Header{Op: hd.Op, Flags: wire.FlagOK, Seq: hd.Seq}, doc) //nolint:errcheck

	default:
		// Unreachable while Known() covers every case above; kept so
		// a future op added to wire but not here fails cleanly.
		h.out.queueError(hd, fmt.Sprintf("unsupported op %s", hd.Op))
	}
}

// serveBlocking runs one handed-off request on a worker, staging its
// response into j.out.
func (h *connHandler) serveBlocking(j *job) {
	s := h.s
	hd := j.hd
	f, off := blockdev.FileID(hd.File), blockdev.BlockNo(hd.Offset)
	peer := hd.Flags&wire.FlagPeer != 0
	switch hd.Op {
	case wire.OpRead:
		want, total := s.readShape(hd)
		b, hit, err := s.e.ReadRest(j.bufs, 0, f, off, hd.Size, peer)
		j.bufs = b[:0]
		if err != nil {
			j.out.queueError(hd, err.Error())
			return
		}
		j.out.queueRead(hd, hit, want, total, b)

	case wire.OpWrite:
		var data []byte
		if hd.PayloadLen > 0 {
			data = j.payload
		}
		var werr error
		var replicated bool
		switch {
		case hd.Flags&wire.FlagReplica != 0 && !peer:
			werr = fmt.Errorf("FlagReplica requires FlagPeer")
		case hd.Flags&wire.FlagReplica != 0:
			// Replica install: store + cache only, no driver feed, no
			// onward replication (the loop-free contract of R=2 — a
			// replica push must never fan out further).
			werr = s.e.ReplicaWrite(f, off, hd.Size, data)
		case peer:
			replicated, werr = s.e.PeerWriteDurable(f, off, hd.Size, data)
		default:
			replicated, werr = s.e.WriteDurable(f, off, hd.Size, data)
		}
		if werr != nil {
			j.out.queueError(hd, werr.Error())
			return
		}
		flags := wire.FlagOK
		if replicated {
			flags |= wire.FlagReplicated
		}
		j.out.batch.AppendFrame(wire.Header{Op: hd.Op, Flags: flags, Seq: hd.Seq}, nil) //nolint:errcheck

	case wire.OpClose:
		s.e.CloseFile(f)
		j.out.batch.AppendFrame(wire.Header{Op: hd.Op, Flags: wire.FlagOK, Seq: hd.Seq}, nil) //nolint:errcheck
	}
}

func (s *Server) dispatch(req *WireRequest) WireResponse {
	switch req.Op {
	case "ping":
		return WireResponse{OK: true, Alg: s.e.AlgName(), BlockSize: s.e.BlockSize(),
			ProtoMax: wire.ProtoBinary}
	case "read":
		if req.WantData {
			if total := int64(req.Size) * int64(s.e.BlockSize()); total > wire.MaxDataBytes {
				return WireResponse{Err: fmt.Sprintf(
					"read of %d blocks exceeds the %d-byte payload cap", req.Size, wire.MaxDataBytes)}
			}
		}
		data, hit, err := s.e.Read(blockdev.FileID(req.File),
			blockdev.BlockNo(req.Offset), req.Size)
		if err != nil {
			return WireResponse{Err: err.Error()}
		}
		resp := WireResponse{OK: true, Hit: hit}
		if req.WantData {
			resp.Data = data
		}
		return resp
	case "write":
		replicated, err := s.e.WriteDurable(blockdev.FileID(req.File),
			blockdev.BlockNo(req.Offset), req.Size, req.Data)
		if err != nil {
			return WireResponse{Err: err.Error()}
		}
		return WireResponse{OK: true, Replicated: replicated}
	case "close":
		s.e.CloseFile(blockdev.FileID(req.File))
		return WireResponse{OK: true}
	case "stats":
		snap := s.e.Snapshot()
		return WireResponse{OK: true, Stats: &snap}
	case "owner":
		if s.Cluster == nil {
			return WireResponse{Err: "server is not clustered"}
		}
		addr, self := s.Cluster.OwnerOf(blockdev.FileID(req.File))
		return WireResponse{OK: true, Owner: addr, OwnerSelf: self}
	default:
		return WireResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}
