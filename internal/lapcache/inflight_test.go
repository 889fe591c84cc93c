package lapcache

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/wire"
)

// readFrame reads one response frame whole.
func readFrame(t *testing.T, br *bufio.Reader) (wire.Header, []byte) {
	t.Helper()
	var scratch [wire.HeaderSize]byte
	h, err := wire.ReadHeader(br, scratch[:])
	if err != nil {
		t.Fatalf("read header: %v", err)
	}
	payload, err := wire.ReadPayload(br, h, nil)
	if err != nil {
		t.Fatalf("seq %d: read payload: %v", h.Seq, err)
	}
	return h, payload
}

// patterned reports whether payload is exactly the fill pattern of
// nblocks blocks of f from off.
func patterned(payload []byte, blockSize int, f blockdev.FileID, off blockdev.BlockNo, nblocks int) bool {
	if len(payload) != nblocks*blockSize {
		return false
	}
	want := make([]byte, blockSize)
	for i := 0; i < nblocks; i++ {
		FillPattern(blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(i)}, want)
		if !bytes.Equal(payload[i*blockSize:(i+1)*blockSize], want) {
			return false
		}
	}
	return true
}

// assertNoStrayBytes fails if anything beyond the expected responses
// arrives: nothing buffered, and a short read times out.
func assertNoStrayBytes(t *testing.T, conn net.Conn, br *bufio.Reader) {
	t.Helper()
	if n := br.Buffered(); n != 0 {
		t.Fatalf("%d stray bytes after the last response", n)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	defer conn.SetReadDeadline(time.Time{})
	var b [1]byte
	_, err := br.Read(b[:])
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stray data after the last response: read returned %v", err)
	}
}

// sendBurst writes every frame in one call, so the server's reader
// sees the whole burst buffered.
func sendBurst(t *testing.T, conn net.Conn, frames []wire.Header, payloads map[uint32][]byte) {
	t.Helper()
	var burst bytes.Buffer
	for _, h := range frames {
		if err := wire.WriteFrame(&burst, h, payloads[h.Seq]); err != nil {
			t.Fatalf("build burst: %v", err)
		}
	}
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatalf("send burst: %v", err)
	}
}

// TestHotpathColdBurst is TestHotpathCoalescedPipeline's burst against
// a cold cache: every read misses, runs on a worker, and may be
// answered in any order. Each response is matched by Seq: every
// request is answered exactly once, bit-exact, with no stray bytes,
// with the coalescing latch on and off.
func TestHotpathColdBurst(t *testing.T) {
	const (
		blockSize = 512
		burst     = 32
	)
	for _, tc := range []struct {
		name       string
		noCoalesce bool
	}{{"coalesce", false}, {"nocoalesce", true}} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startTestServer(t, Config{
				Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 4 * burst,
				Store: NewMemStore(blockSize, 200*time.Microsecond),
			}, func(s *Server) { s.NoCoalesce = tc.noCoalesce })
			conn, br := upgradeBinary(t, addr)

			var frames []wire.Header
			for i := 0; i < burst; i++ {
				frames = append(frames, wire.Header{
					Op: wire.OpRead, Flags: wire.FlagWantData,
					Seq: uint32(i + 1), File: 9, Offset: int32(i), Size: 1,
				})
			}
			sendBurst(t, conn, frames, nil)
			seen := make(map[uint32]bool)
			for range frames {
				h, payload := readFrame(t, br)
				if h.Seq < 1 || h.Seq > burst || seen[h.Seq] || h.Flags&wire.FlagOK == 0 {
					t.Fatalf("unexpected response %+v (seen before: %v)", h, seen[h.Seq])
				}
				seen[h.Seq] = true
				if !patterned(payload, blockSize, 9, blockdev.BlockNo(h.Seq-1), 1) {
					t.Fatalf("seq %d: payload corrupted", h.Seq)
				}
			}
			assertNoStrayBytes(t, conn, br)
		})
	}
}

// TestHotpathMissDoesNotBlockHits pins the end of head-of-line
// blocking: a read that misses is parked in the store, and the cache
// hits pipelined behind it on the same connection are all answered —
// in order, bit-exact — before the miss is released.
func TestHotpathMissDoesNotBlockHits(t *testing.T) {
	const (
		blockSize = 512
		hits      = 16
	)
	store := newGateStore(NewMemStore(blockSize, 0), 0)
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64, Store: store,
	}, nil)
	defer store.Release()
	srv.e.Preload(9, 0, hits, false)
	conn, br := upgradeBinary(t, addr)

	frames := []wire.Header{{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: 1, File: 7, Size: 1}}
	for i := 0; i < hits; i++ {
		frames = append(frames, wire.Header{
			Op: wire.OpRead, Flags: wire.FlagWantData,
			Seq: uint32(i + 2), File: 9, Offset: int32(i), Size: 1,
		})
	}
	sendBurst(t, conn, frames, nil)
	store.await(t, 1)
	for i := 0; i < hits; i++ {
		readBlockFrame(t, br, blockSize, uint32(i+2), 9, blockdev.BlockNo(i), 1)
	}
	store.Release()
	readBlockFrame(t, br, blockSize, 1, 7, 0, 1)
	assertNoStrayBytes(t, conn, br)
}

// TestHotpathEverySeqOnce drives one connection with a mixed burst —
// hits, cold misses, duplicate misses that join one fetch, spans
// whose prefix is resident, writes with and without payloads, local
// closes, pings and an unknown op — and checks every Seq is answered
// exactly once with its own bit-exact payload, and nothing else
// arrives.
func TestHotpathEverySeqOnce(t *testing.T) {
	const blockSize = 512
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecLnAgrOBA, BlockSize: blockSize, CacheBlocks: 256,
		Store: NewMemStore(blockSize, 100*time.Microsecond),
	}, nil)
	srv.e.Preload(9, 0, 8, false)
	conn, br := upgradeBinary(t, addr)

	type want struct {
		f      blockdev.FileID
		off    blockdev.BlockNo
		blocks int
	}
	var frames []wire.Header
	payloads := make(map[uint32][]byte)
	reads := make(map[uint32]want)
	add := func(h wire.Header) uint32 {
		h.Seq = uint32(len(frames) + 1)
		frames = append(frames, h)
		return h.Seq
	}
	written := make([]byte, 2*blockSize)
	for i := range written {
		written[i] = byte(i*7 + 3)
	}
	for round := 0; round < 4; round++ {
		for _, r := range []want{
			{9, blockdev.BlockNo(round), 1},      // hit
			{9, 6, 4},                            // resident prefix, cold tail
			{11, blockdev.BlockNo(round * 3), 2}, // cold
			{11, 0, 1},                           // duplicate miss, joins or hits
		} {
			seq := add(wire.Header{Op: wire.OpRead, Flags: wire.FlagWantData,
				File: int32(r.f), Offset: int32(r.off), Size: int32(r.blocks)})
			reads[seq] = r
		}
		add(wire.Header{Op: wire.OpWrite, File: 12, Offset: int32(round), Size: 1})
		seq := add(wire.Header{Op: wire.OpWrite, File: 13, Offset: int32(2 * round), Size: 2})
		payloads[seq] = written
		add(wire.Header{Op: wire.OpClose, File: 9})
		add(wire.Header{Op: wire.OpPing})
	}
	unknown := add(wire.Header{Op: wire.OpPing})
	frames[unknown-1].Op = 0xEE

	sendBurst(t, conn, frames, payloads)
	seen := make(map[uint32]bool)
	for range frames {
		h, payload := readFrame(t, br)
		if h.Seq < 1 || int(h.Seq) > len(frames) || seen[h.Seq] {
			t.Fatalf("response %+v: unknown or repeated seq", h)
		}
		seen[h.Seq] = true
		req := frames[h.Seq-1]
		if h.Seq == unknown {
			if h.Flags&wire.FlagOK != 0 {
				t.Fatalf("unknown op answered OK: %+v", h)
			}
			continue
		}
		if h.Flags&wire.FlagOK == 0 || h.Op != req.Op {
			t.Fatalf("seq %d (%s): response %+v %q", h.Seq, req.Op, h, payload)
		}
		if r, ok := reads[h.Seq]; ok && !patterned(payload, blockSize, r.f, r.off, r.blocks) {
			t.Fatalf("seq %d: read %d:[%d,+%d] payload corrupted", h.Seq, r.f, r.off, r.blocks)
		}
		if (req.Op == wire.OpWrite || req.Op == wire.OpClose) && len(payload) != 0 {
			t.Fatalf("seq %d: %s response carries %d payload bytes", h.Seq, req.Op, len(payload))
		}
	}
	assertNoStrayBytes(t, conn, br)

	// Every acknowledged write is visible to a read sent after its ack.
	got, _, err := srv.e.Read(13, 0, 8)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(got[2*i*blockSize:(2*i+2)*blockSize], written) {
			t.Fatalf("write %d of file 13 not visible after its ack", i)
		}
	}
}

// TestHotpathInflightBound sends three times MaxConnInflight cold
// reads in one burst against a store that holds every read: the
// connection has exactly MaxConnInflight of them in the store and
// reads no further until one finishes; once released, every request
// is answered.
func TestHotpathInflightBound(t *testing.T) {
	const (
		blockSize = 512
		total     = 3 * MaxConnInflight
	)
	store := newGateStore(NewMemStore(blockSize, 0), 0)
	_, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 4 * total, Store: store,
	}, nil)
	defer store.Release()
	conn, br := upgradeBinary(t, addr)

	var frames []wire.Header
	for i := 0; i < total; i++ {
		frames = append(frames, wire.Header{
			Op: wire.OpRead, Flags: wire.FlagWantData,
			Seq: uint32(i + 1), File: 5, Offset: int32(i), Size: 1,
		})
	}
	sendBurst(t, conn, frames, nil)
	store.await(t, MaxConnInflight)
	time.Sleep(50 * time.Millisecond)
	if waiting, peak := store.counts(); waiting != MaxConnInflight || peak != MaxConnInflight {
		t.Fatalf("%d store reads in flight (peak %d), want exactly the bound %d", waiting, peak, MaxConnInflight)
	}
	store.Release()
	seen := make(map[uint32]bool)
	for range frames {
		h, payload := readFrame(t, br)
		if seen[h.Seq] || !patterned(payload, blockSize, 5, blockdev.BlockNo(h.Seq-1), 1) {
			t.Fatalf("seq %d: repeated or corrupted response", h.Seq)
		}
		seen[h.Seq] = true
	}
	assertNoStrayBytes(t, conn, br)
	if _, peak := store.counts(); peak > MaxConnInflight {
		t.Fatalf("store saw %d reads at once from one connection, bound %d", peak, MaxConnInflight)
	}
}

// TestHotpathCloseDrainsInflight calls Server.Close while requests
// sit blocked in the store. Close must wait for them: with the client
// still reading, every response is flushed and the connection is
// booked as a shutdown; with the client gone, the responses are
// dropped. Either way each connection is booked exactly once and,
// after Shutdown and DrainCache, no buffer is still live.
func TestHotpathCloseDrainsInflight(t *testing.T) {
	const (
		blockSize = 512
		blocked   = 8
	)
	for _, tc := range []struct {
		name       string
		clientGone bool
	}{{"flushed", false}, {"dropped", true}} {
		t.Run(tc.name, func(t *testing.T) {
			store := newGateStore(NewMemStore(blockSize, 0), 0)
			e, err := New(Config{
				Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 64,
				Store: store, PoisonBufs: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(e)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer e.Shutdown()
			defer srv.Close()
			defer store.Release()
			e.Preload(9, 0, 4, false)
			conn, br := upgradeBinary(t, ln.Addr().String())

			var frames []wire.Header
			for i := 0; i < blocked; i++ {
				frames = append(frames, wire.Header{
					Op: wire.OpRead, Flags: wire.FlagWantData,
					Seq: uint32(i + 1), File: 3, Offset: int32(i), Size: 1,
				})
			}
			frames = append(frames, wire.Header{
				Op: wire.OpRead, Flags: wire.FlagWantData, Seq: blocked + 1, File: 9, Size: 4,
			})
			sendBurst(t, conn, frames, nil)
			store.await(t, blocked)
			readBlockFrame(t, br, blockSize, blocked+1, 9, 0, 4)
			if tc.clientGone {
				conn.Close()
			}

			closed := make(chan struct{})
			go func() { srv.Close(); close(closed) }()
			select {
			case <-closed:
				t.Fatal("Close returned while requests were still blocked in the store")
			case <-time.After(50 * time.Millisecond):
			}
			store.Release()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return after the blocked requests finished")
			}

			counts := srv.CloseCounts()
			var booked uint64
			for _, n := range counts {
				booked += n
			}
			if booked != 1 {
				t.Fatalf("close ledger %v: want exactly one connection booked", counts)
			}
			if !tc.clientGone {
				if counts[CloseShutdown] != 1 {
					t.Fatalf("close ledger %v: want the connection booked as shutdown", counts)
				}
				seen := make(map[uint32]bool)
				for i := 0; i < blocked; i++ {
					h, payload := readFrame(t, br)
					if seen[h.Seq] || !patterned(payload, blockSize, 3, blockdev.BlockNo(h.Seq-1), 1) {
						t.Fatalf("seq %d: repeated or corrupted response", h.Seq)
					}
					seen[h.Seq] = true
				}
			} else if counts[CloseShutdown]+counts[CloseWrite] != 1 {
				t.Fatalf("close ledger %v: want shutdown or write_error", counts)
			}
			e.Shutdown()
			e.DrainCache()
			if live := e.BufLive(); live != 0 {
				t.Fatalf("%d buffers still live after Shutdown and DrainCache", live)
			}
		})
	}
}

// TestHotpathBusyIsNotIdle: a connection whose only request is still
// blocked in the store is waiting on the server, not idle — the idle
// reaper leaves it alone until the response is out, then reaps it.
func TestHotpathBusyIsNotIdle(t *testing.T) {
	const blockSize = 512
	store := newGateStore(NewMemStore(blockSize, 0), 0)
	srv, addr := startTestServer(t, Config{
		Alg: core.SpecNP, BlockSize: blockSize, CacheBlocks: 16, Store: store,
	}, func(s *Server) { s.IdleTimeout = 40 * time.Millisecond })
	defer store.Release()
	conn, br := upgradeBinary(t, addr)

	sendBurst(t, conn, []wire.Header{{Op: wire.OpRead, Flags: wire.FlagWantData, Seq: 1, File: 2, Size: 1}}, nil)
	store.await(t, 1)
	time.Sleep(200 * time.Millisecond)
	if n := srv.CloseCounts()[CloseIdle]; n != 0 {
		t.Fatalf("connection reaped as idle while its request was in the store: %v", srv.CloseCounts())
	}
	store.Release()
	readBlockFrame(t, br, blockSize, 1, 2, 0, 1)
	waitClose(t, srv, CloseIdle, 1)
}
