package lapcache

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// gateStore wraps a BackingStore and blocks reads of blocks at or
// beyond gateFrom until released, signalling each blocked entry. It
// lets tests freeze prefetch traffic at a known point. It also counts
// the reads waiting at the gate and their high-water.
type gateStore struct {
	inner    BackingStore
	gateFrom blockdev.BlockNo
	started  chan blockdev.BlockID

	mu            sync.Mutex
	released      bool
	release       chan struct{}
	waiting, peak int
}

func newGateStore(inner BackingStore, gateFrom blockdev.BlockNo) *gateStore {
	return &gateStore{
		inner:    inner,
		gateFrom: gateFrom,
		started:  make(chan blockdev.BlockID, 1024),
		release:  make(chan struct{}),
	}
}

func (g *gateStore) Release() {
	g.mu.Lock()
	if !g.released {
		g.released = true
		close(g.release)
	}
	g.mu.Unlock()
}

func (g *gateStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	if b.Block >= g.gateFrom {
		g.mu.Lock()
		g.waiting++
		g.peak = max(g.peak, g.waiting)
		g.mu.Unlock()
		select {
		case g.started <- b:
		default:
		}
		<-g.release
		g.mu.Lock()
		g.waiting--
		g.mu.Unlock()
	}
	return g.inner.ReadBlock(b, buf)
}

// await blocks until n more gated reads have started.
func (g *gateStore) await(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d store reads reached the gate", i, n)
		}
	}
}

// counts returns the reads waiting at the gate and their high-water.
func (g *gateStore) counts() (waiting, peak int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting, g.peak
}

func (g *gateStore) WriteBlock(b blockdev.BlockID, data []byte) error {
	return g.inner.WriteBlock(b, data)
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 512
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore(cfg.BlockSize, 0)
	}
	if cfg.CacheBlocks == 0 {
		cfg.CacheBlocks = 128
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Shutdown)
	return e
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDemandMissThenHit(t *testing.T) {
	e := newTestEngine(t, Config{Alg: core.SpecNP})
	data, hit, err := e.Read(3, 7, 1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if hit {
		t.Error("first read reported a hit")
	}
	want := make([]byte, e.BlockSize())
	FillPattern(blockdev.BlockID{File: 3, Block: 7}, want)
	if !bytes.Equal(data, want) {
		t.Error("read data does not match the fill pattern")
	}
	if _, hit, _ = e.Read(3, 7, 1); !hit {
		t.Error("second read missed")
	}
	snap := e.Snapshot()
	if snap.DemandHits != 1 || snap.DemandMisses != 1 || snap.StoreReads != 1 {
		t.Errorf("counters: %+v", snap)
	}
}

// TestReadCachedHalves pins the split the server's read loop relies
// on. ReadCached on a span with a missing block books nothing past the
// resident prefix and does not feed the driver; a miss on the first
// block leaves no trace at all. ReadCached followed by ReadRest leaves
// exactly the counters and driver state ReadInto leaves.
func TestReadCachedHalves(t *testing.T) {
	counters := func(e *Engine) [5]uint64 {
		s := e.Snapshot()
		return [5]uint64{s.DemandHits, s.DemandMisses, s.StoreReads, s.PrefetchIssued, s.PrefetchTimely}
	}
	engines := [2]*Engine{}
	for i := range engines {
		// Prefetches (of block 2 on) park in the store, so the counters
		// are settled whenever a read returns.
		gate := newGateStore(NewMemStore(512, 0), 2)
		engines[i] = newTestEngine(t, Config{Alg: core.SpecLnAgrOBA, Store: gate})
		t.Cleanup(gate.Release)
		engines[i].Preload(4, 0, 1, true)
	}
	split, whole := engines[0], engines[1]

	bufs, done, err := split.ReadCached(nil, 4, 1, 1, false)
	if err != nil || done || len(bufs) != 0 {
		t.Fatalf("cold ReadCached: done=%v bufs=%d err=%v, want would-block", done, len(bufs), err)
	}
	if got := counters(split); got != ([5]uint64{}) {
		t.Fatalf("a cold ReadCached booked %v, want nothing", got)
	}

	bufs, done, err = split.ReadCached(nil, 4, 0, 2, false)
	if err != nil || done || len(bufs) != 1 {
		t.Fatalf("ReadCached: done=%v bufs=%d err=%v, want the one-block resident prefix", done, len(bufs), err)
	}
	if got := counters(split); got != [5]uint64{1, 0, 0, 0, 1} {
		t.Fatalf("after the resident prefix: counters %v, want one timely hit and no driver feed", got)
	}
	bufs, hit, err := split.ReadRest(bufs, 0, 4, 0, 2, false)
	if err != nil || hit || len(bufs) != 2 {
		t.Fatalf("ReadRest: hit=%v bufs=%d err=%v", hit, len(bufs), err)
	}
	for _, b := range bufs {
		b.Release()
	}

	wbufs, whit, err := whole.ReadInto(nil, 4, 0, 2)
	if err != nil || whit {
		t.Fatalf("ReadInto: hit=%v err=%v", whit, err)
	}
	for _, b := range wbufs {
		b.Release()
	}
	if a, b := counters(split), counters(whole); a != b {
		t.Fatalf("ReadCached+ReadRest counters %v, ReadInto counters %v", a, b)
	}
	if a, b := split.Ledger().FileHighWater(4), whole.Ledger().FileHighWater(4); a != b || a != 1 {
		t.Fatalf("driver fed differently: high-water %d split, %d whole", a, b)
	}
}

func TestWriteReadBack(t *testing.T) {
	e := newTestEngine(t, Config{Alg: core.SpecNP})
	payload := bytes.Repeat([]byte{0xAB}, 2*e.BlockSize())
	if err := e.Write(1, 4, 2, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, hit, err := e.Read(1, 4, 2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !hit {
		t.Error("read of just-written blocks missed")
	}
	if !bytes.Equal(data, payload) {
		t.Error("read back wrong data")
	}
	// Bad payload size must be rejected.
	if err := e.Write(1, 0, 1, []byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
}

// TestPrefetchTimely runs a strictly sequential scan with pauses long
// enough for the linear OBA chain to stay ahead: after warmup every
// read is a hit on a prefetched block.
func TestPrefetchTimely(t *testing.T) {
	e := newTestEngine(t, Config{
		Alg:        core.SpecLnAgrOBA,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 64},
	})
	for b := blockdev.BlockNo(0); b < 32; b++ {
		if _, _, err := e.Read(1, b, 1); err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		// Let the (zero-latency) prefetch land before the next read.
		waitFor(t, "prefetch quiescence", func() bool {
			s := e.Snapshot()
			return s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued
		})
	}
	snap := e.Snapshot()
	if snap.PrefetchTimely == 0 {
		t.Errorf("no timely prefetches in a sequential scan: %s", snap)
	}
	if snap.DemandHits == 0 {
		t.Errorf("no demand hits: %s", snap)
	}
	if snap.MaxFileOutstandingHW > 1 {
		t.Errorf("linear mode exceeded 1 outstanding: %s", snap)
	}
	if snap.LinearViolations != 0 {
		t.Errorf("%d linear violations", snap.LinearViolations)
	}
}

// TestPrefetchLate freezes the prefetch of block 1 inside the store,
// then issues the demand read for it: the demand must join the
// in-flight fetch and be counted late, not timely.
func TestPrefetchLate(t *testing.T) {
	gs := newGateStore(NewMemStore(512, 0), 1)
	e := newTestEngine(t, Config{
		Alg:        core.SpecLnAgrOBA,
		BlockSize:  512,
		Store:      gs,
		Workers:    1,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 16},
	})
	if _, _, err := e.Read(1, 0, 1); err != nil {
		t.Fatalf("read: %v", err)
	}
	<-gs.started // the prefetch of block 1 is now stuck in the store

	done := make(chan error, 1)
	go func() {
		_, _, err := e.Read(1, 1, 1)
		done <- err
	}()
	waitFor(t, "late classification", func() bool { return e.Snapshot().PrefetchLate == 1 })
	gs.Release()
	if err := <-done; err != nil {
		t.Fatalf("late read: %v", err)
	}
	snap := e.Snapshot()
	if snap.PrefetchLate != 1 {
		t.Errorf("late = %d, want 1: %s", snap.PrefetchLate, snap)
	}
	if snap.PrefetchTimely != 0 {
		t.Errorf("late block also counted timely: %s", snap)
	}
	// The waiting demand joined the in-flight prefetch: block 1 went
	// through the store exactly once (singleflight), even though both
	// a prefetch and a demand wanted it.
	waitFor(t, "prefetch quiescence", func() bool {
		s := e.Snapshot()
		return s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued
	})
	block1Reads := 1 // the signal consumed by <-gs.started above
	for {
		select {
		case b := <-gs.started:
			if b.Block == 1 {
				block1Reads++
			}
			continue
		default:
		}
		break
	}
	if block1Reads != 1 {
		t.Errorf("block 1 read from store %d times, want 1 (singleflight)", block1Reads)
	}
}

// TestBackpressureDrops saturates a 1-slot queue with a frozen worker:
// the unthrottled aggressive driver must get refusals, counted as
// drops, instead of blocking or growing the queue without bound.
func TestBackpressureDrops(t *testing.T) {
	agr, err := core.LookupAlg("Agr_OBA")
	if err != nil {
		t.Fatal(err)
	}
	gs := newGateStore(NewMemStore(512, 0), 1)
	e := newTestEngine(t, Config{
		Alg:        agr,
		BlockSize:  512,
		Store:      gs,
		Workers:    1,
		QueueLen:   1,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 256},
	})
	defer gs.Release() // let Shutdown's worker drain finish
	if _, _, err := e.Read(1, 0, 1); err != nil {
		t.Fatalf("read: %v", err)
	}
	waitFor(t, "a dropped prefetch", func() bool { return e.Snapshot().PrefetchDropped >= 1 })
}

// TestSingleflightDemand sends two concurrent demand reads of one
// uncached block through a frozen store: exactly one store read must
// happen.
func TestSingleflightDemand(t *testing.T) {
	gs := newGateStore(NewMemStore(512, 0), 0) // gate everything
	e := newTestEngine(t, Config{Alg: core.SpecNP, BlockSize: 512, Store: gs})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := e.Read(5, 9, 1); err != nil {
				t.Errorf("read: %v", err)
			}
		}()
	}
	<-gs.started // one reader is inside the store
	// Give the second goroutine a moment to join the in-flight op.
	time.Sleep(10 * time.Millisecond)
	gs.Release()
	wg.Wait()
	if snap := e.Snapshot(); snap.StoreReads != 1 {
		t.Errorf("store reads = %d, want 1 (singleflight): %s", snap.StoreReads, snap)
	}
}

func TestCloseFileStopsChain(t *testing.T) {
	e := newTestEngine(t, Config{
		Alg:        core.SpecLnAgrOBA,
		FileBlocks: map[blockdev.FileID]blockdev.BlockNo{1: 64},
	})
	if _, _, err := e.Read(1, 0, 1); err != nil {
		t.Fatalf("read: %v", err)
	}
	e.CloseFile(1)
	waitFor(t, "quiescence after close", func() bool {
		s := e.Snapshot()
		return s.PrefetchCompleted+s.PrefetchCancelled+s.PrefetchDupSkipped >= s.PrefetchIssued
	})
	issued := e.Snapshot().PrefetchIssued
	time.Sleep(20 * time.Millisecond)
	if now := e.Snapshot().PrefetchIssued; now != issued {
		t.Errorf("prefetches kept flowing after close: %d -> %d", issued, now)
	}
}

func TestLedgerStrictPanics(t *testing.T) {
	l := NewLedger(1, true)
	l.OutstandingChanged(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("second outstanding prefetch did not panic in strict mode")
		}
	}()
	l.OutstandingChanged(1, 1)
}

func TestLedgerCountsViolations(t *testing.T) {
	l := NewLedger(1, false)
	l.OutstandingChanged(2, 1)
	l.OutstandingChanged(2, 1)
	l.OutstandingChanged(2, -2)
	if l.Violations() != 1 {
		t.Errorf("violations = %d, want 1", l.Violations())
	}
	if l.MaxHighWater() != 2 || l.FileHighWater(2) != 2 {
		t.Errorf("high water = %d/%d, want 2/2", l.MaxHighWater(), l.FileHighWater(2))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Alg: core.SpecNP, BlockSize: 512, CacheBlocks: 8}); err == nil {
		t.Error("missing store accepted")
	}
	if _, err := New(Config{Alg: core.SpecNP, Store: NewMemStore(512, 0), CacheBlocks: 8}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(Config{Alg: core.SpecNP, Store: NewMemStore(512, 0), BlockSize: 512}); err == nil {
		t.Error("zero capacity accepted")
	}
	bad := core.AlgSpec{Kind: core.AlgISPPM, Order: 0}
	if _, err := New(Config{Alg: bad, Store: NewMemStore(512, 0), BlockSize: 512, CacheBlocks: 8}); err == nil {
		t.Error("invalid algorithm accepted")
	}
}
