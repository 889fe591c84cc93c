package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/lapcache"
)

// The two layer interfaces the engine takes from outside are wrapped
// here: timedStore sits between an engine and its BackingStore,
// timedRemote between an engine and its cluster.Node. Both count and
// time every call in every run; with a recorder they also record a
// span linked to the client request that covers it.

// storeStats aggregates every node's store traffic.
type storeStats struct {
	reads, writes         atomic.Int64
	readBusy, writeBusy   atomic.Int64 // ns
	inflight, maxInflight atomic.Int64 // concurrent reads
}

type timedStore struct {
	inner lapcache.BackingStore
	node  int
	rec   *recorder
	st    *storeStats
}

// ReadBlock implements lapcache.BackingStore.
func (s *timedStore) ReadBlock(b blockdev.BlockID, buf []byte) error {
	var parent, start int64
	if s.rec != nil {
		parent = s.rec.link(spStoreRead, b.File, b.Block, 1)
		start = s.rec.now()
	}
	n := s.st.inflight.Add(1)
	for m := s.st.maxInflight.Load(); n > m && !s.st.maxInflight.CompareAndSwap(m, n); m = s.st.maxInflight.Load() {
	}
	t0 := time.Now()
	err := s.inner.ReadBlock(b, buf)
	s.st.readBusy.Add(int64(time.Since(t0)))
	s.st.inflight.Add(-1)
	s.st.reads.Add(1)
	if s.rec != nil {
		s.rec.child(spStoreRead, s.node, b.File, b.Block, 1, parent, start, s.rec.now())
	}
	return err
}

// WriteBlock implements lapcache.BackingStore.
func (s *timedStore) WriteBlock(b blockdev.BlockID, data []byte) error {
	var parent, start int64
	if s.rec != nil {
		parent = s.rec.link(spStoreWrite, b.File, b.Block, 1)
		start = s.rec.now()
	}
	t0 := time.Now()
	err := s.inner.WriteBlock(b, data)
	s.st.writeBusy.Add(int64(time.Since(t0)))
	s.st.writes.Add(1)
	if s.rec != nil {
		s.rec.child(spStoreWrite, s.node, b.File, b.Block, 1, parent, start, s.rec.now())
	}
	return err
}

// peerStats aggregates every node's calls into the peer tier.
type peerStats struct {
	mu                            sync.Mutex
	fetchNs, forwardNs, replicaNs []int64

	fetchHits, fetchFailed atomic.Int64
	fetchBusy, replicaBusy atomic.Int64 // ns
	// slow counts peer calls that took at least the peer-call
	// timeout: the signature of a nested-RPC cycle broken by expiry.
	slow atomic.Int64
}

type timedRemote struct {
	inner lapcache.RemoteFetcher
	node  int
	rec   *recorder
	st    *peerStats
}

// begin opens a peer span: link target and start time.
func (r *timedRemote) begin(kind spanKind, f blockdev.FileID, off blockdev.BlockNo, n int32) (parent, start int64, t0 time.Time) {
	if r.rec != nil {
		parent = r.rec.link(kind, f, off, n)
		start = r.rec.now()
	}
	return parent, start, time.Now()
}

// end closes a peer span and returns its duration.
func (r *timedRemote) end(kind spanKind, f blockdev.FileID, off blockdev.BlockNo, n int32, parent, start int64, t0 time.Time, samples *[]int64) time.Duration {
	d := time.Since(t0)
	if d >= cluster.DefaultPeerCallTimeout {
		r.st.slow.Add(1)
	}
	if samples != nil {
		r.st.mu.Lock()
		*samples = append(*samples, int64(d))
		r.st.mu.Unlock()
	}
	if r.rec != nil {
		r.rec.child(kind, r.node, f, off, n, parent, start, r.rec.now())
	}
	return d
}

// Owned implements lapcache.RemoteFetcher.
func (r *timedRemote) Owned(f blockdev.FileID) bool { return r.inner.Owned(f) }

// Epoch implements lapcache.RemoteFetcher.
func (r *timedRemote) Epoch() uint64 { return r.inner.Epoch() }

// FetchSpan implements lapcache.RemoteFetcher.
func (r *timedRemote) FetchSpan(f blockdev.FileID, off blockdev.BlockNo, n int32, dsts [][]byte) (hit, ok bool, err error) {
	parent, start, t0 := r.begin(spFetch, f, off, n)
	hit, ok, err = r.inner.FetchSpan(f, off, n, dsts)
	d := r.end(spFetch, f, off, n, parent, start, t0, &r.st.fetchNs)
	r.st.fetchBusy.Add(int64(d))
	if ok && err == nil && hit {
		r.st.fetchHits.Add(1)
	}
	if !ok || err != nil {
		r.st.fetchFailed.Add(1)
	}
	return hit, ok, err
}

// ForwardWrite implements lapcache.RemoteFetcher.
func (r *timedRemote) ForwardWrite(f blockdev.FileID, off blockdev.BlockNo, n int32, data []byte) (ok, replicated bool, err error) {
	parent, start, t0 := r.begin(spForwardWrite, f, off, n)
	ok, replicated, err = r.inner.ForwardWrite(f, off, n, data)
	r.end(spForwardWrite, f, off, n, parent, start, t0, &r.st.forwardNs)
	return ok, replicated, err
}

// ReplicateWrite implements lapcache.RemoteFetcher.
func (r *timedRemote) ReplicateWrite(f blockdev.FileID, off blockdev.BlockNo, n int32, data []byte) bool {
	parent, start, t0 := r.begin(spReplicate, f, off, n)
	ok := r.inner.ReplicateWrite(f, off, n, data)
	d := r.end(spReplicate, f, off, n, parent, start, t0, &r.st.replicaNs)
	r.st.replicaBusy.Add(int64(d))
	return ok
}

// ForwardClose implements lapcache.RemoteFetcher.
func (r *timedRemote) ForwardClose(f blockdev.FileID) (bool, error) {
	parent, start, t0 := r.begin(spForwardClose, f, 0, 0)
	ok, err := r.inner.ForwardClose(f)
	r.end(spForwardClose, f, 0, 0, parent, start, t0, nil)
	return ok, err
}
