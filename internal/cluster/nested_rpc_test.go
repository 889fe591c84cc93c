package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
)

// TestClusterNestedRPCNoStall pins the end of the nested-RPC stall. A
// server handler that forwards a client write to the owner, or pushes
// the owner's R=2 copy to its successor, waits on a peer RPC. When
// every connection ran its requests one after another, such handlers
// could wait on each other in a cycle: node 1, handling a write node 0
// forwarded, pushes the replica to node 0 on a pooled link whose head
// request is a write node 1 forwarded, and node 0, handling that one,
// pushes its replica to node 1 behind the first write. Only the
// peer-call timeout broke it, by severing a link. Here the timeout is
// off (unbounded waits), so the run finishes only if no cycle forms:
// blocking requests run off each connection's read loop. Concurrent
// writes and reads go through two nodes to files owned by every node,
// on pipelined client connections, and must all complete within the
// watchdog without a single degraded (fallback) peer call.
func TestClusterNestedRPCNoStall(t *testing.T) {
	const (
		workers  = 24
		opsEach  = 60
		nblocks  = 2
		watchdog = 30 * time.Second
	)
	nodes, stop, err := StartLocalWith(3, func(i int, addrs []string) lapcache.Config {
		return lapcache.Config{
			Alg:         core.SpecLnAgrISPPM1,
			BlockSize:   testBlockSize,
			CacheBlocks: 256,
			Store:       slowWriteStore{lapcache.NewMemStore(testBlockSize, 200*time.Microsecond)},
		}
	}, StartLocalOpts{TweakNode: func(i int, cfg *Config) {
		cfg.Replicas = 2
		cfg.PeerCallTimeout = -1
	}})
	if err != nil {
		t.Fatalf("StartLocalWith: %v", err)
	}

	// Files of every owner, weighted toward the two ownerships that
	// close a cycle between the client-facing nodes: a file owned by
	// node 0 whose replica lives on node 1 and one owned by node 1
	// replicated on node 0. Node 0 forwards writes of the second to
	// node 1, which pushes their replicas back to node 0 on the same
	// pooled links that carry node 1's forwards of the first.
	var files []blockdev.FileID
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {0, 1}, {1, 0}, {2, 0}, {2, 1}} {
		files = append(files, fileReplicatedOn(t, nodes, pair[0], pair[1], files))
	}
	// Several client connections per node, so many handlers share each
	// node's pooled peer links at once.
	conns := make([]*lapclient.Conn, 8)
	for i := range conns {
		c, err := lapclient.DialConn(nodes[i%2].Addr, 0)
		if err != nil {
			t.Fatalf("dial node %d: %v", i, err)
		}
		conns[i] = c
	}

	errs := make(chan error, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := conns[w%len(conns)]
			want := make([]byte, testBlockSize)
			for i := 0; i < opsEach; i++ {
				f := files[(w/len(conns)+i/2)%len(files)]
				off := blockdev.BlockNo((w*opsEach + i) % 96 * nblocks)
				if i%2 == 0 {
					if err := c.Write(f, off, nblocks, nil); err != nil {
						errs <- fmt.Errorf("worker %d write %d:%d: %w", w, f, off, err)
						return
					}
					continue
				}
				data, _, err := c.Read(f, off, nblocks, true)
				if err != nil {
					errs <- fmt.Errorf("worker %d read %d:%d: %w", w, f, off, err)
					return
				}
				for k := 0; k < nblocks; k++ {
					lapcache.FillPattern(blockdev.BlockID{File: f, Block: off + blockdev.BlockNo(k)}, want)
					if !bytes.Equal(data[k*testBlockSize:(k+1)*testBlockSize], want) {
						errs <- fmt.Errorf("worker %d read %d:%d block %d corrupted", w, f, off, k)
						return
					}
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	select {
	case <-done:
	case <-time.After(watchdog):
		// Leave the wedged cluster running: tearing it down would block
		// on the very handlers that are stuck.
		t.Fatalf("cluster wedged: workers still waiting after %v with unbounded peer calls", watchdog)
	}
	defer stop()
	for _, c := range conns {
		c.Close()
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var fallbacks, forwarded, replicated uint64
	for _, m := range nodes {
		s := m.Engine.Snapshot()
		fallbacks += s.RemoteFallbacks
		forwarded += s.ForwardedWrites
		replicated += s.ReplicatedWrites
	}
	t.Logf("fallbacks=%d forwarded=%d replicated=%d", fallbacks, forwarded, replicated)
	if fallbacks != 0 {
		t.Errorf("%d remote fallbacks with every peer alive", fallbacks)
	}
	if forwarded == 0 || replicated == 0 {
		t.Errorf("forwarded=%d replicated=%d: the run never exercised nested peer RPCs", forwarded, replicated)
	}
}

// fileReplicatedOn finds a file, not in skip, that member owner owns
// and whose R=2 successor is member replica.
func fileReplicatedOn(t *testing.T, nodes []*LocalNode, owner, replica int, skip []blockdev.FileID) blockdev.FileID {
	t.Helper()
next:
	for f := blockdev.FileID(1); f < 10000; f++ {
		for _, s := range skip {
			if s == f {
				continue next
			}
		}
		o := nodes[0].Node.OwnersOf(f, 2)
		if len(o) == 2 && o[0] == nodes[owner].Addr && o[1] == nodes[replica].Addr {
			return f
		}
	}
	t.Fatalf("no file owned by member %d and replicated on %d in 10000 tries", owner, replica)
	return 0
}

// slowWriteStore gives store writes the same service time as reads, so
// a handler installing a forwarded write is still busy when the peers'
// replica pushes arrive — the overlap a cycle needs.
type slowWriteStore struct{ *lapcache.MemStore }

func (s slowWriteStore) WriteBlock(b blockdev.BlockID, data []byte) error {
	time.Sleep(200 * time.Microsecond)
	return s.MemStore.WriteBlock(b, data)
}
