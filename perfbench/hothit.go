package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
)

// hot-hit: one NP node whose cache holds the whole working set, so
// every read is a cache hit and the work is the client, the framing,
// the server's per-connection loop, the coalescing latch and the
// cache lookup.
const (
	hotBlockSize   = 8192
	hotBlocks      = 2048
	hotCacheBlocks = 4096
	hotConns       = 2
	hotDepth       = 4
	hotFile        = blockdev.FileID(1)
	hotWindows     = 10 // measured windows per untraced run, each on a fresh node
)

// hotNode is one booted single-node server with its client conns.
type hotNode struct {
	eng   *lapcache.Engine
	srv   *lapcache.Server
	conns []*lapclient.Conn
	serve sync.WaitGroup
}

// bootHot assembles the node and preloads the working set. It returns
// the preload time separately (lapcache.preload_ms).
func bootHot(cfg runConfig, st *storeStats) (*hotNode, time.Duration, error) {
	var store lapcache.BackingStore = lapcache.NewMemStore(hotBlockSize, time.Millisecond)
	if cfg.wrapStore != nil {
		store = cfg.wrapStore(store)
	}
	eng, err := lapcache.New(lapcache.Config{
		Alg:         core.SpecNP,
		BlockSize:   hotBlockSize,
		CacheBlocks: hotCacheBlocks,
		Store:       &timedStore{inner: store, st: st},
	})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	eng.Preload(hotFile, 0, hotBlocks, false)
	preload := time.Since(t0)

	h := &hotNode{eng: eng, srv: lapcache.NewServer(eng)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Shutdown()
		return nil, 0, err
	}
	h.serve.Add(1)
	go func() {
		defer h.serve.Done()
		h.srv.Serve(ln) //nolint:errcheck // returns after Close
	}()
	for i := 0; i < hotConns; i++ {
		c, err := lapclient.DialConn(ln.Addr().String(), hotDepth)
		if err != nil {
			h.stop()
			return nil, 0, fmt.Errorf("dial client conn %d: %w", i, err)
		}
		h.conns = append(h.conns, c)
	}
	return h, preload, nil
}

// stop tears the node down and returns the abnormal connection
// closes and the buffers still live after the cache is drained.
func (h *hotNode) stop() (abnormal uint64, live int64) {
	for _, c := range h.conns {
		c.Close()
	}
	h.srv.Close()
	h.serve.Wait()
	h.eng.Shutdown()
	h.eng.DrainCache()
	return abnormalCloses(h.srv), h.eng.BufLive()
}

// abnormalCloses counts connections that ended for any reason but a
// clean EOF or the server's own shutdown.
func abnormalCloses(srv *lapcache.Server) uint64 {
	var n uint64
	for r, c := range srv.CloseCounts() {
		if r != lapcache.CloseEOF && r != lapcache.CloseShutdown {
			n += c
		}
	}
	return n
}

// hotPhase is one measured window of closed-loop reads.
type hotPhase struct {
	ops, failed int64
	ns          []int64 // per-read latency samples
	elapsed     time.Duration
	proc        procCounters // process counters over the window
	snap0, snap lapcache.Snapshot
}

func (p hotPhase) rate() float64 { return float64(p.ops-p.failed) / p.elapsed.Seconds() }

// runHotPhase keeps hotDepth reads in flight on each client conn for
// dur, every read landing in a caller buffer that is then checked
// against the block's fill pattern.
func runHotPhase(h *hotNode, keys []blockdev.BlockNo, dur time.Duration, rec *recorder) hotPhase {
	workers := hotConns * hotDepth
	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		ops    = make([]int64, workers)
		failed = make([]int64, workers)
		ns     = make([][]int64, workers)
	)
	p := hotPhase{snap0: h.eng.Snapshot()}
	before := readProc()
	start := time.Now()
	for w := 0; w < workers; w++ {
		ns[w] = make([]int64, 0, 1<<16)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := h.conns[w%hotConns]
			buf := make([]byte, hotBlockSize)
			dsts := [][]byte{buf}
			for i := w * len(keys) / workers; !stop.Load(); i++ {
				blk := keys[i%len(keys)]
				id, s := rec.beginClient(spClientRead, hotFile, blk, 1)
				t0 := time.Now()
				hit, err := c.ReadInto(hotFile, blk, 1, dsts)
				d := time.Since(t0)
				rec.endClient(id, s, spClientRead, 0, hotFile, blk, 1)
				ops[w]++
				ns[w] = append(ns[w], int64(d))
				if err != nil || !hit || !matchesPattern(blockdev.BlockID{File: hotFile, Block: blk}, buf) {
					failed[w]++
				}
			}
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.proc = readProc().sub(before)
	p.snap = h.eng.Snapshot()
	for w := 0; w < workers; w++ {
		p.ops += ops[w]
		p.failed += failed[w]
		p.ns = append(p.ns, ns[w]...)
	}
	return p
}

// matchesPattern reports whether buf holds block b's fill pattern: the
// block's 8-byte stamp, repeated.
func matchesPattern(b blockdev.BlockID, buf []byte) bool {
	var stamp [8]byte
	lapcache.FillPattern(b, stamp[:])
	if len(buf) <= len(stamp) {
		return bytes.Equal(buf, stamp[:len(buf)])
	}
	return bytes.Equal(buf[:8], stamp[:]) && bytes.Equal(buf[8:], buf[:len(buf)-8])
}

// hotKeys is the seeded visiting order of the working set.
func hotKeys(seed uint64) []blockdev.BlockNo {
	perm := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908)).Perm(hotBlocks)
	keys := make([]blockdev.BlockNo, len(perm))
	for i, v := range perm {
		keys[i] = blockdev.BlockNo(v)
	}
	return keys
}

func runHotHit(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	st := &storeStats{}
	keys := hotKeys(cfg.seed)

	// The measured time is split into windows, each on a freshly
	// booted node, and every figure is the median over the untraced
	// windows: a run then spans several scheduling and connection
	// placements instead of betting on one. Under --trace every other
	// window is traced.
	windows := hotWindows
	if cfg.trace {
		windows *= 2
	}
	var (
		rec                     *recorder
		plain, traced           []hotPhase
		setups, preloads        []float64
		rates, p50s, p99s, cpus []float64
		proc                    procCounters
		snap                    lapcache.Snapshot
		abnormal                uint64
		allNs                   []int64
	)
	if cfg.trace {
		rec = newRecorder(1 << 18)
	}
	for i := 0; i < windows; i++ {
		t0 := time.Now()
		h, preload, err := bootHot(cfg, st)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		preloads = append(preloads, float64(preload)/1e6)
		isTraced := cfg.trace && i%2 == 1
		var r *recorder
		if isTraced {
			r = rec
		}
		p := runHotPhase(h, keys, cfg.seconds/time.Duration(windows), r)
		abn, live := h.stop()
		o.check(live == 0, "hot-hit window %d: %d buffers live after shutdown and drain", i, live)
		o.attempted += p.ops
		o.fail(p.failed, "hot-hit window %d: %d reads failed, missed or returned wrong bytes", i, p.failed)
		abnormal += abn
		if isTraced {
			traced = append(traced, p)
			continue
		}
		plain = append(plain, p)
		lat := summarize(p.ns)
		rates = append(rates, p.rate())
		p50s = append(p50s, lat.P50us)
		p99s = append(p99s, lat.P99us)
		cpus = append(cpus, perOp(float64(p.proc.cpu)/1e3, p.ops-p.failed))
		proc = addProc(proc, p.proc)
		snap = addSnap(snap, snapDelta(p.snap, p.snap0))
		allNs = append(allNs, p.ns...)
	}
	o.fail(st.reads.Load(), "hot-hit: %d reads reached the store", st.reads.Load())

	var ops int64
	for _, p := range plain {
		ops += p.ops - p.failed
	}
	o.report["window_ops_per_s"] = append([]float64(nil), rates...)
	lat := summarize(allNs)
	o.e2e("setup_s", median(setups))
	o.e2e("ops_per_s", median(rates))
	o.e2e("op_p50_us", median(p50s))
	o.e2e("op_p99_us", median(p99s))
	o.e2e("cpu_us_per_op", median(cpus))
	o.report["windows"] = len(plain)
	o.report["read_latency_pooled"] = lat
	o.report["read_p50_us"] = metricVal{median(p50s), "us"}
	o.report["read_p99_us"] = metricVal{median(p99s), "us"}
	o.report["ops"] = ops
	o.report["setup_samples"] = len(setups)
	o.report["cpu_note"] = "cpu_us_per_op is the whole process: server, in-process loader and payload checks"

	o.setRuntimeLayers(proc, ops)
	o.layer("lapcache.hit_ratio", snap.HitRatio())
	o.layer("lapcache.buf_recycle_frac", frac(snap.BufRecycles, snap.BufAllocs+snap.BufRecycles))
	o.layer("lapcache.server.abnormal_closes", float64(abnormal))
	o.layer("lapcache.preload_ms", median(preloads))
	if cfg.trace {
		var tr []float64
		for _, p := range traced {
			tr = append(tr, p.rate())
		}
		ss := rec.analyze()
		o.layer("lapclient.read.self_us_p50", median(ss.selfUs[spClientRead]))
		o.layer("trace.overhead_frac", 1-median(tr)/median(rates))
		o.layer("trace.attribution_error_frac", ss.attributionErr())
		o.report["spans"] = map[string]any{"kept": ss.kept, "dropped": ss.dropped}
		if path, err := rec.writeSpans(cfg.spansDir, fmt.Sprintf("hot-hit-seed%d.jsonl", cfg.seed)); err != nil {
			return nil, err
		} else if path != "" {
			o.report["spans_file"] = path
		}
	}
	return o, nil
}

// snapDelta is the change in the counters hot-hit reads between two
// engine snapshots.
func snapDelta(a, b lapcache.Snapshot) lapcache.Snapshot {
	return lapcache.Snapshot{
		DemandHits:   a.DemandHits - b.DemandHits,
		DemandMisses: a.DemandMisses - b.DemandMisses,
		BufAllocs:    a.BufAllocs - b.BufAllocs,
		BufRecycles:  a.BufRecycles - b.BufRecycles,
	}
}
