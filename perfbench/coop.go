package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/lapcache"
	"repro/internal/lapclient"
	"repro/internal/workload"
)

// charisma-coop: one pass of the small-scale CHARISMA trace replayed
// on a static 3-node R=2 cooperative cluster, each traced process a
// goroutine running its steps in order with no think time. Clients
// hold one conn to each of nodes 0 and 1; node 2 is reached only
// through peers.
const (
	coopNodes        = 3
	coopClientNodes  = 2
	coopBlockSize    = 8192
	coopCacheBlocks  = 1024
	coopStoreLatency = time.Millisecond
	coopExtraBoots   = 4 // boots measured in set-up beside one per pass
	// coopMinPasses is the fewest untraced passes an untraced run
	// measures. About one pass in four stalls; with five the median
	// pass is a stalled one only when three of them stall.
	coopMinPasses = 5
)

var coopAlg = core.SpecLnAgrISPPM1

// coopCluster is one booted cluster, assembled from the public
// constructors in the order cluster.StartLocal uses.
type coopCluster struct {
	engines []*lapcache.Engine
	servers []*lapcache.Server
	nodes   []*cluster.Node
	conns   []*lapclient.Conn
	serve   sync.WaitGroup
}

// coopTraceSeed is the generator seed of the measured trace. The
// generator's seed changes the trace's size itself (seeds 11-20 give
// 12k to 35k ops touching 5.4k to 7.7k distinct blocks), so a per-run
// generator seed would measure the seed rather than the code. The run
// seed instead orders the measured trace's processes over the client
// conns, and generates a second trace that is replayed once per run
// as a check pass.
const coopTraceSeed = 1

func coopTrace(cfg runConfig, seed uint64) (*workload.Trace, error) {
	p := experiment.SmallScale().Charisma
	if cfg.smoke {
		p = experiment.TinyScale().Charisma
	}
	p.Seed = seed
	return workload.GenerateCharisma(p)
}

// bootCoop listens, builds every node, engine and server, starts the
// peer health loops, waits for the mesh, and dials the client conns.
func bootCoop(cfg runConfig, tr *workload.Trace, rec *recorder, sst *storeStats, pst *peerStats) (*coopCluster, error) {
	c := &coopCluster{}
	lns := make([]net.Listener, coopNodes)
	addrs := make([]string, coopNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i := 0; i < coopNodes; i++ {
		node, err := cluster.NewNode(cluster.Config{
			Self:         addrs[i],
			Peers:        addrs,
			Replicas:     2,
			PingInterval: 50 * time.Millisecond,
		})
		if err != nil {
			closeListeners(lns[i:])
			c.stop()
			return nil, err
		}
		var store lapcache.BackingStore = lapcache.NewMemStore(coopBlockSize, coopStoreLatency)
		if cfg.wrapStore != nil {
			store = cfg.wrapStore(store)
		}
		eng, err := lapcache.New(lapcache.Config{
			Alg:         coopAlg,
			BlockSize:   coopBlockSize,
			CacheBlocks: coopCacheBlocks,
			Store:       &timedStore{inner: store, node: i, rec: rec, st: sst},
			FileBlocks:  tr.FileBlocks,
			Remote:      &timedRemote{inner: node, node: i, rec: rec, st: pst},
		})
		if err != nil {
			node.Close()
			closeListeners(lns[i:])
			c.stop()
			return nil, err
		}
		node.SetLocal(eng)
		srv := lapcache.NewServer(eng)
		srv.Cluster = node
		c.nodes, c.engines, c.servers = append(c.nodes, node), append(c.engines, eng), append(c.servers, srv)
		c.serve.Add(1)
		go func(ln net.Listener) {
			defer c.serve.Done()
			srv.Serve(ln) //nolint:errcheck // returns after Close
		}(lns[i])
	}
	for _, n := range c.nodes {
		if err := n.Start(); err != nil {
			c.stop()
			return nil, err
		}
	}
	for _, n := range c.nodes {
		if err := n.WaitReady(5 * time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	for i := 0; i < coopClientNodes; i++ {
		conn, err := lapclient.DialConn(addrs[i], 0)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("dial client conn to node %d: %w", i, err)
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

func closeListeners(lns []net.Listener) {
	for _, l := range lns {
		l.Close()
	}
}

// stop tears the cluster down in reverse order: clients, servers, peer
// tiers, engines; then drains every cache. It returns the abnormal
// connection closes and the buffers still live after the drain, per
// node.
func (c *coopCluster) stop() (abnormal uint64, live []int64) {
	for _, conn := range c.conns {
		conn.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	c.serve.Wait()
	for _, n := range c.nodes {
		n.Close()
	}
	for _, e := range c.engines {
		e.Shutdown()
		e.DrainCache()
		live = append(live, e.BufLive())
	}
	for _, s := range c.servers {
		abnormal += abnormalCloses(s)
	}
	return abnormal, live
}

// coopPass is one replay of the trace.
type coopPass struct {
	ops, failed            int64
	reads                  int64
	readHits               int64
	readNs, writeNs, allNs []int64
	elapsed                time.Duration
	proc                   procCounters
	snap                   lapcache.Snapshot // summed over nodes
	maxHW                  int
	multiDriven            int // files with prefetch history on >1 node
	abnormal               uint64
	errs                   []string // first error of each failing process
	checks                 []string // failed post-pass checks
	slow                   int64    // peer calls that took the peer-call timeout
}

// stalled reports whether the peer-call-timeout stall hit the pass.
func (p coopPass) stalled() bool { return p.slow > 0 || p.snap.RemoteFallbacks > 0 }

func (p coopPass) rate() float64 { return float64(p.ops-p.failed) / p.elapsed.Seconds() }

// procResult is one traced process's share of a pass.
type procResult struct {
	ops, failed, reads, readHits int64
	readNs, writeNs, allNs       []int64
	firstErr                     string
}

// replay runs every traced process as a goroutine against the
// cluster's client conns, starting them in the given order; the k-th
// process started uses conn k mod 2.
func replay(c *coopCluster, tr *workload.Trace, order []int, rec *recorder) []procResult {
	out := make([]procResult, len(tr.Procs))
	var wg sync.WaitGroup
	for k, pi := range order {
		wg.Add(1)
		go func(k, pi int) {
			defer wg.Done()
			n := k % len(c.conns)
			out[pi] = replayProc(c.conns[n], n, &tr.Procs[pi], rec)
		}(k, pi)
	}
	wg.Wait()
	return out
}

func replayProc(conn *lapclient.Conn, node int, p *workload.Process, rec *recorder) procResult {
	var r procResult
	var backing []byte
	var dsts [][]byte
	fail := func(format string, args ...any) {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf(format, args...)
		}
	}
	for _, s := range p.Steps {
		r.ops++
		switch s.Kind {
		case workload.OpRead, workload.OpWrite:
			sp := blockdev.ByteRangeToSpan(s.File, s.Offset, s.Size, coopBlockSize)
			need := int(sp.Count) * coopBlockSize
			if cap(backing) < need {
				backing = make([]byte, need)
			}
			buf := backing[:need]
			dsts = dsts[:0]
			for i := 0; i < int(sp.Count); i++ {
				dsts = append(dsts, buf[i*coopBlockSize:(i+1)*coopBlockSize])
			}
			if s.Kind == workload.OpRead {
				r.reads++
				id, st := rec.beginClient(spClientRead, sp.File, sp.Start, sp.Count)
				t0 := time.Now()
				hit, err := conn.ReadInto(sp.File, sp.Start, sp.Count, dsts)
				d := time.Since(t0)
				rec.endClient(id, st, spClientRead, node, sp.File, sp.Start, sp.Count)
				r.readNs, r.allNs = append(r.readNs, int64(d)), append(r.allNs, int64(d))
				if err != nil {
					fail("read %v: %v", sp, err)
					continue
				}
				if hit {
					r.readHits++
				}
				for i, d := range dsts {
					b := blockdev.BlockID{File: sp.File, Block: sp.Start + blockdev.BlockNo(i)}
					if !matchesPattern(b, d) {
						fail("read %v: block %d does not hold its fill pattern", sp, b.Block)
						break
					}
				}
				continue
			}
			for i, d := range dsts {
				lapcache.FillPattern(blockdev.BlockID{File: sp.File, Block: sp.Start + blockdev.BlockNo(i)}, d)
			}
			id, st := rec.beginClient(spClientWrite, sp.File, sp.Start, sp.Count)
			t0 := time.Now()
			err := conn.Write(sp.File, sp.Start, sp.Count, buf)
			d := time.Since(t0)
			rec.endClient(id, st, spClientWrite, node, sp.File, sp.Start, sp.Count)
			r.writeNs, r.allNs = append(r.writeNs, int64(d)), append(r.allNs, int64(d))
			if err != nil {
				fail("write %v: %v", sp, err)
			}
		case workload.OpClose:
			id, st := rec.beginClient(spClientClose, s.File, 0, 0)
			t0 := time.Now()
			err := conn.CloseFile(s.File)
			d := time.Since(t0)
			rec.endClient(id, st, spClientClose, node, s.File, 0, 0)
			r.allNs = append(r.allNs, int64(d))
			if err != nil {
				fail("close %d: %v", s.File, err)
			}
		}
	}
	return r
}

// runCoopPass replays the trace once on c, then tears c down and
// checks the cluster-wide linearity join and the buffer drain.
func runCoopPass(c *coopCluster, tr *workload.Trace, order []int, rec *recorder) coopPass {
	var p coopPass
	before := readProc()
	start := time.Now()
	res := replay(c, tr, order, rec)
	p.elapsed = time.Since(start)
	p.proc = readProc().sub(before)
	for _, r := range res {
		p.ops += r.ops
		p.failed += r.failed
		p.reads += r.reads
		p.readHits += r.readHits
		p.readNs = append(p.readNs, r.readNs...)
		p.writeNs = append(p.writeNs, r.writeNs...)
		p.allNs = append(p.allNs, r.allNs...)
		if r.firstErr != "" {
			p.errs = append(p.errs, r.firstErr)
		}
	}

	hws := make([]map[blockdev.FileID]int, len(c.engines))
	for i, e := range c.engines {
		s := e.Snapshot()
		p.snap = addSnap(p.snap, s)
		if s.LinearViolations != 0 {
			p.checks = append(p.checks, fmt.Sprintf("node %d: %d linear violations", i, s.LinearViolations))
		}
		hws[i] = e.Ledger().HighWaters()
	}
	var joinErrs []string
	p.maxHW, p.multiDriven, joinErrs = joinLedgers(hws, coopAlg.DegreeCap())
	p.checks = append(p.checks, joinErrs...)
	var live []int64
	p.abnormal, live = c.stop()
	for i, l := range live {
		if l != 0 {
			p.checks = append(p.checks, fmt.Sprintf("node %d: %d buffers live after shutdown and drain", i, l))
		}
	}
	return p
}

// joinLedgers is the cluster-wide join of the engines' ledger
// high-waters, one map per node. In a static cluster only a file's
// ring owner drives its prefetching, so a file with prefetch history
// on more than one node breaks the one-outstanding-per-file bound
// even when each node alone stays within the cap; so does a per-file
// high-water above the cap. It returns the largest high-water, the
// number of files driven by more than one node, and one failure per
// offending file.
func joinLedgers(hws []map[blockdev.FileID]int, degreeCap int) (maxHW, multi int, errs []string) {
	drivers := map[blockdev.FileID]int{}
	for _, hw := range hws {
		for f, h := range hw {
			if h == 0 {
				continue
			}
			drivers[f]++
			maxHW = max(maxHW, h)
			if h > degreeCap {
				errs = append(errs, fmt.Sprintf("file %d: prefetch high-water %d > %d", f, h, degreeCap))
			}
		}
	}
	for f, n := range drivers {
		if n > 1 {
			multi++
			errs = append(errs, fmt.Sprintf("file %d: prefetching driven by %d nodes", f, n))
		}
	}
	return maxHW, multi, errs
}

// addSnap sums the snapshot counters the benchmark reads.
func addSnap(a, b lapcache.Snapshot) lapcache.Snapshot {
	a.DemandHits += b.DemandHits
	a.DemandMisses += b.DemandMisses
	a.BufAllocs += b.BufAllocs
	a.BufRecycles += b.BufRecycles
	a.PrefetchIssued += b.PrefetchIssued
	a.PrefetchTimely += b.PrefetchTimely
	a.PrefetchLate += b.PrefetchLate
	a.PrefetchWasted += b.PrefetchWasted
	a.PrefetchDropped += b.PrefetchDropped
	a.RemoteFallbacks += b.RemoteFallbacks
	return a
}

func runCharismaCoop(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var setups, gens, boots []float64

	// setUp is one measured set-up: trace generation and cluster boot.
	setUp := func(rec *recorder, sst *storeStats, pst *peerStats) (*coopCluster, *workload.Trace, error) {
		t0 := time.Now()
		tr, err := coopTrace(cfg, coopTraceSeed)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		c, err := bootCoop(cfg, tr, rec, sst, pst)
		if err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		gens = append(gens, float64(t1.Sub(t0))/1e6)
		boots = append(boots, float64(t2.Sub(t1))/1e6)
		return c, tr, nil
	}
	for i := 0; i < coopExtraBoots; i++ {
		c, _, err := setUp(nil, &storeStats{}, &peerStats{})
		if err != nil {
			return nil, err
		}
		abn, live := c.stop()
		for n, l := range live {
			o.check(l == 0, "set-up %d node %d: %d buffers live after drain", i, n, l)
		}
		o.check(abn == 0, "set-up %d: %d abnormal closes", i, abn)
	}

	// book counts a pass's ops, failures and stall against the run. The
	// stall counters cover every pass, the check pass included.
	var (
		slowAll, fallbacksAll int64
		stalledPasses         int
	)
	book := func(label string, p coopPass) {
		o.attempted += p.ops
		o.fail(p.failed, "charisma-coop %s: %d ops failed or returned wrong bytes (first: %v)", label, p.failed, p.errs)
		for _, f := range p.checks {
			o.fail(1, "charisma-coop %s: %s", label, f)
		}
		if p.stalled() {
			stalledPasses++
		}
		slowAll += p.slow
		fallbacksAll += int64(p.snap.RemoteFallbacks)
	}

	// The check pass replays the run seed's own trace once, with every
	// output check; its figures are reported, not measured.
	if cfg.seed != coopTraceSeed {
		tr, err := coopTrace(cfg, cfg.seed)
		if err != nil {
			return nil, err
		}
		ps := &peerStats{}
		c, err := bootCoop(cfg, tr, nil, &storeStats{}, ps)
		if err != nil {
			return nil, err
		}
		order := make([]int, len(tr.Procs))
		for i := range order {
			order[i] = i
		}
		p := runCoopPass(c, tr, order, nil)
		p.slow = ps.slow.Load()
		book("check pass", p)
		o.report["check_pass"] = map[string]any{
			"trace_seed": cfg.seed, "ops": p.ops, "failed": p.failed, "ops_per_s": p.rate(),
			"read_latency": summarize(p.readNs), "stalled": p.stalled(),
		}
	}

	// Untraced passes carry the end-to-end metrics and the counters;
	// under --trace every other pass is traced and carries the spans.
	// Every measured pass replays the same trace; the run seed orders
	// its processes over the client conns.
	var (
		plain, traced []coopPass
		sst           = &storeStats{}
		pst           = &peerStats{}
		rec           *recorder
		order         []int
	)
	start := time.Now()
	for i := 0; ; i++ {
		isTraced := cfg.trace && i%2 == 1
		var r *recorder
		st, ps := sst, pst
		if isTraced {
			rec = newRecorder(1 << 21)
			r, st, ps = rec, &storeStats{}, &peerStats{}
		}
		c, tr, err := setUp(r, st, ps)
		if err != nil {
			return nil, err
		}
		if order == nil {
			order = rand.New(rand.NewPCG(cfg.seed, 0xbb67ae8584caa73b)).Perm(len(tr.Procs))
		}
		slow0 := ps.slow.Load()
		p := runCoopPass(c, tr, order, r)
		p.slow = ps.slow.Load() - slow0
		book(fmt.Sprintf("pass %d", i), p)
		if isTraced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		done := time.Since(start) >= cfg.seconds
		if cfg.trace && done && len(traced) > 0 {
			break
		}
		if !cfg.trace && done && len(plain) >= coopMinPasses && len(plain)%2 == 1 {
			break
		}
	}

	// Each figure is the median over the untraced passes of that pass's
	// figure, so one pass caught in a slow spell of the machine, or in
	// the peer-call-timeout stall, does not move it; a stall that hits
	// most passes does.
	var (
		rates, p50s, p99s, cpus []float64
		readNs, writeNs, allNs  []int64
		passStalled             []bool
	)
	for _, p := range plain {
		lat := summarize(p.allNs)
		rates = append(rates, p.rate())
		p50s = append(p50s, lat.P50us)
		p99s = append(p99s, lat.P99us)
		cpus = append(cpus, perOp(float64(p.proc.cpu)/1e3, p.ops-p.failed))
		readNs = append(readNs, p.readNs...)
		writeNs = append(writeNs, p.writeNs...)
		allNs = append(allNs, p.allNs...)
		passStalled = append(passStalled, p.stalled())
	}
	// Copied before median sorts rates in place.
	o.report["pass_ops_per_s"] = append([]float64(nil), rates...)
	all := summarize(allNs)
	rd, wr := summarize(readNs), summarize(writeNs)
	o.e2e("setup_s", median(setups))
	o.e2e("ops_per_s", median(rates))
	o.e2e("op_p50_us", median(p50s))
	o.e2e("op_p99_us", median(p99s))
	o.e2e("cpu_us_per_op", median(cpus))

	var (
		ops, reads, readHits int64
		proc                 procCounters
		snap                 lapcache.Snapshot
		maxHW, multi         int
		abnormal             uint64
	)
	for _, p := range plain {
		ops += p.ops - p.failed
		reads += p.reads
		readHits += p.readHits
		proc = addProc(proc, p.proc)
		snap = addSnap(snap, p.snap)
		maxHW = max(maxHW, p.maxHW)
		multi += p.multiDriven
		abnormal += p.abnormal
	}
	o.report["passes"] = len(plain)
	o.report["pass_stalled"] = passStalled
	o.report["op_latency_pooled"] = all
	o.report["read_latency_pooled"] = rd
	o.report["write_latency_pooled"] = wr
	o.report["read_p50_us"] = metricVal{rd.P50us, "us"}
	o.report["read_p99_us"] = metricVal{rd.P99us, "us"}
	o.report["write_p50_us"] = metricVal{wr.P50us, "us"}
	o.report["write_p99_us"] = metricVal{wr.P99us, "us"}
	o.report["client_hit_ratio"] = frac(uint64(readHits), uint64(reads))
	o.report["setup_samples"] = len(setups)
	// The peer-call-timeout stall shows here in every run.
	o.report["cluster.fallbacks"] = fallbacksAll
	o.report["cluster.slow_ops"] = slowAll
	o.report["stalled_passes"] = stalledPasses
	o.report["max_file_prefetch_hw"] = maxHW
	o.report["multi_driven_files"] = multi
	o.report["cpu_note"] = "cpu_us_per_op is the whole process: three nodes, the in-process loader and payload checks"

	o.setRuntimeLayers(proc, ops)
	o.layer("lapcache.hit_ratio", snap.HitRatio())
	o.layer("lapcache.buf_recycle_frac", frac(snap.BufRecycles, snap.BufAllocs+snap.BufRecycles))
	o.layer("lapcache.server.abnormal_closes", float64(abnormal))
	o.layer("core.prefetch.issued_per_read", perOp(float64(snap.PrefetchIssued), reads))
	o.layer("core.prefetch.timely_frac", frac(snap.PrefetchTimely, snap.PrefetchIssued))
	o.layer("core.prefetch.late_frac", frac(snap.PrefetchLate, snap.PrefetchIssued))
	o.layer("core.prefetch.wasted_frac", frac(snap.PrefetchWasted, snap.PrefetchIssued))
	o.layer("core.prefetch.dropped", float64(snap.PrefetchDropped))
	o.layer("core.prefetch.max_outstanding", float64(maxHW))
	o.layer("store.reads_per_op", perOp(float64(sst.reads.Load()), ops))
	o.layer("store.read.busy_ms", float64(sst.readBusy.Load())/1e6)
	o.layer("store.read.max_concurrency", float64(sst.maxInflight.Load()))
	o.layer("store.writes_per_op", perOp(float64(sst.writes.Load()), ops))
	o.layer("store.write.busy_ms", float64(sst.writeBusy.Load())/1e6)
	pst.mu.Lock()
	o.layer("cluster.fetch.p50_us", summarize(pst.fetchNs).P50us)
	o.layer("cluster.fetch.hit_frac", frac(uint64(pst.fetchHits.Load()), uint64(len(pst.fetchNs))))
	o.layer("cluster.forward_write.p50_us", summarize(pst.forwardNs).P50us)
	o.layer("cluster.replicate.p50_us", summarize(pst.replicaNs).P50us)
	pst.mu.Unlock()
	o.layer("cluster.fetch.busy_ms", float64(pst.fetchBusy.Load())/1e6)
	o.layer("cluster.replicate.busy_ms", float64(pst.replicaBusy.Load())/1e6)
	o.layer("cluster.fallbacks", float64(fallbacksAll))
	o.layer("cluster.slow_ops", float64(slowAll))
	o.layer("cluster.boot_ms", median(boots))
	o.layer("workload.gen_ms", median(gens))

	if cfg.trace {
		ss := rec.analyze()
		o.layer("lapclient.read.self_us_p50", median(ss.selfUs[spClientRead]))
		o.layer("lapclient.write.self_us_p50", median(ss.selfUs[spClientWrite]))
		o.layer("store.read.demand_frac", frac(uint64(ss.demandReads), uint64(ss.storeReads)))
		// Stalls hit traced and untraced passes alike, so both sides of
		// the ratio are medians over passes.
		var tracedRates []float64
		tracedStalled := 0
		for _, p := range traced {
			tracedRates = append(tracedRates, p.rate())
			if p.stalled() {
				tracedStalled++
			}
		}
		o.layer("trace.overhead_frac", 1-median(tracedRates)/median(rates))
		o.report["traced_passes"] = len(traced)
		o.report["traced_stalled_passes"] = tracedStalled
		o.layer("trace.attribution_error_frac", ss.attributionErr())
		o.check(ss.dropped == 0, "charisma-coop: %d spans dropped past the recorder limit", ss.dropped)
		o.check(ss.attributionErr() <= attributionTolerance,
			"charisma-coop: client self time plus linked child time is off the client read time by %.3f (tolerance %.2f)",
			ss.attributionErr(), attributionTolerance)
		o.report["spans"] = map[string]any{"kept": ss.kept, "dropped": ss.dropped}
		if path, err := rec.writeSpans(cfg.spansDir, fmt.Sprintf("charisma-coop-seed%d.jsonl", cfg.seed)); err != nil {
			return nil, err
		} else if path != "" {
			o.report["spans_file"] = path
		}
	}
	return o, nil
}

// attributionTolerance bounds how far, summed over client reads, self
// time plus the union of linked child spans may stray from the client
// read time. Children are clipped to nothing: a child linked to the
// wrong request sticks out of its parent and shows as excess.
const attributionTolerance = 0.05

func addProc(a, b procCounters) procCounters {
	a.cpu += b.cpu
	a.syscr += b.syscr
	a.syscw += b.syscw
	a.wchar += b.wchar
	a.mallocs += b.mallocs
	a.numGC += b.numGC
	a.pauseNs += b.pauseNs
	return a
}
