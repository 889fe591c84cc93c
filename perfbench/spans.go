package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/blockdev"
)

// spanKind names the layer boundary a span was recorded at. Client
// spans wrap the benchmark's lapclient calls; store and peer spans
// wrap the engine's BackingStore and RemoteFetcher.
type spanKind uint8

const (
	spClientRead spanKind = iota
	spClientWrite
	spClientClose
	spStoreRead
	spStoreWrite
	spFetch
	spForwardWrite
	spReplicate
	spForwardClose
)

var spanNames = [...]string{
	spClientRead:   "lapclient.read",
	spClientWrite:  "lapclient.write",
	spClientClose:  "lapclient.close",
	spStoreRead:    "store.read",
	spStoreWrite:   "store.write",
	spFetch:        "cluster.fetch",
	spForwardWrite: "cluster.forward_write",
	spReplicate:    "cluster.replicate",
	spForwardClose: "cluster.forward_close",
}

// clientKindFor is the client span kind a child span may link to.
var clientKindFor = [...]spanKind{
	spStoreRead:    spClientRead,
	spStoreWrite:   spClientWrite,
	spFetch:        spClientRead,
	spForwardWrite: spClientWrite,
	spReplicate:    spClientWrite,
	spForwardClose: spClientClose,
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's origin. Req is the request id: the id of the client span
// the span belongs to (its own id for a client span, 0 for a span no
// client request covers). Prefetch marks a store read no in-flight
// client read covers.
type span struct {
	ID       int64    `json:"id"`
	Parent   int64    `json:"parent"`
	Req      int64    `json:"req"`
	Kind     spanKind `json:"-"`
	Name     string   `json:"name"`
	Node     int      `json:"node"`
	File     int32    `json:"file"`
	Block    int32    `json:"block"`
	Count    int32    `json:"count"`
	Start    int64    `json:"start_ns"`
	End      int64    `json:"end_ns"`
	Prefetch bool     `json:"prefetch,omitempty"`
}

// flight is one in-flight client request, the target of child links.
type flight struct {
	id           int64
	kind         spanKind
	first, limit int32 // block range [first, limit)
}

// recorder keeps spans in memory for the traced run. A nil recorder
// records nothing, which is how untraced runs skip tracing.
type recorder struct {
	origin time.Time
	limit  int // spans kept; later ones are counted in dropped

	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
	flights map[int32][]flight // by file
}

func newRecorder(limit int) *recorder {
	return &recorder{origin: time.Now(), limit: limit, flights: make(map[int32][]flight)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// beginClient registers a client request as in flight and returns its
// span id and start time.
func (r *recorder) beginClient(kind spanKind, f blockdev.FileID, off blockdev.BlockNo, n int32) (int64, int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.flights[int32(f)] = append(r.flights[int32(f)], flight{id: id, kind: kind, first: int32(off), limit: int32(off) + n})
	r.mu.Unlock()
	return id, r.now()
}

// endClient retires a client request and records its span.
func (r *recorder) endClient(id, start int64, kind spanKind, node int, f blockdev.FileID, off blockdev.BlockNo, n int32) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	fl := r.flights[int32(f)]
	for i := range fl {
		if fl[i].id == id {
			fl[i] = fl[len(fl)-1]
			fl = fl[:len(fl)-1]
			break
		}
	}
	if len(fl) == 0 {
		delete(r.flights, int32(f))
	} else {
		r.flights[int32(f)] = fl
	}
	r.add(span{ID: id, Req: id, Kind: kind, Node: node, File: int32(f), Block: int32(off), Count: n, Start: start, End: end})
	r.mu.Unlock()
}

// link finds the in-flight client request that covers a child span
// about to start: the earliest-registered one of the matching kind
// whose block range contains [off, off+n). 0 means none does.
func (r *recorder) link(kind spanKind, f blockdev.FileID, off blockdev.BlockNo, n int32) int64 {
	want := clientKindFor[kind]
	r.mu.Lock()
	defer r.mu.Unlock()
	var best int64
	for _, fl := range r.flights[int32(f)] {
		if fl.kind != want {
			continue
		}
		if want != spClientClose && (int32(off) < fl.first || int32(off)+n > fl.limit) {
			continue
		}
		if best == 0 || fl.id < best {
			best = fl.id
		}
	}
	return best
}

// child records a store or peer span linked to parent (0 = none).
func (r *recorder) child(kind spanKind, node int, f blockdev.FileID, off blockdev.BlockNo, n int32, parent, start, end int64) {
	r.mu.Lock()
	r.nextID++
	r.add(span{
		ID: r.nextID, Parent: parent, Req: parent, Kind: kind, Node: node,
		File: int32(f), Block: int32(off), Count: n, Start: start, End: end,
		Prefetch: kind == spStoreRead && parent == 0,
	})
	r.mu.Unlock()
}

// add appends a span; r.mu is held.
func (r *recorder) add(s span) {
	if len(r.spans) >= r.limit {
		r.dropped++
		return
	}
	s.Name = spanNames[s.Kind]
	r.spans = append(r.spans, s)
}

// spanStats is what the traced run derives from its spans.
type spanStats struct {
	selfUs map[spanKind][]float64 // client self time per client kind
	// attribution compares, over client reads, self time plus the
	// union of linked child intervals against the client read time.
	// Children that stick out of their parent (a wrong link) make the
	// sum exceed the parent time.
	readUs, readSelfPlusChildUs float64
	storeReads, demandReads     int
	kept                        int
	dropped                     int64
}

// attributionErr is |(self + children) - client| / client over reads.
func (s spanStats) attributionErr() float64 {
	if s.readUs == 0 {
		return 0
	}
	d := s.readSelfPlusChildUs - s.readUs
	if d < 0 {
		d = -d
	}
	return d / s.readUs
}

// analyze computes client self times: a client span's duration minus
// the time its linked children cover.
func (r *recorder) analyze() spanStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := spanStats{selfUs: map[spanKind][]float64{}, kept: len(r.spans), dropped: r.dropped}
	kids := make(map[int64][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
		if s.Kind == spStoreRead {
			st.storeReads++
			if !s.Prefetch {
				st.demandReads++
			}
		}
	}
	for _, s := range r.spans {
		if s.Kind > spClientClose {
			continue
		}
		iv := kids[s.ID]
		covered := unionLen(iv, s.Start, s.End)
		dur := s.End - s.Start
		self := float64(dur-covered) / 1e3
		st.selfUs[s.Kind] = append(st.selfUs[s.Kind], self)
		if s.Kind == spClientRead {
			st.readUs += float64(dur) / 1e3
			st.readSelfPlusChildUs += self + float64(unionLen(iv, minStart(iv, s.Start), maxEnd(iv, s.End)))/1e3
		}
	}
	return st
}

// unionLen is the length of the union of intervals, clipped to
// [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, v := range c {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

func minStart(iv [][2]int64, lo int64) int64 {
	for _, v := range iv {
		lo = min(lo, v[0])
	}
	return lo
}

func maxEnd(iv [][2]int64, hi int64) int64 {
	for _, v := range iv {
		hi = max(hi, v[1])
	}
	return hi
}

// writeSpans writes the kept spans as JSON lines under dir.
func (r *recorder) writeSpans(dir, name string) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
