package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"securecache/internal/cache"
	"securecache/internal/kvstore"
	"securecache/internal/partition"
	"securecache/internal/proto"
	"securecache/internal/wal"
	"securecache/internal/workload"
)

// Span names. The layer of a span is the part before the dot.
const (
	spanClientGet uint8 = iota
	spanClientSet
	spanReplay
	spanProtoEncode
	spanProtoDecode
	spanPartition
	spanCacheGet
	spanCachePut
	spanCacheRemove
	spanStoreGet
	spanStoreSet
	spanWALAppend
	spanBackendGet
	spanFrontendGet
	spanFrontendSet
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.get", "client.set", "replay.op", "proto.encode", "proto.decode", "partition.group",
	"cache.get", "cache.put", "cache.remove", "store.get", "store.set", "wal.append", "backend.wire_get",
	"frontend.get", "frontend.set",
}

var layers = []string{"client", "proto", "partition", "cache", "store", "wal", "backend", "frontend", "replay"}

// span is one timed call into a layer's public API, in nanoseconds on the
// generator's clock. id is the span's index+1 in the log; parent 0 marks
// a root.
type span struct {
	parent uint32
	name   uint8
	op     uint64
	start  int64
	end    int64
}

// spanLog keeps spans in a preallocated array so that recording never
// allocates; spans past its capacity are counted and dropped.
type spanLog struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, capacity)} }

// add records s and returns its id (0 when dropped).
func (l *spanLog) add(s span) uint32 {
	i := l.n.Add(1) - 1
	if int(i) >= len(l.spans) {
		l.dropped.Add(1)
		return 0
	}
	l.spans[i] = s
	return uint32(i + 1)
}

func (l *spanLog) all() []span { return l.spans[:min(int(l.n.Load()), len(l.spans))] }

// write dumps the spans as CSV.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	for i, s := range l.all() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i+1, s.parent, s.op, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts their children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	all := l.all()
	child := make([]int64, len(all))
	for _, s := range all {
		if s.parent > 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range all {
		layer, _, _ := strings.Cut(spanNames[s.name], ".")
		out[layer] += float64(s.end - s.start - child[i])
	}
	return out
}

// durations returns the durations (ns) of every span called name.
func (l *spanLog) durations(name uint8) []int64 {
	var out []int64
	for _, s := range l.all() {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// replayOps is how many ops of the traced stream are replayed in process.
const replayOps = 4000

// tracedRun measures the reference rate once without and once with spans
// around the client calls, reads the server-side counters around the
// traced stretch, then replays the same op stream in process against each
// layer's public API.
func tracedRun(r *report, s *spec, g *gen, c *cluster, seconds time.Duration, work string) error {
	half := seconds / 2
	pw, plainValid, err := onSchedule(r, s, "untraced", func() (*window, error) { return &window{p: g.run(s.refRate, half, nil)}, nil })
	if err != nil {
		return err
	}
	plain := pw.p
	var spans *spanLog
	w, valid, err := onSchedule(r, s, "traced", func() (*window, error) {
		spans = newSpanLog(int(s.refRate*half.Seconds())*2 + replayOps*16 + replaySample*3)
		return measured(g, c, s.refRate, half, spans)
	})
	if err != nil {
		return err
	}
	p := w.p
	untracedP50 := us(quantile(plain.getLat, 0.5))
	tracedP50 := us(quantile(p.getLat, 0.5))
	fmt.Printf("traced get_p50_us %.1f vs untraced %.1f (n=%d, %d)\n", tracedP50, untracedP50, len(p.getLat), len(plain.getLat))
	overheadNote := ""
	if !plainValid || !valid {
		overheadNote = "INVALID: the generator fell behind its schedule in one of the halves"
		fmt.Println(overheadNote)
	}

	rp, err := replay(s, g, p.ops, spans, work)
	if err != nil {
		return err
	}
	path, err := filepath.Abs(filepath.Join(work, "spans-"+s.name+".csv"))
	if err != nil {
		return err
	}
	if err := spans.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s (%d dropped)\n", len(spans.all()), path, spans.dropped.Load())

	ops := float64(p.sent)
	put := func(name string, v float64, unit string) { r.put(name, v, unit, "") }
	med := func(name uint8) float64 { return float64(quantile(spans.durations(name), 0.5)) }

	put("proto.req_encode_ns", med(spanProtoEncode), "ns")
	put("proto.resp_decode_ns", med(spanProtoDecode), "ns")
	put("proto.allocs_per_op", rp.protoAllocs, "allocs/op")
	put("proto.wire_bytes_per_op", rp.wireBytes, "B/op")
	put("client.window_wait_p99_us", us(quantile(p.winWaits, 0.99)), "us")
	put("client.retries", float64(p.retries), "count")
	hits, misses := w.front["cache_hits_total"], w.front["cache_misses_total"]
	put("cache.hit_ratio", hits/max(hits+misses, 1), "ratio")
	put("cache.get_ns", med(spanCacheGet), "ns")
	put("cache.put_ns", med(spanCachePut), "ns")
	put("cache.evictions_per_kop", rp.evictionsPerKop, "count/kop")
	put("partition.group_ns", med(spanPartition), "ns")
	put("backend.wire_get_us", med(spanBackendGet)/1e3, "us")
	var reqMax, reqSum float64
	for _, d := range w.backends {
		reqMax = max(reqMax, d)
		reqSum += d
	}
	put("backend.reqs_max", reqMax, "count")
	put("backend.reqs_mean", reqSum/float64(len(w.backends)), "count")
	put("backend.shed", w.backShed, "count")
	put("backend.cpu_ms_per_kop", w.perKop(w.backendCPU), "ms/kop")
	put("store.get_ns", med(spanStoreGet), "ns")
	put("store.get_allocs", rp.storeAllocs, "allocs/op")
	put("store.set_ns", med(spanStoreSet), "ns")
	put("store.bytes_per_key", rp.bytesPerKey, "B/key")
	put("wal.append_ns", med(spanWALAppend), "ns")
	put("wal.write_amp", rp.walAmp, "ratio")
	put("wal.segments_rotated", rp.walRotations, "count")
	put("wal.replay_keys_per_s", rp.walReplay, "keys/s")
	put("frontend.direct_get_ns", med(spanFrontendGet), "ns")
	put("frontend.direct_set_ns", med(spanFrontendSet), "ns")
	put("frontend.backend_reqs_per_op", reqSum/max(w.front["requests_total"], 1), "ratio")
	put("frontend.coalesced_frac", w.front["coalesced_misses_total"]/max(misses, 1), "ratio")
	put("frontend.read_repairs_per_kop", w.front["read_repair_total"]*1000/ops, "count/kop")
	put("frontend.retries", w.front["retries_total"], "count")
	put("frontend.shed", w.front["shed_total"], "count")
	put("frontend.hints_queued", w.front["hints_queued_total"], "count")
	put("frontend.cpu_ms_per_kop", w.perKop(w.frontCPU), "ms/kop")
	put("gen.lag_p99_us", us(quantile(p.lag, 0.99)), "us")
	put("gen.cpu_ms_per_kop", w.perKop(w.genCPU), "ms/kop")
	r.put("trace.overhead_get_p50_us", tracedP50-untracedP50, "us", overheadNote)

	self := spans.selfTimes()
	var total float64
	for _, v := range self {
		total += v
	}
	for _, l := range layers {
		put(l+".self_frac", self[l]/total, "ratio")
	}
	return nil
}

type replayResult struct {
	protoAllocs     float64
	wireBytes       float64
	storeAllocs     float64
	bytesPerKey     float64
	evictionsPerKop float64
	walAmp          float64
	walRotations    float64
	walReplay       float64
}

// replaySample is how many preload writes the in-process Store and WAL
// take before the replayed ops, enough for bytes_per_key to be stable.
const replaySample = 20000

// cacheWarmOps caps the ops that fill the replay's cache before the
// replayed ones.
const cacheWarmOps = 20 * keySpace

// replay runs ops again in this process, one layer call at a time, each
// wrapped in a span under a per-op root span. The preload writes of the
// touched keys (and a sample of the rest) come first, as in the cluster,
// and the cache is filled from the workload's key distribution, as the
// frontend's is by the time the traced half runs.
func replay(s *spec, g *gen, ops []op, spans *spanLog, work string) (*replayResult, error) {
	if len(ops) > replayOps {
		ops = ops[:replayOps]
	}
	rr := &replayResult{}
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("replay-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	part := partition.NewHash(nodes, replication, partitionSeed)
	fc, err := cache.NewSharded(cache.KindLFU, s.cacheSize, 0)
	if err != nil {
		return nil, err
	}
	store := kvstore.NewStore()
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{}, func(wal.Record) error { return nil })
	if err != nil {
		return nil, err
	}
	defer log.Close() // error paths only: the success path closes and checks it below

	// One loopback Backend for wire GETs, and a direct Frontend over eight
	// more, configured like the cluster's.
	lb, lbAddr, err := kvstore.StartBackend(nodes, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	lbc := kvstore.NewClientWithConfig(lbAddr, kvstore.ClientConfig{PipelineDepth: pipelineDepth})
	defer lbc.Close()
	addrs := make([]string, nodes)
	for i := range addrs {
		b, a, err := kvstore.StartBackend(i, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer b.Close()
		addrs[i] = a
	}
	frontCache, err := cache.NewSharded(cache.KindLFU, s.cacheSize, 0)
	if err != nil {
		return nil, err
	}
	front, err := kvstore.NewFrontend(kvstore.FrontendConfig{
		BackendAddrs: addrs, Replication: replication, PartitionSeed: partitionSeed,
		Cache: frontCache, WriteQuorum: writeQuorum,
	})
	if err != nil {
		return nil, err
	}
	defer front.Close()

	value := func(key int, seq uint32) []byte {
		if g.preload != nil {
			return g.valueOf(key)
		}
		return appendValue(make([]byte, 0, s.valueSize), g.seed, key, seq, s.valueSize)
	}
	timed := func(parent uint32, o uint64, name uint8, f func()) {
		t0 := g.now()
		f()
		spans.add(span{parent: parent, name: name, op: o, start: t0, end: g.now()})
	}

	// Preload: every touched key, then a sample of untouched ones, in key
	// order. bytes_per_key is the live-heap growth of the Store it causes.
	touched := map[int]bool{}
	for _, o := range ops {
		touched[o.key] = true
	}
	var preload []int
	for k := 0; k < keySpace && len(preload) < replaySample; k++ {
		if touched[k] || len(preload) < replaySample-len(touched) {
			preload = append(preload, k)
		}
	}
	heap0 := liveHeap()
	for _, k := range preload {
		name, val := workload.KeyName(k), append([]byte(nil), value(k, 0)...)
		timed(0, uint64(1)<<63|uint64(k), spanStoreSet, func() { store.Set(name, val) })
	}
	rr.bytesPerKey = float64(int64(liveHeap())-int64(heap0)) / float64(len(preload))
	var walPayload int64
	for _, k := range preload {
		name, val := workload.KeyName(k), value(k, 0)
		o := uint64(1)<<63 | uint64(k)
		timed(0, o, spanWALAppend, func() { err = log.Append(name, val, 0, 1, false) })
		if err != nil {
			return nil, err
		}
		walPayload += int64(len(name) + len(val))
		lb.Store().Set(name, val)
		if touched[k] {
			timed(0, o, spanFrontendSet, func() { _, err = front.SetV(name, val) })
			if err != nil {
				return nil, err
			}
		}
	}

	warm := workload.NewGenerator(s.dist(), g.seed^0xca11)
	for i := 0; i < cacheWarmOps && fc.Len() < fc.Cap(); i++ {
		k := warm.Next()
		id := kvstore.KeyID(workload.KeyName(k))
		if _, hit := fc.Get(id); !hit {
			fc.Put(id, value(k, 0))
		}
	}
	fmt.Printf("replay: cache warmed to %d of %d entries\n", fc.Len(), fc.Cap())

	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = workload.KeyName(o.key)
	}
	var reqBuf, respBuf []byte
	var evictions int
	group := make([]int, 0, replication)
	for i, o := range ops {
		name := names[i]
		id := kvstore.KeyID(name)
		root := g.now()
		rid := spans.add(span{name: spanReplay, op: o.id})
		val := value(o.key, uint32(1_000_000+i))
		req := &proto.Request{Op: proto.OpGet, Key: name}
		if o.set {
			req = &proto.Request{Op: proto.OpSet, Key: name, Value: val}
		}
		timed(rid, o.id, spanProtoEncode, func() { reqBuf, _ = proto.AppendRequest(reqBuf[:0], req) })
		timed(rid, o.id, spanPartition, func() { group = part.GroupAppend(group[:0], id) })
		if o.set {
			timed(rid, o.id, spanCacheRemove, func() { fc.Remove(id) })
			timed(rid, o.id, spanStoreSet, func() { store.Set(name, val) })
			timed(rid, o.id, spanWALAppend, func() { err = log.Append(name, val, 0, uint64(2+i), false) })
			if err != nil {
				return nil, err
			}
			walPayload += int64(len(name) + len(val))
			timed(rid, o.id, spanFrontendSet, func() { _, err = front.SetV(name, val) })
		} else {
			var hit bool
			timed(rid, o.id, spanCacheGet, func() { _, hit = fc.Get(id) })
			if !hit {
				n0 := fc.Len()
				timed(rid, o.id, spanCachePut, func() { fc.Put(id, val) })
				// A miss inserts one key; any shortfall in growth was evicted.
				evictions += n0 + 1 - fc.Len()
			}
			timed(rid, o.id, spanStoreGet, func() { _, _ = store.Get(name) })
			timed(rid, o.id, spanBackendGet, func() { _, err = lbc.Get(name) })
			if err != nil {
				return nil, fmt.Errorf("replay: loopback GET %s: %w", name, err)
			}
			timed(rid, o.id, spanFrontendGet, func() { _, err = front.Get(name) })
		}
		if err != nil {
			return nil, fmt.Errorf("replay: frontend op on %s: %w", name, err)
		}
		resp := &proto.Response{Status: proto.StatusOK}
		if !o.set {
			resp.Payload = val
		}
		respBuf, _ = proto.AppendResponse(respBuf[:0], resp)
		timed(rid, o.id, spanProtoDecode, func() { _, err = proto.ReadResponse(bytes.NewReader(respBuf)) })
		if err != nil {
			return nil, err
		}
		rr.wireBytes += float64(len(reqBuf) + len(respBuf))
		if rid > 0 {
			spans.spans[rid-1].start, spans.spans[rid-1].end = root, g.now()
		}
	}
	rr.wireBytes /= float64(len(ops))
	rr.evictionsPerKop = float64(evictions) * 1000 / float64(len(ops))

	// Allocation counts come from untraced passes over the same ops; key
	// names, the request shell and the reader are made outside them.
	req := proto.Request{Op: proto.OpGet}
	rd := bytes.NewReader(nil)
	rr.protoAllocs = allocsPerOp(len(ops), func() {
		for _, n := range names {
			req.Key = n
			reqBuf, _ = proto.AppendRequest(reqBuf[:0], &req)
			rd.Reset(respBuf)
			_, _ = proto.ReadResponse(rd)
		}
	})
	rr.storeAllocs = allocsPerOp(len(ops), func() {
		for _, n := range names {
			_, _ = store.Get(n)
		}
	})

	// The WAL: bytes on disk per payload byte, then a timed reopen.
	st := log.Stats()
	rr.walRotations = float64(st.Rotations)
	if err := log.Sync(); err != nil {
		return nil, err
	}
	rr.walAmp = float64(dirBytes(filepath.Join(dir, "wal"))) / float64(walPayload)
	if err := log.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var replayed int
	relog, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{}, func(wal.Record) error { replayed++; return nil })
	if err != nil {
		return nil, err
	}
	rr.walReplay = float64(replayed) / time.Since(t0).Seconds()
	if err := relog.Close(); err != nil {
		return nil, err
	}
	return rr, nil
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func allocsPerOp(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
