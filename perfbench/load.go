package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"securecache/internal/kvstore"
	"securecache/internal/partition"
	"securecache/internal/workload"
)

// gen is the open-loop load generator: one dispatcher releases requests
// on a fixed schedule, each request runs in its own goroutine over one of
// at most NumCPU pipelined connections to kvfront, and every latency is
// timed from the request's scheduled send time.
type gen struct {
	s       *spec
	seed    uint64
	base    time.Time
	clients []*kvstore.Client
	hist    *history // write-mix only
	preload []byte   // read-only workloads: value of key k is preload[k*size:(k+1)*size]

	keys  *workload.Generator
	coin  *rand.Rand
	opSeq atomic.Uint64

	winMu    sync.Mutex
	winWaits []int64 // in-flight window waits (ns) of the running phase
	retries  atomic.Int64

	mu     sync.Mutex
	errors []string // first few failures, for the report
}

type op struct {
	id  uint64
	key int
	set bool
}

func newGen(s *spec, seed uint64) *gen {
	g := &gen{s: s, seed: seed, base: time.Now()}
	g.keys = workload.NewGenerator(s.dist(), seed)
	g.coin = rand.New(rand.NewPCG(seed, 0x5e7))
	if s.setFrac == 0 {
		g.preload = make([]byte, 0, keySpace*s.valueSize)
		for k := 0; k < keySpace; k++ {
			g.preload = appendValue(g.preload, seed, k, 0, s.valueSize)
		}
	}
	return g
}

// connect opens GOMAXPROCS pipelined connections to the frontend and, on
// a writing workload, starts a fresh write history.
func (g *gen) connect(frontAddr string) {
	cfg := kvstore.ClientConfig{
		PipelineDepth: pipelineDepth,
		OnRetry:       func() { g.retries.Add(1) },
		OnWindowWait: func(d time.Duration) {
			g.winMu.Lock()
			g.winWaits = append(g.winWaits, int64(d))
			g.winMu.Unlock()
		},
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		g.clients = append(g.clients, kvstore.NewClientWithConfig(frontAddr, cfg))
	}
	if g.s.setFrac > 0 {
		g.hist = newHistory(keySpace)
	}
}

// valueOf is the preloaded value of key k on a read-only workload.
func (g *gen) valueOf(k int) []byte {
	return g.preload[k*g.s.valueSize : (k+1)*g.s.valueSize]
}

func (g *gen) disconnect() {
	for _, c := range g.clients {
		c.Close()
	}
	g.clients = nil
}

func (g *gen) now() int64 { return int64(time.Since(g.base)) }

func (g *gen) fail(format string, a ...any) {
	g.mu.Lock()
	if len(g.errors) < 5 {
		g.errors = append(g.errors, fmt.Sprintf(format, a...))
	}
	g.mu.Unlock()
}

func (g *gen) next() op {
	o := op{id: g.opSeq.Add(1), key: g.keys.Next()}
	o.set = g.s.setFrac > 0 && g.coin.Float64() < g.s.setFrac
	return o
}

// preloadChunk is how many keys one preload round writes before waiting:
// its d·chunk/n writes per node stay inside one connection's window.
const preloadChunk = 2048

// preloadAll writes every key to each of its d replicas directly, the
// way an operator bulk-loads a cluster whose secret partition seed it
// holds, and returns how long it took. Unversioned writes lose to every
// versioned write the frontend makes later.
func (g *gen) preloadAll(nodeAddrs []string) (time.Duration, error) {
	start := time.Now()
	part := partition.NewHash(nodes, replication, partitionSeed)
	batches := make([]*kvstore.Batch, len(nodeAddrs))
	for i, a := range nodeAddrs {
		cl := kvstore.NewClientWithConfig(a, kvstore.ClientConfig{PipelineDepth: 1024})
		defer cl.Close()
		batches[i] = cl.Batch(kvstore.BatchOptions{})
	}
	group := make([]int, 0, replication)
	for lo := 0; lo < keySpace; lo += preloadChunk {
		hi := min(lo+preloadChunk, keySpace)
		var seqs []uint32
		for k := lo; k < hi; k++ {
			name := workload.KeyName(k)
			var val []byte
			if g.hist != nil {
				seq := g.hist.begin(k, g.now())
				seqs = append(seqs, seq)
				val = appendValue(make([]byte, 0, g.s.valueSize), g.seed, k, seq, g.s.valueSize)
			} else {
				val = g.valueOf(k)
			}
			for _, n := range part.GroupAppend(group[:0], kvstore.KeyID(name)) {
				batches[n].Set(name, val)
			}
		}
		for _, b := range batches {
			if err := b.Flush(); err != nil {
				return 0, fmt.Errorf("preload: %w", err)
			}
		}
		if g.hist != nil {
			now := g.now()
			for k := lo; k < hi; k++ {
				g.hist.acked(k, seqs[k-lo], now)
			}
		}
	}
	return time.Since(start), nil
}

// phase is what one constant-rate stretch of the open loop measured.
type phase struct {
	rate     float64
	sent     int
	aborted  bool  // backlog reached maxOutstanding: the phase stopped early
	backlog  int64 // requests still unanswered when the schedule ended
	failed   atomic.Int64
	wrong    atomic.Int64
	lat      []int64 // by dispatch order; -1 = failed
	isSet    []bool
	getLat   []int64 // successful GETs, dispatch order (filled when the phase ends)
	setLat   []int64
	lag      []int64
	winWaits []int64
	retries  int64
	spans    *spanLog // traced phases only
	ops      []op     // traced phases only: the stream, for the in-process replay
}

// maxOutstanding caps the goroutines a phase may have in flight: past it
// the system is not keeping up and the phase is cut short as failed.
const maxOutstanding = 20000

// timerSlack makes the dispatcher's thread sleep to the microsecond; the
// default 50 µs slack, and the Go timer's millisecond rounding when the
// process is otherwise idle, would both show up as generator lag.
func timerSlack() {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0) // best effort: lag is measured either way
}

// run drives rate ops/s for dur and returns once every request has been
// answered.
func (g *gen) run(rate float64, dur time.Duration, spans *spanLog) *phase {
	n := int(rate * dur.Seconds())
	p := &phase{rate: rate, lat: make([]int64, n), isSet: make([]bool, n), lag: make([]int64, 0, n), spans: spans}
	g.winMu.Lock()
	g.winWaits = nil
	g.winMu.Unlock()
	retries0 := g.retries.Load()

	var wg sync.WaitGroup
	var outstanding atomic.Int64
	interval := float64(time.Second) / rate

	runtime.LockOSThread()
	timerSlack()
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; lag below records it
		}
		p.lag = append(p.lag, int64(time.Since(due)))
		if outstanding.Load() >= maxOutstanding {
			p.aborted = true
			break
		}
		o := g.next()
		if spans != nil {
			p.ops = append(p.ops, o)
		}
		p.isSet[i] = o.set
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, o op, due time.Time) {
			defer wg.Done()
			p.lat[i] = g.do(p, o, due)
			outstanding.Add(-1)
		}(i, o, due)
		p.sent++
	}
	runtime.UnlockOSThread()
	p.backlog = outstanding.Load()
	wg.Wait()

	g.winMu.Lock()
	p.winWaits = g.winWaits
	g.winMu.Unlock()
	p.retries = g.retries.Load() - retries0
	p.lat, p.isSet = p.lat[:p.sent], p.isSet[:p.sent]
	for i, l := range p.lat {
		switch {
		case l < 0:
		case p.isSet[i]:
			p.setLat = append(p.setLat, l)
		default:
			p.getLat = append(p.getLat, l)
		}
	}
	return p
}

// do performs one request, checks what came back and returns its latency
// from the scheduled send time, or -1 if it failed.
func (g *gen) do(p *phase, o op, due time.Time) int64 {
	c := g.clients[o.id%uint64(len(g.clients))]
	name := workload.KeyName(o.key)
	var t0 int64
	if p.spans != nil {
		t0 = g.now()
	}
	if o.set {
		seq := g.hist.begin(o.key, g.now())
		val := appendValue(make([]byte, 0, g.s.valueSize), g.seed, o.key, seq, g.s.valueSize)
		err := c.Set(name, val)
		lat := int64(time.Since(due))
		if err != nil {
			p.failed.Add(1)
			g.fail("SET %s: %v", name, err)
			return -1
		}
		g.hist.acked(o.key, seq, g.now())
		if p.spans != nil {
			p.spans.add(span{op: o.id, name: spanClientSet, start: t0, end: g.now()})
		}
		return lat
	}
	var floor int64
	if g.hist != nil {
		floor = g.hist.floor(o.key)
	}
	v, err := c.Get(name)
	lat := int64(time.Since(due))
	var end int64
	if p.spans != nil {
		end = g.now()
	}
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		p.wrong.Add(1)
		g.fail("GET %s: not found", name)
		return -1
	case err != nil:
		p.failed.Add(1)
		g.fail("GET %s: %v", name, err)
		return -1
	case g.hist == nil:
		if string(v) != string(g.valueOf(o.key)) {
			p.wrong.Add(1)
			g.fail("GET %s: value differs from the preloaded one", name)
			return -1
		}
	default:
		seq, ok := parseSeq(v, g.seed, o.key, g.s.valueSize)
		if !ok {
			p.wrong.Add(1)
			g.fail("GET %s: value was never written by this run", name)
			return -1
		}
		if err := g.hist.fresh(o.key, seq, floor); err != nil {
			p.wrong.Add(1)
			g.fail("GET %s: stale: %v", name, err)
			return -1
		}
	}
	if p.spans != nil {
		p.spans.add(span{op: o.id, name: spanClientGet, start: t0, end: end})
	}
	return lat
}

// quantile returns the nearest-rank q-quantile of xs without reordering
// xs.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]int64(nil), xs...)
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	i := int(math.Ceil(q*float64(len(ys)))) - 1
	return ys[min(max(i, 0), len(ys)-1)]
}

func (p *phase) attempted() int64 { return int64(p.sent) }
func (p *phase) bad() int64       { return p.failed.Load() + p.wrong.Load() }

// allLat returns every successful latency, the population the latency
// limit applies to.
func (p *phase) allLat() []int64 {
	out := make([]int64, 0, len(p.getLat)+len(p.setLat))
	return append(append(out, p.getLat...), p.setLat...)
}

// minWindow is the fewest samples a window's p99 rests on: ten beyond it.
const minWindow = 1000

// windowedP99 cuts xs (in dispatch order) into consecutive windows of at
// least minWindow samples and an eighth of a second of schedule, and
// returns the median of the windows' p99s. A host stall spoils the p99 of
// the window it falls in, not the whole phase, while a latency rise from
// load shows in every window.
func (p *phase) windowedP99(xs []int64) int64 {
	size := max(minWindow, int(p.rate/8))
	if len(xs) < 2*size {
		return quantile(xs, 0.99)
	}
	var p99s []int64
	for lo := 0; lo+size <= len(xs); lo += size {
		hi := lo + size
		if len(xs)-hi < size {
			hi = len(xs) // the remainder joins the last window
		}
		p99s = append(p99s, quantile(xs[lo:hi], 0.99))
	}
	return quantile(p99s, 0.5)
}

// verdict applies the max-rate criteria to one rung.
func (p *phase) verdict(s *spec) (ok bool, why string) {
	all := make([]int64, 0, len(p.lat))
	for _, l := range p.lat {
		if l >= 0 {
			all = append(all, l)
		}
	}
	p99 := time.Duration(p.windowedP99(all))
	lag := time.Duration(quantile(p.lag, 0.99))
	errFrac := float64(p.bad()) / float64(max(p.attempted(), 1))
	// Little's law: with every request inside the latency limit at most
	// rate·limit can be unanswered when the schedule ends.
	backlogCap := int64(p.rate*s.limit.Seconds()) + 16
	switch {
	case p.aborted || p.backlog > backlogCap:
		return false, fmt.Sprintf("backlog %d > %d", p.backlog, backlogCap)
	case errFrac > maxErrFrac:
		return false, fmt.Sprintf("error_frac %.4f", errFrac)
	case lag > s.lagLimit():
		return false, fmt.Sprintf("generator behind schedule: lag p99 %v", lag)
	case p99 > s.limit:
		return false, fmt.Sprintf("windowed p99 %v > %v", p99, s.limit)
	}
	return true, "ok"
}

func zipfDist(s float64) func() workload.Distribution {
	return func() workload.Distribution { return workload.NewZipf(keySpace, s) }
}

func adversarialDist() workload.Distribution {
	return workload.NewAdversarial(keySpace, attackX, 0)
}

func uniformDist() workload.Distribution { return workload.NewUniform(keySpace, keySpace) }
