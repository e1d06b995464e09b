// Command perfbench is securecache's end-to-end benchmark. It boots n
// kvnode processes behind one kvfront process (both built from the tree
// under test), preloads the key space, drives the cluster from this
// separate process with an open-loop generator, checks every value that
// comes back, and prints one JSON line of metrics. See README.md for the
// workloads, the metrics and the layer map.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	perfbench --workload read-hot --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"securecache/internal/core"
	"securecache/internal/guard"
	"securecache/internal/kvstore"
	"securecache/internal/partition"
	"securecache/internal/workload"
)

// Topology: the paper's provisioning rule c* = ceil(n·k + 1) gives 11
// for n = 8 and k = 1.2.
const (
	nodes         = 8
	replication   = 3
	kParam        = 1.2
	writeQuorum   = 2
	partitionSeed = 0x5ec2e7ca11ab1e
	keySpace      = 100_000
	attackX       = keySpace/10 + 1
	pipelineDepth = 64

	setupReps   = 3     // setup_s is the median of this many boots+preloads
	maxErrFrac  = 0.001 // a rate rung fails above this error fraction
	ladderRungs = 11    // most rate rungs after the reference phase
	ladderStep  = 1.5   // coarse rung ratio; bisection halves it in log space
	ladderStop  = 1.03  // the search ends once a failing rate is this close above a passing one
	refTries    = 3     // reference phases tried before the latency figures are declared invalid
	warmup      = time.Second
)

func cstar() int {
	return core.Params{Nodes: nodes, Replication: replication, Items: keySpace, KOverride: kParam}.RequiredCacheSize()
}

// spec is one workload: a traffic mix against a cluster configuration.
type spec struct {
	name      string
	dist      func() workload.Distribution
	valueSize int
	setFrac   float64
	cacheSize int // kvfront -cache-size
	dataDir   bool
	refRate   float64       // ops/s at which the latency metrics are taken
	limit     time.Duration // p99 limit of the max-rate search
	nodeFlags []string
}

// lagLimit bounds the p99 of how late the generator releases requests.
// Latency is timed from the scheduled send time, so past it the
// generator's own lateness would take over half the latency limit: the
// latency of a reference phase past it is invalid, and a rung past it
// fails.
func (s *spec) lagLimit() time.Duration { return s.limit / 2 }

var specs = []*spec{
	{name: "read-hot", dist: zipfDist(1.2), valueSize: 128, cacheSize: keySpace / 10,
		refRate: 5000, limit: 5 * time.Millisecond},
	{name: "attack", dist: adversarialDist, valueSize: 128, cacheSize: cstar(),
		refRate: 2000, limit: 5 * time.Millisecond},
	{name: "write-mix", dist: uniformDist, valueSize: 1024, setFrac: 0.5, cacheSize: cstar(), dataDir: true,
		refRate: 1500, limit: 20 * time.Millisecond, nodeFlags: []string{"-wal-sync-interval", "500ms"}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the run's figures and its verdict.
type report struct {
	result
	problems []string
}

// put records a metric BENCHMARK.json gates and prints it.
func (r *report) put(name string, v float64, unit string, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	show(name, v, unit, note)
}

// show prints a metric in the report without putting it in the result:
// the figures that are not gated (see README.md) appear this way.
func show(name string, v float64, unit string, note string) {
	fmt.Printf("metric %-28s %14.4f %-7s %s\n", name, v, unit, note)
}

func (r *report) problem(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	fmt.Println("CHECK FAILED:", msg)
	r.problems = append(r.problems, msg)
}

func (r *report) count(p *phase) {
	r.Attempted += p.attempted()
	r.Failed += p.bad()
}

// live is the cluster the watchdog must stop if the run overruns.
var (
	liveMu sync.Mutex
	live   *cluster
)

func setLive(c *cluster) {
	liveMu.Lock()
	live = c
	liveMu.Unlock()
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: read-hot | attack | write-mix")
		seed      = flag.Uint64("seed", 1, "input seed: keys, op mix and values")
		seconds   = flag.Int("seconds", 12, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		bin       = flag.String("bin", ".bench_build/bin", "directory holding the kvnode and kvfront binaries")
		work      = flag.String("work", ".bench_build/perfbench", "scratch directory for logs, data and span files")
		frontArgs = flag.String("front-args", "", "extra kvfront flags, space separated (layer-isolation checks)")
		nodeArgs  = flag.String("node-args", "", "extra kvnode flags, space separated (layer-isolation checks)")
	)
	flag.Parse()
	var s *spec
	for _, sp := range specs {
		if sp.name == *name {
			s = sp
		}
	}
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload read-hot|attack|write-mix, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	s.nodeFlags = append(s.nodeFlags, strings.Fields(*nodeArgs)...)
	extraFront = strings.Fields(*frontArgs)
	// The frontend gets the host; the n backends share it, so each gets
	// its share, as a container CPU quota would give it.
	frontProcs, nodeProcs = runtime.NumCPU(), max(1, runtime.NumCPU()/nodes)

	// The generator never takes more CPUs than the host has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))

	// A run must end within 180 s including run.sh's (cached) build.
	watchdog := time.AfterFunc(160*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 160 s, aborting")
		liveMu.Lock()
		if live != nil {
			live.stopAndClean()
		}
		os.Exit(3)
	})
	r, err := run(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.Correct = len(r.problems) == 0
	out, err := json.Marshal(r.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.Correct {
		os.Exit(1)
	}
}

var (
	extraFront            []string
	frontProcs, nodeProcs int // GOMAXPROCS of kvfront and of each kvnode
)

func hostShape() {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("host: num_cpu=%d gomaxprocs_generator=%d gomaxprocs_kvfront=%d gomaxprocs_kvnode=%d go=%s kernel=%s generator=separate process, same host, loopback TCP, %d pipelined conns (depth %d) to kvfront; %d server processes\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), frontProcs, nodeProcs, runtime.Version(),
		strings.TrimSpace(string(kernel)), runtime.GOMAXPROCS(0), pipelineDepth, nodes+1)
}

func run(s *spec, seed uint64, seconds time.Duration, traced bool, bin, work string) (*report, error) {
	r := &report{result: result{Metrics: map[string]metric{}}}
	hostShape()
	fmt.Printf("topology: n=%d d=%d partitioner=hash k=%.1f c*=%d kvfront_cache=lfu/%d W=%d m=%d value=%dB ref_rate=%.0f/s p99_limit=%v mix=%.0f%% SET\n",
		nodes, replication, kParam, cstar(), s.cacheSize, writeQuorum, keySpace, s.valueSize, s.refRate, s.limit, s.setFrac*100)

	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return nil, err
	}
	g := newGen(s, seed)
	reps := setupReps
	if traced {
		reps = 1 // set-up time is an end-to-end figure
	}
	var c *cluster
	var setups []float64
	for i := 0; i < reps; i++ {
		if c != nil {
			g.disconnect()
			c.stopAndClean()
		}
		c = newCluster(s, dir, bin)
		setLive(c)
		t0 := time.Now()
		if err := c.boot(); err != nil {
			c.stopAndClean()
			return nil, err
		}
		g.connect(c.front.addr)
		if _, err := g.preloadAll(c.nodeAddrs()); err != nil {
			g.disconnect()
			c.stopAndClean()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		g.disconnect()
		c.stopAndClean()
		setLive(nil)
	}()
	fmt.Printf("setup: %d boot+preload runs: %s s\n", len(setups), fmtFloats(setups))

	w := g.run(s.refRate, warmup, nil)
	r.count(w)
	if traced {
		if err := tracedRun(r, s, g, c, seconds, work); err != nil {
			return nil, err
		}
	} else {
		r.put("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
		if err := measure(r, s, g, c, seconds); err != nil {
			return nil, err
		}
	}
	if s.setFrac > 0 {
		if err := audit(r, s, g, c); err != nil {
			return nil, err
		}
		if !traced {
			if err := recovery(r, g, c); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range g.errors {
		fmt.Println("first failures:", e)
	}
	if w.wrong.Load() > 0 {
		r.problem("%d wrong values during warm-up", w.wrong.Load())
	}
	return r, nil
}

// window is one measured stretch: the phase plus server-side deltas.
type window struct {
	p          *phase
	backends   []float64 // requests_total delta per kvnode
	backShed   float64
	front      map[string]float64
	serverCPU  float64 // seconds, all server processes
	frontCPU   float64
	genCPU     float64
	normMax    float64
	backendCPU float64
}

var frontCounters = []string{"requests_total", "cache_hits_total", "cache_misses_total", "coalesced_misses_total",
	"retries_total", "shed_total", "read_repair_total", "hints_queued_total", "backend_errors_total"}

// measured runs one phase at rate and reads the server counters around it.
func measured(g *gen, c *cluster, rate float64, dur time.Duration, spans *spanLog) (*window, error) {
	b0, err := counters(c.nodeAddrs(), "requests_total", "shed_total")
	if err != nil {
		return nil, err
	}
	f0, err := counters([]string{c.front.addr}, frontCounters...)
	if err != nil {
		return nil, err
	}
	cpuF0, err := cpuOf([]*proc{c.front})
	if err != nil {
		return nil, err
	}
	cpuB0, err := cpuOf(c.nodes)
	if err != nil {
		return nil, err
	}
	gen0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	p := g.run(rate, dur, spans)
	w := &window{p: p, front: map[string]float64{}}
	gen1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	cpuF1, err := cpuOf([]*proc{c.front})
	if err != nil {
		return nil, err
	}
	cpuB1, err := cpuOf(c.nodes)
	if err != nil {
		return nil, err
	}
	b1, err := counters(c.nodeAddrs(), "requests_total", "shed_total")
	if err != nil {
		return nil, err
	}
	f1, err := counters([]string{c.front.addr}, frontCounters...)
	if err != nil {
		return nil, err
	}
	w.genCPU = gen1 - gen0
	w.frontCPU = cpuF1 - cpuF0
	w.backendCPU = cpuB1 - cpuB0
	w.serverCPU = w.frontCPU + w.backendCPU
	var sum, hi float64
	for i := range b0 {
		d := float64(b1[i]["requests_total"] - b0[i]["requests_total"])
		w.backends = append(w.backends, d)
		w.backShed += float64(b1[i]["shed_total"] - b0[i]["shed_total"])
		sum += d
		hi = math.Max(hi, d)
	}
	if sum > 0 {
		w.normMax = hi / (sum / float64(len(b0)))
	}
	for _, n := range frontCounters {
		w.front[n] = float64(f1[0][n] - f0[0][n])
	}
	return w, nil
}

func (w *window) perKop(cpuSec float64) float64 {
	return cpuSec * 1000 / (float64(w.p.sent) / 1000)
}

func printRung(label string, p *phase, ok bool, why string) {
	all := p.allLat()
	wp99 := p.windowedP99(all)
	fmt.Printf("rung %-9s rate=%8.0f/s sent=%7d p50=%8.1fus p99=%9.1fus windowed_p99=%9.1fus errors=%d backlog=%d lag_p50=%6.1fus lag_p99=%7.1fus %s\n",
		label, p.rate, p.sent, us(quantile(all, 0.5)), us(quantile(all, 0.99)), us(wp99), p.bad(), p.backlog,
		us(quantile(p.lag, 0.5)), us(quantile(p.lag, 0.99)),
		map[bool]string{true: "PASS", false: "FAIL: " + why}[ok])
}

// onSchedule runs a phase at the reference rate until the generator
// keeps its schedule in one (lag p99 within lagLimit), at most refTries
// times, and reports whether it did. A phase in which the generator fell
// behind measured the generator, not the cluster: its latency is
// invalid. The first valid phase is the one reported, whatever its
// latency; if none is, the last one is, for its server-side figures only.
func onSchedule(r *report, s *spec, label string, run func() (*window, error)) (*window, bool, error) {
	var w *window
	for try := 1; try <= refTries; try++ {
		var err error
		if w, err = run(); err != nil {
			return nil, false, err
		}
		r.count(w.p)
		ok, why := w.p.verdict(s)
		printRung(fmt.Sprintf("%s.%d", label, try), w.p, ok, why)
		if w.p.wrong.Load() > 0 {
			r.problem("%d GETs returned a wrong or stale value in phase %s.%d", w.p.wrong.Load(), label, try)
		}
		lag := time.Duration(quantile(w.p.lag, 0.99))
		if lag <= s.lagLimit() {
			return w, true, nil
		}
		fmt.Printf("INVALID phase %s.%d: generator lag p99 %v > %v\n", label, try, lag, s.lagLimit())
	}
	return w, false, nil
}

// measure takes the reference-rate metrics and, if the generator kept
// its schedule, searches the rate ladder for max_rate_ops.
func measure(r *report, s *spec, g *gen, c *cluster, seconds time.Duration) error {
	w, valid, err := onSchedule(r, s, "ref", func() (*window, error) { return measured(g, c, s.refRate, seconds/2, nil) })
	if err != nil {
		return err
	}
	p := w.p
	lag := time.Duration(quantile(p.lag, 0.99))
	errFrac := float64(p.bad()) / float64(p.attempted())
	show("error_frac", errFrac, "ratio", fmt.Sprintf("%d of %d at the reference rate", p.bad(), p.attempted()))
	if valid {
		show("get_p50_us", us(quantile(p.getLat, 0.5)), "us", fmt.Sprintf("n=%d", len(p.getLat)))
		show("get_p99_us", us(p.windowedP99(p.getLat)), "us",
			fmt.Sprintf("n=%d; median of windowed p99s, whole-phase p99 %.1f us; includes generator lag, p99 %.1f us",
				len(p.getLat), us(quantile(p.getLat, 0.99)), us(int64(lag))))
		if len(p.setLat) > 0 {
			show("set_p50_us", us(quantile(p.setLat, 0.5)), "us", fmt.Sprintf("n=%d", len(p.setLat)))
			show("set_p99_us", us(p.windowedP99(p.setLat)), "us", fmt.Sprintf("n=%d; median of windowed p99s, whole-phase p99 %.1f us",
				len(p.setLat), us(quantile(p.setLat, 0.99))))
		}
	} else {
		fmt.Printf("INVALID: the generator fell behind its schedule in all %d reference phases (lag p99 > %v); "+
			"latency and max_rate_ops not reported, server-side figures from the last phase\n", refTries, s.lagLimit())
	}
	r.put("norm_max_load", w.normMax, "ratio", fmt.Sprintf("backend deltas %v", w.backends))
	eq10(r, s, w)
	r.put("server_cpu_ms_per_kop", w.perKop(w.serverCPU), "ms/kop", fmt.Sprintf("n=%d ops, %d processes", p.sent, nodes+1))
	show("gen.cpu_ms_per_kop", w.perKop(w.genCPU), "ms/kop", "the generator, apart from the servers")
	show("gen.lag_p99_us", us(int64(lag)), "us", fmt.Sprintf("how late the generator released requests (limit %v)", s.lagLimit()))

	// Peak RSS is read before the ladder, whose overloaded rungs would add
	// transient queue memory to it.
	var rss float64
	for _, pr := range c.procs() {
		m, err := peakRSSMB(pr.cmd.Process.Pid)
		if err != nil {
			return err
		}
		rss += m
	}
	r.put("server_rss_mb", rss, "MiB", fmt.Sprintf("VmHWM summed over %d processes after set-up and the reference phase", nodes+1))
	if valid {
		refOK, _ := p.verdict(s)
		maxRate(r, s, g, refOK, seconds/16)
	}
	return nil
}

// maxRate searches the rate ladder for max_rate_ops, starting from the
// reference phase's verdict: up from it in steps of ladderStep until a
// rung fails (down if it failed itself), then bisecting between the
// highest pass and the lowest failure.
func maxRate(r *report, s *spec, g *gen, refOK bool, rungDur time.Duration) {
	lo, hi := s.refRate, 0.0
	if !refOK {
		lo, hi = 0, s.refRate
	}
	for i := 0; i < ladderRungs; i++ {
		var rate float64
		switch {
		case hi == 0:
			rate = lo * ladderStep
		case lo == 0:
			rate = hi / ladderStep
		case hi/lo > ladderStop:
			rate = math.Sqrt(lo * hi)
		}
		if rate == 0 {
			break
		}
		time.Sleep(100 * time.Millisecond) // let the previous rung's garbage and sockets settle
		p := g.run(rate, rungDur, nil)
		r.count(p)
		ok, why := p.verdict(s)
		printRung(fmt.Sprint(i+1), p, ok, why)
		if p.wrong.Load() > 0 {
			r.problem("%d GETs returned a wrong or stale value at %.0f/s", p.wrong.Load(), rate)
		}
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	note := "no rung failed"
	if hi > 0 {
		note = fmt.Sprintf("lowest failing rate %.0f/s", hi)
	}
	show("max_rate_ops", lo, "ops/s", fmt.Sprintf("rungs of %v; %s", rungDur, note))
}

// eq10 prints the paper's bound beside the measured load and, on the
// attack, requires the guard's verdict on the load vector to be balanced.
func eq10(r *report, s *spec, w *window) {
	params := core.Params{Nodes: nodes, Replication: replication, Items: keySpace, CacheSize: cstar(), KOverride: kParam}
	gd, err := guard.New(guard.Config{Params: params, Smoothing: 1})
	if err != nil {
		r.problem("guard: %v", err)
		return
	}
	obs, err := gd.Observe(w.backends)
	if err != nil {
		r.problem("guard: %v", err)
		return
	}
	fmt.Printf("eq10: norm_max_load %.4f vs Eq. 10 bound %.4f at x=%d, c=%d (guard verdict %s)\n",
		w.normMax, params.BoundNormalizedMaxLoad(attackX), attackX, cstar(), obs.Verdict)
	if s.name == "attack" && obs.Verdict != guard.VerdictBalanced {
		r.problem("guard verdict under attack is %s, want balanced (norm_max_load %.4f)", obs.Verdict, w.normMax)
	}
}

// audit reads every key straight from its replicas: the newest version
// must be held by at least W of them, and it must be a write the
// generator made and that no acknowledged write superseded.
func audit(r *report, s *spec, g *gen, c *cluster) error {
	t0 := time.Now()
	part := partition.NewHash(nodes, replication, partitionSeed)
	cls := make([]*kvstore.Client, nodes)
	for i, a := range c.nodeAddrs() {
		cls[i] = kvstore.NewClientWithConfig(a, kvstore.ClientConfig{PipelineDepth: pipelineDepth})
		defer cls[i].Close()
	}
	var mu sync.Mutex
	bad := 0
	var firstErr error
	var wg sync.WaitGroup
	const workers = 64
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for k := wk; k < keySpace; k += workers {
				name := workload.KeyName(k)
				var best uint64
				var bestVal []byte
				found := false
				vers := make([]uint64, 0, replication)
				for _, n := range part.Group(kvstore.KeyID(name)) {
					v, ver, _, err := cls[n].GetV(name)
					if errors.Is(err, kvstore.ErrNotFound) {
						continue // absent: not a holder
					}
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("audit GetV %s on node %d: %w", name, n, err)
						}
						mu.Unlock()
						return
					}
					vers = append(vers, ver)
					if !found || ver > best {
						best, bestVal, found = ver, v, true
					}
				}
				holders := 0
				for _, v := range vers {
					if v == best {
						holders++
					}
				}
				seq, ok := parseSeq(bestVal, g.seed, k, s.valueSize)
				if !ok || holders < writeQuorum || !g.hist.auditOK(k, seq) {
					mu.Lock()
					if bad < 3 {
						fmt.Printf("audit: key %s newest version %d on %d of %d replicas (value ok=%v)\n", name, best, holders, replication, ok)
					}
					bad++
					mu.Unlock()
				}
			}
		}(wk)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	fmt.Printf("audit: %d keys read from all %d replicas in %.2f s, %d violations\n", keySpace, replication, time.Since(t0).Seconds(), bad)
	if bad > 0 {
		r.problem("replica audit: %d keys whose last acknowledged write is on fewer than W=%d replicas", bad, writeQuorum)
	}
	return nil
}

// recovery kills one kvnode with SIGKILL, restarts it on its data
// directory and times until it serves, from its WAL, the value it held
// for one of its keys before the kill.
func recovery(r *report, g *gen, c *cluster) error {
	part := partition.NewHash(nodes, replication, partitionSeed)
	node := c.nodes[0]
	name := ""
	for k := 0; k < keySpace && name == ""; k++ {
		for _, n := range part.Group(kvstore.KeyID(workload.KeyName(k))) {
			if n == 0 {
				name = workload.KeyName(k)
			}
		}
	}
	addr := node.addr
	cl := kvstore.NewClient(addr)
	defer cl.Close()
	want, err := cl.Get(name)
	if err != nil {
		return fmt.Errorf("recovery: reading %s from kvnode 0 before the kill: %w", name, err)
	}
	node.kill()
	t0 := time.Now()
	if err := node.start(filepath.Join(c.bin, "kvnode"), c.nodeEnv); err != nil {
		return err
	}
	deadline := t0.Add(30 * time.Second)
	for {
		v, err := cl.Get(name)
		if err == nil && string(v) == string(want) {
			break
		}
		if err == nil {
			r.problem("recovery: restarted node served a different value for %s", name)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery: node 0 not serving %s after 30 s: %v", name, err)
		}
		time.Sleep(time.Millisecond)
	}
	show("recovery_s", time.Since(t0).Seconds(), "s", fmt.Sprintf("kill -9 of kvnode 0, restart on its data dir, until it serves %s from the WAL", name))
	return nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
