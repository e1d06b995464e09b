// Command sechotpath benchmarks the frontend hot path end to end on an
// in-process cluster: it boots n backends plus a frontend, warms the
// cache with a zipf-skewed key stream, then measures read throughput,
// latency quantiles, and client-visible allocation cost. Three
// measurement groups feed BENCH_hotpath.json:
//
//   - the legacy scenario grid (in-process vs wire × locked vs sharded
//     cache), kept for continuity with earlier baselines;
//   - the pipeline sweep: wire GET throughput for every GOMAXPROCS ×
//     pipeline-depth combination (-gmp × -depths; depth 1 runs the
//     lockstep transport, deeper runs multiplex one shared pipelined
//     conn), which is where the "pipelined ≥ 3× lockstep" acceptance
//     number comes from;
//   - the saturation curve: ops/s vs concurrent clients at the deepest
//     window, so scalability regressions — not just single-op latency —
//     show up in the record.
//
//	sechotpath -n 3 -d 2 -m 2000 -ops 200000 -json BENCH_hotpath.json
//
// CI smoke mode compares the live depth-64 speedup against the recorded
// baseline and fails on a >20% regression (the ratio of pipelined to
// lockstep throughput is machine-independent where absolute ops/s is
// not):
//
//	sechotpath -check BENCH_hotpath.json -sweep-ops 30000
//
// Caveat for reading the locked-vs-sharded delta: sharding removes a
// global lock, so its win only appears with GOMAXPROCS > 1. On a single
// core the sharded variant pays the shard-mix overhead with nothing to
// parallelize and can come out slightly behind; the report includes
// gomaxprocs so the numbers are interpreted against the machine that
// produced them. The pipelined win is different in kind: it comes from
// writev syscall amortization and out-of-order completion, so it holds
// even at GOMAXPROCS=1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securecache/internal/cache"
	"securecache/internal/kvstore"
	"securecache/internal/stats"
	"securecache/internal/workload"
)

func main() {
	var (
		n          = flag.Int("n", 3, "number of backends")
		d          = flag.Int("d", 2, "replication factor")
		m          = flag.Int("m", 2000, "key-space size")
		ops        = flag.Int("ops", 200000, "timed GET ops per legacy scenario")
		workers    = flag.Int("workers", 2*runtime.GOMAXPROCS(0), "concurrent readers for the legacy scenarios")
		cacheKind  = flag.String("cache", "lfu", "cache policy under test")
		cacheSize  = flag.Int("cache-size", 0, "cache entries (0 = the whole key space)")
		zipfS      = flag.Float64("zipf-s", 1.01, "zipf exponent of the read stream")
		jsonPath   = flag.String("json", "", "also write the bench report to this file")
		gmpList    = flag.String("gmp", "", "GOMAXPROCS values for the pipeline sweep (default \"1,2,4,N\" with N = NumCPU, deduplicated)")
		depthList  = flag.String("depths", "1,8,64", "pipeline depths for the sweep (1 = lockstep transport)")
		sweepOps   = flag.Int("sweep-ops", 60000, "timed ops per sweep cell")
		sweepCall  = flag.Int("sweep-callers", 0, "caller goroutines per sweep cell (0 = max(2*gomaxprocs, depth))")
		satClients = flag.String("sat-clients", "1,2,4,8,16,32,64", "client counts for the saturation curve (empty = skip)")
		satOps     = flag.Int("sat-ops", 40000, "timed ops per saturation point")
		satDepth   = flag.Int("sat-depth", 64, "pipeline depth for the saturation curve")
		checkPath  = flag.String("check", "", "smoke mode: compare the live depth-64 speedup against this baseline JSON and exit 1 on a >20% regression")
	)
	flag.Parse()

	size := *cacheSize
	if size == 0 {
		size = *m
	}
	cfg := benchConfig{
		Nodes: *n, Replication: *d, Keys: *m, Ops: *ops,
		Workers: *workers, CacheKind: *cacheKind, CacheSize: size, ZipfS: *zipfS,
	}

	if *checkPath != "" {
		if err := runCheck(cfg, *checkPath, *sweepOps); err != nil {
			fmt.Fprintln(os.Stderr, "sechotpath:", err)
			os.Exit(1)
		}
		return
	}

	gmps, err := parseIntList(*gmpList, defaultGmpList())
	if err != nil {
		fatal(err)
	}
	depths, err := parseIntList(*depthList, nil)
	if err != nil {
		fatal(err)
	}
	clients, err := parseIntList(*satClients, nil)
	if err != nil {
		fatal(err)
	}

	report := map[string]interface{}{
		"nodes":       cfg.Nodes,
		"replication": cfg.Replication,
		"keys":        cfg.Keys,
		"ops":         cfg.Ops,
		"workers":     cfg.Workers,
		"cache":       cfg.CacheKind,
		"cache_size":  cfg.CacheSize,
		"zipf_s":      cfg.ZipfS,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
	}

	for _, sc := range []scenario{
		{"direct_locked", false, false},
		{"direct_sharded", false, true},
		{"wire_locked", true, false},
		{"wire_sharded", true, true},
	} {
		res, err := runScenario(cfg, sc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-15s %9.0f ops/s  p50≈%.0fµs p99≈%.0fµs  %d allocs/op %d B/op  hit-rate %.3f\n",
			sc.name, res.opsPerSec, res.p50, res.p99, res.allocsPerOp, res.bytesPerOp, res.hitRate)
		report[sc.name+"_ops_per_sec"] = res.opsPerSec
		report[sc.name+"_p50_micros"] = res.p50
		report[sc.name+"_p99_micros"] = res.p99
		report[sc.name+"_allocs_per_op"] = res.allocsPerOp
		report[sc.name+"_bytes_per_op"] = res.bytesPerOp
		report[sc.name+"_cache_hit_rate"] = res.hitRate
	}

	// Pipeline sweep: one warm cluster, fresh clients per cell,
	// GOMAXPROCS switched between cells. The server sizes its
	// per-connection worker pool when a conn upgrades to pipelined, so
	// each cell's fresh conn sees the cell's GOMAXPROCS.
	cl, err := bootCluster(cfg, true)
	if err != nil {
		fatal(err)
	}
	defer cl.close()

	prevGmp := runtime.GOMAXPROCS(0)
	var sweep []sweepEntry
	fmt.Println("pipeline sweep (wire GET):")
	for _, g := range gmps {
		runtime.GOMAXPROCS(g)
		for _, depth := range depths {
			// One caller per window slot keeps the pipe full at every
			// GOMAXPROCS: cooperative scheduling drains every runnable
			// caller between syscalls.
			callers := depth
			if callers < 2*g {
				callers = 2 * g
			}
			if *sweepCall > 0 {
				callers = *sweepCall
			}
			res, err := cl.measureWire(depth, callers, *sweepOps)
			if err != nil {
				runtime.GOMAXPROCS(prevGmp)
				fatal(err)
			}
			e := sweepEntry{
				Gomaxprocs: g, Depth: depth, Callers: callers,
				OpsPerSec: res.opsPerSec, P50Micros: res.p50, P99Micros: res.p99,
				WindowWaitMeanMicros: res.windowWaitMean,
			}
			sweep = append(sweep, e)
			fmt.Printf("  gmp=%d depth=%-3d callers=%-3d %9.0f ops/s  p50≈%.0fµs p99≈%.0fµs  window-wait≈%.0fµs\n",
				g, depth, callers, e.OpsPerSec, e.P50Micros, e.P99Micros, e.WindowWaitMeanMicros)
		}
	}
	runtime.GOMAXPROCS(prevGmp)
	report["pipeline_sweep"] = sweep
	if sp, at := speedup(sweep, 4); sp > 0 {
		report["pipeline_speedup_gmp4"] = sp
		fmt.Printf("pipelined speedup at gmp=%d: %.2fx (deepest window vs lockstep)\n", at, sp)
	}

	if len(clients) > 0 {
		g := gmps[len(gmps)-1]
		runtime.GOMAXPROCS(g)
		var curve []satEntry
		fmt.Printf("saturation curve (gmp=%d, depth=%d):\n", g, *satDepth)
		for _, c := range clients {
			lock, err := cl.measureWire(1, c, *satOps)
			if err != nil {
				runtime.GOMAXPROCS(prevGmp)
				fatal(err)
			}
			pipe, err := cl.measureWire(*satDepth, c, *satOps)
			if err != nil {
				runtime.GOMAXPROCS(prevGmp)
				fatal(err)
			}
			e := satEntry{Clients: c, LockstepOpsPerSec: lock.opsPerSec, PipelinedOpsPerSec: pipe.opsPerSec}
			curve = append(curve, e)
			fmt.Printf("  clients=%-3d lockstep %9.0f ops/s   pipelined %9.0f ops/s\n",
				c, e.LockstepOpsPerSec, e.PipelinedOpsPerSec)
		}
		runtime.GOMAXPROCS(prevGmp)
		report["saturation"] = curve
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sechotpath:", err)
	os.Exit(2)
}

// runCheck is the CI smoke gate: measure lockstep vs the deepest window
// at GOMAXPROCS=4 and require the live speedup to be within 20% of the
// baseline's recorded pipeline_speedup_gmp4. Comparing ratios instead
// of absolute ops/s makes the guard portable across runner hardware.
func runCheck(cfg benchConfig, baselinePath string, ops int) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline map[string]interface{}
	if err := json.Unmarshal(blob, &baseline); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	want, ok := baseline["pipeline_speedup_gmp4"].(float64)
	if !ok || want <= 0 {
		return fmt.Errorf("%s records no pipeline_speedup_gmp4 — re-baseline first", baselinePath)
	}

	cl, err := bootCluster(cfg, true)
	if err != nil {
		return err
	}
	defer cl.close()
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	lock, err := cl.measureWire(1, 8, ops)
	if err != nil {
		return err
	}
	pipe, err := cl.measureWire(64, 64, ops)
	if err != nil {
		return err
	}
	got := pipe.opsPerSec / lock.opsPerSec
	fmt.Printf("check: lockstep %.0f ops/s, depth-64 %.0f ops/s → speedup %.2fx (baseline %.2fx)\n",
		lock.opsPerSec, pipe.opsPerSec, got, want)
	if got < 0.8*want {
		return fmt.Errorf("depth-64 speedup %.2fx regressed >20%% below the recorded baseline %.2fx", got, want)
	}
	fmt.Println("check: OK")
	return nil
}

// speedup returns the deepest-window / lockstep throughput ratio at the
// sweep's GOMAXPROCS value closest to wantGmp (exact match preferred).
func speedup(sweep []sweepEntry, wantGmp int) (ratio float64, atGmp int) {
	best := -1
	for _, e := range sweep {
		if best == -1 || abs(e.Gomaxprocs-wantGmp) < abs(best-wantGmp) {
			best = e.Gomaxprocs
		}
	}
	if best == -1 {
		return 0, 0
	}
	var lockstep, deepest float64
	depth := 0
	for _, e := range sweep {
		if e.Gomaxprocs != best {
			continue
		}
		if e.Depth == 1 {
			lockstep = e.OpsPerSec
		}
		if e.Depth > depth {
			depth, deepest = e.Depth, e.OpsPerSec
		}
	}
	if lockstep <= 0 || depth <= 1 {
		return 0, 0
	}
	return deepest / lockstep, best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func defaultGmpList() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	out := make([]int, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

func parseIntList(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad list entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

type benchConfig struct {
	Nodes, Replication, Keys, Ops, Workers int
	CacheKind                              string
	CacheSize                              int
	ZipfS                                  float64
}

type scenario struct {
	name    string
	wire    bool // through loopback TCP vs in-process Frontend calls
	sharded bool // cache.Sharded vs the frontend's serializing mutex
}

type result struct {
	opsPerSec, p50, p99     float64
	allocsPerOp, bytesPerOp uint64
	hitRate                 float64
	windowWaitMean          float64 // µs per stalled send; 0 when the window never filled
}

type sweepEntry struct {
	Gomaxprocs           int     `json:"gomaxprocs"`
	Depth                int     `json:"depth"`
	Callers              int     `json:"callers"`
	OpsPerSec            float64 `json:"ops_per_sec"`
	P50Micros            float64 `json:"p50_micros"`
	P99Micros            float64 `json:"p99_micros"`
	WindowWaitMeanMicros float64 `json:"window_wait_mean_micros"`
}

type satEntry struct {
	Clients            int     `json:"clients"`
	LockstepOpsPerSec  float64 `json:"lockstep_ops_per_sec"`
	PipelinedOpsPerSec float64 `json:"pipelined_ops_per_sec"`
}

// cluster is a booted, preloaded, cache-warmed local cluster the sweep
// reuses across cells (fresh clients per cell, shared server state).
type cluster struct {
	cfg benchConfig
	lc  *kvstore.LocalCluster
}

func bootCluster(cfg benchConfig, sharded bool) (*cluster, error) {
	var (
		fc  cache.Cache
		err error
	)
	if sharded {
		fc, err = cache.NewSharded(cache.Kind(cfg.CacheKind), cfg.CacheSize, 0)
	} else {
		fc, err = cache.New(cache.Kind(cfg.CacheKind), cfg.CacheSize)
	}
	if err != nil {
		return nil, err
	}
	lc, err := kvstore.StartLocalCluster(kvstore.LocalConfig{
		Nodes:       cfg.Nodes,
		Replication: cfg.Replication,
		Cache:       fc,
		// The hot path is the subject; keep the repair machinery quiet.
		RepairInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	cl := &cluster{cfg: cfg, lc: lc}
	for k := 0; k < cfg.Keys; k++ {
		if err := lc.Frontend.Set(workload.KeyName(k), []byte("hotpath-payload")); err != nil {
			lc.Close()
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	// Warm pass: one untimed sweep so the cache holds the hot set.
	gen := workload.NewGenerator(workload.NewZipf(cfg.Keys, cfg.ZipfS), 1)
	for _, k := range gen.Batch(make([]int, 0, cfg.Keys), cfg.Keys) {
		if _, err := lc.Frontend.Get(workload.KeyName(k)); err != nil {
			lc.Close()
			return nil, err
		}
	}
	return cl, nil
}

func (cl *cluster) close() { cl.lc.Close() }

// measureWire times ops wire GETs against the frontend with callers
// concurrent goroutines. depth <= 1 gives every caller its own lockstep
// client (one in-flight frame per conn, the pre-pipelining transport);
// depth > 1 multiplexes every caller onto ONE shared pipelined client,
// the deployment shape the pipelined transport is built for.
func (cl *cluster) measureWire(depth, callers, ops int) (result, error) {
	perWorker := (ops + callers - 1) / callers
	streams := make([][]int, callers)
	for w := range streams {
		gen := workload.NewGenerator(workload.NewZipf(cl.cfg.Keys, cl.cfg.ZipfS), uint64(w)+1)
		streams[w] = gen.Batch(make([]int, 0, perWorker), perWorker)
	}

	var waitCount, waitMicros atomic.Int64
	var shared *kvstore.Client
	if depth > 1 {
		shared = kvstore.NewClientWithConfig(cl.lc.FrontendAddr, kvstore.ClientConfig{
			PipelineDepth: depth,
			OnWindowWait: func(w time.Duration) {
				waitCount.Add(1)
				waitMicros.Add(w.Microseconds())
			},
		})
		defer shared.Close()
	}
	getter := func() (func(string) error, func()) {
		if shared != nil {
			return func(key string) error {
				_, err := shared.Get(key)
				return err
			}, func() {}
		}
		c := kvstore.NewClient(cl.lc.FrontendAddr)
		return func(key string) error {
			_, err := c.Get(key)
			return err
		}, func() { c.Close() }
	}
	res, err := measure(streams, getter)
	if err != nil {
		return result{}, err
	}
	if n := waitCount.Load(); n > 0 {
		res.windowWaitMean = float64(waitMicros.Load()) / float64(n)
	}
	return res, nil
}

func runScenario(cfg benchConfig, sc scenario) (result, error) {
	cl, err := bootCluster(cfg, sc.sharded)
	if err != nil {
		return result{}, err
	}
	defer cl.close()
	statsBefore := cl.lc.Frontend.CacheStats()

	perWorker := (cfg.Ops + cfg.Workers - 1) / cfg.Workers
	streams := make([][]int, cfg.Workers)
	for w := range streams {
		gen := workload.NewGenerator(workload.NewZipf(cfg.Keys, cfg.ZipfS), uint64(w)+1)
		streams[w] = gen.Batch(make([]int, 0, perWorker), perWorker)
	}
	getter := func() (func(string) error, func()) {
		if !sc.wire {
			return func(key string) error {
				_, err := cl.lc.Frontend.Get(key)
				return err
			}, func() {}
		}
		c := kvstore.NewClient(cl.lc.FrontendAddr)
		return func(key string) error {
			_, err := c.Get(key)
			return err
		}, func() { c.Close() }
	}
	res, err := measure(streams, getter)
	if err != nil {
		return result{}, err
	}
	statsAfter := cl.lc.Frontend.CacheStats()
	if lookups := float64(statsAfter.Hits+statsAfter.Misses) - float64(statsBefore.Hits+statsBefore.Misses); lookups > 0 {
		res.hitRate = (float64(statsAfter.Hits) - float64(statsBefore.Hits)) / lookups
	}
	return res, nil
}

// measure drives one goroutine per stream through get and aggregates
// throughput, approximate quantiles (quantile-of-worker-quantiles, the
// same merge the kvload report uses), and client-side allocation cost.
func measure(streams [][]int, getter func() (func(string) error, func())) (result, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    int
		firstErr error
		p50      = stats.NewP2Quantile(0.50)
		p99      = stats.NewP2Quantile(0.99)
	)
	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for w := range streams {
		wg.Add(1)
		go func(keys []int) {
			defer wg.Done()
			get, done := getter()
			defer done()
			localP50 := stats.NewP2Quantile(0.50)
			localP99 := stats.NewP2Quantile(0.99)
			for _, k := range keys {
				t0 := time.Now()
				if err := get(workload.KeyName(k)); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				us := float64(time.Since(t0).Microseconds())
				localP50.Add(us)
				localP99.Add(us)
			}
			mu.Lock()
			total += len(keys)
			if localP50.N() > 0 {
				p50.Add(localP50.Value())
				p99.Add(localP99.Value())
			}
			mu.Unlock()
		}(streams[w])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	if firstErr != nil {
		return result{}, firstErr
	}
	return result{
		opsPerSec:   float64(total) / elapsed.Seconds(),
		p50:         p50.Value(),
		p99:         p99.Value(),
		allocsPerOp: (msAfter.Mallocs - msBefore.Mallocs) / uint64(total),
		bytesPerOp:  (msAfter.TotalAlloc - msBefore.TotalAlloc) / uint64(total),
	}, nil
}
