package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"securecache/internal/faultnet"
	"securecache/internal/overload"
	"securecache/internal/proto"
)

// TestPipelineBasicRoundTrips: sanity for the pipelined transport —
// concurrent mixed ops against a real backend, all multiplexed on one
// conn, all correct, no goroutines left behind.
func TestPipelineBasicRoundTrips(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewClientWithConfig(addr, ClientConfig{PipelineDepth: 64})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("k-%d-%d", w, i)
				if err := c.Set(k, []byte(k)); err != nil {
					errs <- fmt.Errorf("set %s: %w", k, err)
					return
				}
				v, err := c.Get(k)
				if err != nil || string(v) != k {
					errs <- fmt.Errorf("get %s = %q, %v", k, v, err)
					return
				}
				if err := c.Del(k); err != nil {
					errs <- fmt.Errorf("del %s: %w", k, err)
					return
				}
				if _, err := c.Get(k); !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("get deleted %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPipelineConnDeathFailsAllPending: a server that dies with a full
// window of frames in flight must fail every pending call promptly
// with a transport (non-timeout, retryable-class) error — and the
// client's reader/writer goroutines must exit (leakcheck).
func TestPipelineConnDeathFailsAllPending(t *testing.T) {
	checkGoroutineLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 32
	sawAll := make(chan net.Conn, 1)
	go func() {
		conn, aerr := l.Accept()
		if aerr != nil {
			return
		}
		// Read the whole window but answer nothing: every frame is now
		// pending client-side.
		r := bufio.NewReader(conn)
		for i := 0; i < inflight; i++ {
			if _, rerr := proto.ReadRequest(r); rerr != nil {
				conn.Close()
				return
			}
		}
		sawAll <- conn
	}()
	c := NewClientWithConfig(l.Addr().String(), ClientConfig{
		PipelineDepth: inflight,
		MaxRetries:    -1,
		DialTimeout:   500 * time.Millisecond,
		ReadTimeout:   10 * time.Second, // far beyond the test: failures must NOT be timeouts
	})
	defer c.Close()
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, gerr := c.Get(fmt.Sprintf("k-%d", i))
			results <- gerr
		}(i)
	}
	var conn net.Conn
	select {
	case conn = <-sawAll:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the full window")
	}
	// Kill the conn AND the listener: the pending calls must fail over
	// the dead pipe, and the follow-up redial must fail fast too.
	start := time.Now()
	conn.Close()
	l.Close()
	for i := 0; i < inflight; i++ {
		select {
		case gerr := <-results:
			if gerr == nil {
				t.Fatal("a pending call succeeded on a dead conn")
			}
			if isTimeout(gerr) {
				t.Fatalf("pending call failed by timeout, want fail-all-pending transport error: %v", gerr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pending call %d still blocked %v after conn death", i, time.Since(start))
		}
	}
}

// TestPipelineRetryAfterConnDeath: the death of a shared pipe feeds the
// normal retry policy — the next call transparently redials (free
// retry, like a stale pooled conn) and succeeds.
func TestPipelineRetryAfterConnDeath(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	proxy, err := faultnet.Start(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := NewClientWithConfig(proxy.Addr(), ClientConfig{PipelineDepth: 16})
	defer c.Close()
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	proxy.CloseExisting() // pipe dies between requests
	v, err := c.Get("k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("get after pipe death = %q, %v (want transparent redial)", v, err)
	}
}

// TestPipelineBusyDoesNotPoisonWindow: a StatusBusy response releases
// its window slot like any other completion — after a shed storm the
// full window must still be usable.
func TestPipelineBusyDoesNotPoisonWindow(t *testing.T) {
	checkGoroutineLeaks(t)
	const depth = 8
	b, addr, err := StartBackendWithLimits(1, "127.0.0.1:0",
		overload.Limits{RateLimit: 50, RateBurst: 1, AdmissionWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := NewClientWithConfig(addr, ClientConfig{PipelineDepth: depth, MaxRetries: -1})
	defer c.Close()
	if err := waitUntil(2*time.Second, func() bool {
		return c.Set("k", []byte("v")) == nil
	}); err != nil {
		t.Fatal("seed write never admitted")
	}
	var wg sync.WaitGroup
	var busy, ok, other int
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, gerr := c.Get("k")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case gerr == nil && string(v) == "v":
				ok++
			case errors.Is(gerr, ErrBusy):
				busy++
			default:
				other++
				t.Errorf("get under shed storm: %q, %v", v, gerr)
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d ops hit transport errors (want only OK/Busy)", other)
	}
	if busy == 0 {
		t.Fatalf("no op was shed (ok=%d) — the storm never exercised StatusBusy", ok)
	}
	// Window health: with every slot released, depth sequential
	// round trips (retrying sheds) must all complete.
	for i := 0; i < depth+2; i++ {
		if err := waitUntil(2*time.Second, func() bool {
			v, gerr := c.Get("k")
			return gerr == nil && string(v) == "v"
		}); err != nil {
			t.Fatalf("op %d after shed storm never completed: window poisoned?", i)
		}
	}
}

// TestPipelineTruncationDetected: a mid-stream truncation (faultnet
// cuts the server→client byte stream) must surface as a detected
// transport error on every affected call — never as a response
// mis-matched to the wrong request.
func TestPipelineTruncationDetected(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Seed distinct, recognizable values directly.
	for i := 0; i < 32; i++ {
		b.Store().Set(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("value-for-%02d", i)))
	}
	for _, cut := range []int64{37, 100, 256} { // mid-frame and near-boundary cuts
		proxy, perr := faultnet.Start(addr)
		if perr != nil {
			t.Fatal(perr)
		}
		proxy.SetFaults(faultnet.Faults{TruncateAfterBytes: cut})
		c := NewClientWithConfig(proxy.Addr(), ClientConfig{
			PipelineDepth: 16,
			MaxRetries:    -1,
			ReadTimeout:   500 * time.Millisecond,
		})
		var wg sync.WaitGroup
		var failed, wrong int
		var mu sync.Mutex
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := fmt.Sprintf("key-%02d", i)
				v, gerr := c.Get(k)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case gerr != nil:
					failed++
				case string(v) != fmt.Sprintf("value-for-%02d", i):
					wrong++
					t.Errorf("cut=%d: %s returned %q — response matched to the wrong request", cut, k, v)
				}
			}(i)
		}
		wg.Wait()
		if wrong != 0 {
			t.Fatalf("cut=%d: %d mis-matched responses", cut, wrong)
		}
		if failed == 0 {
			t.Fatalf("cut=%d: truncation was never detected (all 32 reads succeeded)", cut)
		}
		c.Close()
		proxy.Close()
	}
}

// TestPipelineLegacyInterop: a corr-0 (lockstep) client and a pipelined
// client against the same server must both work — the upgrade is
// per-connection, triggered only by the first correlated frame.
func TestPipelineLegacyInterop(t *testing.T) {
	checkGoroutineLeaks(t)
	b, addr, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	legacy := NewClient(addr)
	defer legacy.Close()
	piped := NewClientWithConfig(addr, ClientConfig{PipelineDepth: 8})
	defer piped.Close()
	if err := legacy.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := piped.Set("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, err := piped.Get("a"); err != nil || string(v) != "1" {
		t.Fatalf("pipelined read of lockstep write: %q, %v", v, err)
	}
	if v, err := legacy.Get("b"); err != nil || string(v) != "2" {
		t.Fatalf("lockstep read of pipelined write: %q, %v", v, err)
	}
}

// TestPipelineRejectsLockstepAfterUpgrade: once a conn has carried a
// correlated frame it is pipelined for life, and a later corr-0 frame
// means the stream is corrupt, so the server closes the conn. Both
// servers share the rule.
func TestPipelineRejectsLockstepAfterUpgrade(t *testing.T) {
	checkGoroutineLeaks(t)
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"backend", func(t *testing.T) string {
			b, addr, err := StartBackend(0, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return addr
		}},
		{"frontend", func(t *testing.T) string {
			return startCluster(t, LocalConfig{Nodes: 1, Replication: 1, PartitionSeed: 5}).FrontendAddr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", tc.start(t))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(3 * time.Second))
			r := bufio.NewReader(conn)
			if err := proto.WriteRequest(conn, &proto.Request{Op: proto.OpPing, Corr: 1}); err != nil {
				t.Fatal(err)
			}
			resp, err := proto.ReadResponse(r)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Corr != 1 || resp.Status != proto.StatusOK {
				t.Fatalf("pipelined Ping: corr=%d status=%v, want corr=1 OK", resp.Corr, resp.Status)
			}
			if err := proto.WriteRequest(conn, &proto.Request{Op: proto.OpPing}); err != nil {
				t.Fatal(err)
			}
			if resp, err := proto.ReadResponse(r); err == nil {
				t.Fatalf("corr-0 frame after the upgrade was answered (corr=%d status=%v)", resp.Corr, resp.Status)
			} else if isTimeout(err) {
				t.Fatal("server kept the conn open after a corr-0 frame on a pipelined stream")
			}
		})
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
