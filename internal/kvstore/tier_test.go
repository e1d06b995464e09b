package kvstore

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"securecache/internal/cache"
	"securecache/internal/disttier"
)

func tierKey(i int) string      { return fmt.Sprintf("tier-key-%04d", i) }
func tierVal(i, gen int) []byte { return []byte(fmt.Sprintf("tier-val-%d-gen%d", i, gen)) }
func lruFactory() func() cache.Cache {
	return func() cache.Cache { return cache.NewLRU(256) }
}

// TestTierGetSetAcrossFrontends is the tier smoke test: writes and
// reads through the two-choice client round-trip, batches work, and the
// load spreads across more than one frontend.
func TestTierGetSetAcrossFrontends(t *testing.T) {
	tcl, err := StartTierCluster(TierLocalConfig{
		Nodes: 4, Replication: 2, Frontends: 3,
		PartitionSeed: 71, TierSeed: 7100,
		NewCache: lruFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	const m = 60
	for i := 0; i < m; i++ {
		if err := tcl.Client.Set(tierKey(i), tierVal(i, 0)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i := 0; i < m; i++ {
		v, err := tcl.Client.Get(tierKey(i))
		if err != nil || !bytes.Equal(v, tierVal(i, 0)) {
			t.Fatalf("get %d: %v %q", i, err, v)
		}
	}
	keys := make([]string, m)
	for i := range keys {
		keys[i] = tierKey(i)
	}
	res, err := tcl.Client.MGet(keys)
	if err != nil || len(res) != m {
		t.Fatalf("mget: %v (%d results)", err, len(res))
	}
	for i, r := range res {
		if !r.Found || !bytes.Equal(r.Value, tierVal(i, 0)) {
			t.Fatalf("mget[%d]: found=%v %q", i, r.Found, r.Value)
		}
	}
	if _, err := tcl.Client.Get("tier-absent"); err != ErrNotFound {
		t.Fatalf("absent key: %v, want ErrNotFound", err)
	}
	busy := 0
	for _, c := range tcl.FrontendRequestCounts() {
		if c > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 3 frontends saw traffic; two-choice should spread it", busy)
	}
	// Deletes propagate and the other candidate's cache is invalidated.
	if err := tcl.Client.Del(tierKey(0)); err != nil {
		t.Fatalf("del: %v", err)
	}
	if _, err := tcl.Client.Get(tierKey(0)); err != ErrNotFound {
		t.Fatalf("get after del: %v, want ErrNotFound", err)
	}
}

// TestTierCacheAdmissionFilter pins the tier's cache-partition rule:
// a frontend caches only keys it is a candidate for; anything else
// passes through uncached and counts as filtered.
func TestTierCacheAdmissionFilter(t *testing.T) {
	tcl, err := StartTierCluster(TierLocalConfig{
		Nodes: 3, Replication: 2, Frontends: 3,
		PartitionSeed: 72, TierSeed: 7200,
		NewCache: lruFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	key := tierKey(1)
	if err := tcl.Client.Set(key, tierVal(1, 0)); err != nil {
		t.Fatal(err)
	}
	a, b := tcl.Client.Candidates(key)
	var nonCand int = -1
	for id := range tcl.Frontends {
		if id != a && id != b {
			nonCand = id
		}
	}
	if nonCand < 0 {
		t.Fatal("no non-candidate frontend with k=3")
	}
	// Hammer the key at a frontend that is NOT a candidate: every read
	// must miss (admission filtered), none may be served from cache.
	nc := NewClient(tcl.FrontendAddrs[nonCand])
	defer nc.Close()
	for i := 0; i < 5; i++ {
		if v, err := nc.Get(key); err != nil || !bytes.Equal(v, tierVal(1, 0)) {
			t.Fatalf("non-candidate get: %v %q", err, v)
		}
	}
	ncf := tcl.Frontends[nonCand]
	if hits := ncf.Metrics().Counter("cache_hits_total").Value(); hits != 0 {
		t.Fatalf("non-candidate served %d cache hits for a filtered key", hits)
	}
	if filtered := ncf.Metrics().Counter("tier_cache_filtered_total").Value(); filtered == 0 {
		t.Fatal("tier_cache_filtered_total never incremented on the non-candidate")
	}
	// The same traffic at a candidate caches after the first miss.
	cc := NewClient(tcl.FrontendAddrs[a])
	defer cc.Close()
	for i := 0; i < 5; i++ {
		if v, err := cc.Get(key); err != nil || !bytes.Equal(v, tierVal(1, 0)) {
			t.Fatalf("candidate get: %v %q", err, v)
		}
	}
	if hits := tcl.Frontends[a].Metrics().Counter("cache_hits_total").Value(); hits == 0 {
		t.Fatal("candidate frontend never served the key from cache")
	}
}

// TestTierLoadHintPiggyback verifies the wire plumbing end to end: tier
// frontends stamp every response frame with a load hint and the client
// hook sees it; non-tier frontends leave frames unhinted. The counters
// are atomic because a pipelined client fires the hook from its reader
// goroutine.
func TestTierLoadHintPiggyback(t *testing.T) {
	for _, tr := range wireTransports {
		t.Run(tr.name, func(t *testing.T) {
			tcl, err := StartTierCluster(TierLocalConfig{
				Nodes: 2, Replication: 1, Frontends: 2,
				PartitionSeed: 73, TierSeed: 7300,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tcl.Close()
			var hints atomic.Int64
			c := NewClientWithConfig(tcl.FrontendAddrs[0], ClientConfig{
				PipelineDepth: tr.depth,
				OnLoadHint:    func(uint32) { hints.Add(1) },
			})
			defer c.Close()
			if err := c.Set(tierKey(0), tierVal(0, 0)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get(tierKey(0)); err != nil {
				t.Fatal(err)
			}
			if n := hints.Load(); n != 2 {
				t.Fatalf("load-hint hook fired %d times over 2 tier exchanges", n)
			}

			lc, err := StartLocalCluster(LocalConfig{Nodes: 2, Replication: 1, PartitionSeed: 74})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			var plainHints atomic.Int64
			pc := NewClientWithConfig(lc.FrontendAddr, ClientConfig{
				PipelineDepth: tr.depth,
				OnLoadHint:    func(uint32) { plainHints.Add(1) },
			})
			defer pc.Close()
			if err := pc.Set(tierKey(0), tierVal(0, 0)); err != nil {
				t.Fatal(err)
			}
			if n := plainHints.Load(); n != 0 {
				t.Fatalf("non-tier frontend stamped %d load hints", n)
			}
		})
	}
}

// TestTierWriteInvalidatesOtherCandidate pins write-then-invalidate: a
// value cached at one candidate is dropped when a write routes through
// the other, so no read observes a value older than one round trip.
func TestTierWriteInvalidatesOtherCandidate(t *testing.T) {
	tcl, err := StartTierCluster(TierLocalConfig{
		Nodes: 3, Replication: 2, Frontends: 2,
		PartitionSeed: 75, TierSeed: 7500,
		NewCache: lruFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	key := tierKey(3)
	if err := tcl.Client.Set(key, tierVal(3, 0)); err != nil {
		t.Fatal(err)
	}
	// Warm BOTH candidates' caches via direct reads.
	a, b := tcl.Client.Candidates(key)
	ca := NewClient(tcl.FrontendAddrs[a])
	cb := NewClient(tcl.FrontendAddrs[b])
	defer ca.Close()
	defer cb.Close()
	for _, c := range []*Client{ca, cb} {
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	// A tier write goes through one candidate and invalidates the other.
	if err := tcl.Client.Set(key, tierVal(3, 1)); err != nil {
		t.Fatal(err)
	}
	for id, c := range map[int]*Client{a: ca, b: cb} {
		v, err := c.Get(key)
		if err != nil || !bytes.Equal(v, tierVal(3, 1)) {
			t.Fatalf("frontend %d read %q (%v) after tier write, want gen1", id, v, err)
		}
	}
	inv := tcl.Frontends[a].Metrics().Counter("tier_invalidations_total").Value() +
		tcl.Frontends[b].Metrics().Counter("tier_invalidations_total").Value()
	if inv == 0 {
		t.Fatal("no candidate recorded an invalidation")
	}
}

// TestTierCacheShareProvision pins the tier-aware c* split: with k
// frontends sharing the tier, each auto-provisions
// disttier.CacheShare(c*, k) instead of the full c*.
func TestTierCacheShareProvision(t *testing.T) {
	tcl, err := StartTierCluster(TierLocalConfig{
		Nodes: 8, Replication: 2, Frontends: 4,
		PartitionSeed: 76, TierSeed: 7600,
		NewCache: lruFactory(),
		// KOverride lifts c* well above the [1, c*] clamp so the test
		// exercises the mean+deviation split, not the clamp.
		Provision: ProvisionConfig{Items: 10000, KOverride: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	for id, f := range tcl.Frontends {
		st := f.MembershipStatus()
		ts := f.TierStatus()
		if st.CStar <= 0 {
			t.Fatalf("frontend %d: no c* with provisioning on", id)
		}
		want := disttier.CacheShare(st.CStar, 4)
		if ts.CacheShare != want {
			t.Fatalf("frontend %d: TierStatus.CacheShare = %d, want %d", id, ts.CacheShare, want)
		}
		if st.CacheCapacity != want {
			t.Fatalf("frontend %d: cache capacity %d, want tier share %d (c* = %d)", id, st.CacheCapacity, want, st.CStar)
		}
		if want >= st.CStar {
			t.Fatalf("k=4 share %d did not shrink below c* %d", want, st.CStar)
		}
	}
}

// TestTierSetMembers covers the tier view verb: growing the tier
// re-splits the cache provision; removing this frontend's own ID or
// passing garbage is refused.
func TestTierSetMembers(t *testing.T) {
	tcl, err := StartTierCluster(TierLocalConfig{
		Nodes: 4, Replication: 2, Frontends: 2,
		PartitionSeed: 77, TierSeed: 7700,
		NewCache:  lruFactory(),
		Provision: ProvisionConfig{Items: 10000, KOverride: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	f := tcl.Frontends[0]
	shareBefore := f.MembershipStatus().CacheCapacity
	if err := f.SetTierMembers([]int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	st := f.TierStatus()
	if len(st.Members) != 4 {
		t.Fatalf("tier members after grow: %v", st.Members)
	}
	if after := f.MembershipStatus().CacheCapacity; after >= shareBefore {
		t.Fatalf("cache share %d did not shrink from %d when the tier grew 2->4", after, shareBefore)
	}
	if err := f.SetTierMembers([]int{1, 2}); err == nil {
		t.Fatal("dropping own tier ID accepted")
	}
	if err := f.SetTierMembers([]int{0, 0}); err == nil {
		t.Fatal("duplicate tier IDs accepted")
	}
	if err := f.SetTierMembers(nil); err == nil {
		t.Fatal("empty tier accepted")
	}
}

// TestTierPicksLessLoaded pins the two-choice policy at the client: a
// penalized (crashed) candidate is avoided until heard from again, and
// the pick follows the load hints otherwise.
func TestTierPicksLessLoaded(t *testing.T) {
	lt := disttier.NewLoadTable()
	lt.Observe(0, 100)
	lt.Observe(1, 2)
	if lt.Pick(0, 1) != 1 {
		t.Fatal("pick ignored load hints")
	}
	lt.Penalize(1)
	if lt.Pick(0, 1) != 0 {
		t.Fatal("pick chose a penalized frontend")
	}
	lt.Observe(1, 0)
	if lt.Pick(0, 1) != 1 {
		t.Fatal("penalty survived a fresh frame")
	}
}

// TestTierClientViewSwap covers SetFrontends: the client follows a tier
// membership change and keeps serving.
func TestTierClientViewSwap(t *testing.T) {
	tcl, err := StartTierCluster(TierLocalConfig{
		Nodes: 3, Replication: 2, Frontends: 3,
		PartitionSeed: 78, TierSeed: 7800,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	if err := tcl.Client.Set(tierKey(5), tierVal(5, 0)); err != nil {
		t.Fatal(err)
	}
	// Shrink the client's view to frontends {0, 1} (tier leave of 2).
	if err := tcl.Client.SetFrontends(map[int]string{
		0: tcl.FrontendAddrs[0],
		1: tcl.FrontendAddrs[1],
	}); err != nil {
		t.Fatal(err)
	}
	if got := tcl.Client.Frontends(); len(got) != 2 {
		t.Fatalf("view after swap: %v", got)
	}
	v, err := tcl.Client.Get(tierKey(5))
	if err != nil || !bytes.Equal(v, tierVal(5, 0)) {
		t.Fatalf("get after view swap: %v %q", err, v)
	}
	if err := tcl.Client.SetFrontends(nil); err == nil {
		t.Fatal("empty frontend set accepted")
	}
}

// TestTierRotationKeepsPlacement pins the independence of the two
// layers: rotating the SECRET backend seed on every tier frontend moves
// backend placement but leaves the tier candidate mapping untouched,
// and every key stays readable through the tier client.
func TestTierRotationKeepsPlacement(t *testing.T) {
	tcl, err := StartTierCluster(TierLocalConfig{
		Nodes: 4, Replication: 2, Frontends: 3,
		PartitionSeed: 79, TierSeed: 7900,
		NewCache: lruFactory(),
		Rotation: RotationConfig{Rate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcl.Close()
	const m = 40
	before := make(map[string][2]int, m)
	for i := 0; i < m; i++ {
		if err := tcl.Client.Set(tierKey(i), tierVal(i, 0)); err != nil {
			t.Fatal(err)
		}
		a, b := tcl.Client.Candidates(tierKey(i))
		before[tierKey(i)] = [2]int{a, b}
	}
	if err := tcl.RotateAll(0xB0A71234); err != nil {
		t.Fatal(err)
	}
	if !tcl.WaitSettled(60 * time.Second) {
		t.Fatal("rotation never settled on all tier frontends")
	}
	for i := 0; i < m; i++ {
		a, b := tcl.Client.Candidates(tierKey(i))
		if want := before[tierKey(i)]; a != want[0] || b != want[1] {
			t.Fatalf("key %d tier candidates moved across a backend rotation: (%d,%d) -> (%d,%d)",
				i, want[0], want[1], a, b)
		}
		v, err := tcl.Client.Get(tierKey(i))
		if err != nil || !bytes.Equal(v, tierVal(i, 0)) {
			t.Fatalf("get %d after tier-wide rotation: %v %q", i, err, v)
		}
	}
}
