package kvstore

// WAL crash suite: durable backends driven through crash shapes — clean
// restart, kill -9 torn tail, on-disk corruption — asserting the
// storage contract end to end:
//
//   - a warm restart serves the exact pre-crash keyset with ZERO
//     hinted-handoff or anti-entropy writes (the network repair
//     machinery finds nothing to do)
//   - a kill -9 mid-workload loses at most the one torn tail record
//   - corruption quarantines the directory, the node starts empty, and
//     replica repair refills it *through* the fresh log, so the refill
//     itself is durable
//
// Runs under -race with `make chaos` (and the wal crash matrix via
// `make wal`).

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"securecache/internal/wal"
)

// walTestOpts: no background fsync goroutine (the tests drive state
// transitions deterministically), no auto-merge, small segments so
// rotation paths run.
func walTestOpts() wal.Options {
	return wal.Options{SegmentBytes: 4 << 10, SyncInterval: -1, MergeRatio: -1}
}

// storeFingerprint captures a store's exact contents — value, epoch,
// version, tombstone flag per key — via the scan path.
func storeFingerprint(s *Store) map[string]string {
	fp := make(map[string]string)
	var cursor uint64
	for {
		entries, next := s.Scan(cursor, 512, 0, 0, ScanOptions{Tombs: true})
		for _, e := range entries {
			fp[e.Key] = fmt.Sprintf("val=%q epoch=%d ver=%d tomb=%v", e.Value, e.Epoch, e.Ver, e.Tomb)
		}
		if next == 0 {
			return fp
		}
		cursor = next
	}
}

func diffFingerprints(t *testing.T, want, got map[string]string) {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("key %q: replayed {%s}, want {%s}", k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("key %q: present after restart but never written before it", k)
		}
	}
}

// TestChaosWarmRestart: a durable replica is cleanly restarted under a
// live cluster. The restarted node must serve its exact pre-restart
// keyset from the log alone — the anti-entropy pass that follows must
// apply zero repairs, and no hinted handoff may be queued.
func TestChaosWarmRestart(t *testing.T) {
	checkGoroutineLeaks(t)
	const keys = 60
	dir := filepath.Join(t.TempDir(), "node0")

	b0, addr0, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b0.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	b1, addr1, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()

	f, _, err := StartFrontend(FrontendConfig{
		BackendAddrs: []string{addr0, addr1},
		Replication:  2, PartitionSeed: 31,
		WriteQuorum:    2,
		Client:         ClientConfig{MaxRetries: -1},
		Health:         HealthConfig{FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond},
		RepairInterval: -1, RepairRate: -1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A write/delete/overwrite workload: quorum writes land on both
	// replicas, so the cluster is converged when it ends.
	for i := 0; i < keys; i++ {
		if err := f.Set(testKeyName(i), chaosValue(i)); err != nil {
			t.Fatalf("Set(%s): %v", testKeyName(i), err)
		}
	}
	for i := 0; i < keys; i += 5 {
		if err := f.Del(testKeyName(i)); err != nil {
			t.Fatalf("Del(%s): %v", testKeyName(i), err)
		}
	}
	for i := 1; i < keys; i += 7 {
		if err := f.Set(testKeyName(i), append(chaosValue(i), "-v2"...)); err != nil {
			t.Fatalf("overwrite Set(%s): %v", testKeyName(i), err)
		}
	}

	want := storeFingerprint(b0.Store())
	if len(want) == 0 {
		t.Fatal("node 0 holds nothing — the workload missed it entirely")
	}

	// Clean restart: close node 0 (final fsync, log sealed) and bring it
	// back on the same address from the same data directory.
	if err := b0.Close(); err != nil {
		t.Fatalf("close node 0: %v", err)
	}
	l, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr0, err)
	}
	b0r := NewBackend(0)
	recovered, err := b0r.OpenData(dir, walTestOpts())
	if err != nil {
		t.Fatalf("reopen data dir: %v", err)
	}
	if recovered {
		t.Fatal("clean restart took the corruption-recovery path")
	}
	go b0r.Serve(l)
	defer b0r.Close()

	st := b0r.WAL().Stats()
	if st.TornTruncations != 0 {
		t.Errorf("clean restart truncated %d torn records, want 0", st.TornTruncations)
	}
	diffFingerprints(t, want, storeFingerprint(b0r.Store()))

	// The warm node needs nothing from the network: zero anti-entropy
	// repairs, zero hinted handoff.
	n, err := f.RunRepairPass()
	if err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	if n != 0 {
		t.Errorf("anti-entropy applied %d repairs after a warm restart, want 0", n)
	}
	if q := f.Metrics().Counter("hints_queued_total").Value(); q != 0 {
		t.Errorf("%d hints queued during the warm-restart workload, want 0", q)
	}

	// And it serves: reads across the keyspace come back exact. Workload
	// order was set-all, delete-every-5th, overwrite-every-7th(-from-1),
	// so an overwrite after the delete re-creates the key.
	for i := 0; i < keys; i++ {
		v, err := f.Get(testKeyName(i))
		switch {
		case i%7 == 1:
			if wantV := append(chaosValue(i), "-v2"...); err != nil || string(v) != string(wantV) {
				t.Fatalf("Get(%s) after restart = %q, %v; want %q", testKeyName(i), v, err, wantV)
			}
		case i%5 == 0:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %s resurrected after restart: %q, %v", testKeyName(i), v, err)
			}
		default:
			if err != nil || string(v) != string(chaosValue(i)) {
				t.Fatalf("Get(%s) after restart = %q, %v; want %q", testKeyName(i), v, err, chaosValue(i))
			}
		}
	}

	// A replayed tombstone still guards its key: a versioned write below
	// the delete's version (a late hint, a stale repair) must not land.
	del := testKeyName(0)
	_, epoch, tombVer, tomb, ok := b0r.Store().GetVersioned(del)
	if !ok || !tomb || tombVer < 2 {
		t.Fatalf("deleted key %s after restart: tomb=%v ok=%v ver=%d; want a versioned tombstone", del, tomb, ok, tombVer)
	}
	if b0r.Store().SetVersioned(del, []byte("stale"), epoch, tombVer-1) {
		t.Fatalf("stale versioned write below the replayed tombstone (ver %d) of %s was applied", tombVer, del)
	}
}

// activeSegment returns the path of the highest-numbered segment file —
// the append target (no merges run in these tests).
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// TestChaosKill9TornTail simulates kill -9 mid-append: the process
// vanishes without closing the log (the abandoned Log is simply never
// used again) and the active segment gains a torn partial record. The
// reopened node must hold every completed write — the torn record, and
// only it, is lost.
func TestChaosKill9TornTail(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := filepath.Join(t.TempDir(), "node0")
	b0 := NewBackend(0)
	if _, err := b0.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	// Workload big enough to force rotations (hint files + sealed
	// segments all participate in the replay).
	for i := 0; i < 200; i++ {
		b0.Store().SetVersioned(testKeyName(i%50), chaosValue(i%50), 1, uint64(i+1))
	}
	for i := 0; i < 50; i += 9 {
		b0.Store().DeleteVersioned(testKeyName(i), 1, uint64(1000+i))
	}
	if b0.WAL().Stats().Rotations == 0 {
		t.Fatal("workload produced no rotations; the test would not cover sealed-segment replay")
	}
	want := storeFingerprint(b0.Store())

	// kill -9: no Close, no fsync, no hint for the active segment. The
	// interrupted append is a record prefix at the tail — emulated by
	// copying the first bytes of the segment (a valid header whose body
	// never arrived).
	seg := activeSegment(t, dir)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	fh, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(blob[:15]); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	b0r := NewBackend(0)
	recovered, err := b0r.OpenData(dir, walTestOpts())
	if err != nil {
		t.Fatalf("reopen after kill -9: %v", err)
	}
	if recovered {
		t.Fatal("a torn tail must be repaired in place, not quarantined")
	}
	st := b0r.WAL().Stats()
	if st.TornTruncations != 1 {
		t.Errorf("TornTruncations = %d, want 1", st.TornTruncations)
	}
	diffFingerprints(t, want, storeFingerprint(b0r.Store()))

	// The repaired log keeps working: an append lands on a clean
	// boundary and survives another restart.
	b0r.Store().SetVersioned("post-crash", []byte("alive"), 2, 5000)
	if err := b0r.Close(); err != nil {
		t.Fatal(err)
	}
	b0rr := NewBackend(0)
	if _, err := b0rr.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	defer b0rr.Close()
	if v, _, ver, _, ok := b0rr.Store().GetVersioned("post-crash"); !ok || ver != 5000 || string(v) != "alive" {
		t.Fatalf("post-crash write lost: %q ver=%d ok=%v", v, ver, ok)
	}
}

// TestChaosCorruptionQuarantineThenRepairRefill: a flipped byte in
// stable data is NOT repairable — the node must refuse the directory,
// quarantine it, start empty, and let anti-entropy refill it through
// the fresh log, making the refill itself crash-durable.
func TestChaosCorruptionQuarantineThenRepairRefill(t *testing.T) {
	checkGoroutineLeaks(t)
	const keys = 40
	dir := filepath.Join(t.TempDir(), "node0")

	// Seed a durable node, then corrupt its log at rest.
	b0 := NewBackend(0)
	opts := walTestOpts()
	opts.SegmentBytes = wal.DefaultSegmentBytes // one segment: offsets are predictable
	if _, err := b0.OpenData(dir, opts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		b0.Store().SetVersioned(testKeyName(i), chaosValue(i), 1, uint64(i+1))
	}
	if err := b0.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegment(t, dir)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	blob[30] ^= 0xff // inside the first record's value: mid-file corruption
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	b0r := NewBackend(0)
	recovered, err := b0r.OpenData(dir, opts)
	if err != nil {
		t.Fatalf("OpenData on corrupt dir: %v", err)
	}
	if !recovered {
		t.Fatal("corruption was not detected")
	}
	if n := b0r.Store().Len(); n != 0 {
		t.Fatalf("node serves %d keys from a corrupt directory, want 0", n)
	}
	if _, err := os.Stat(dir + ".corrupt"); err != nil {
		t.Fatalf("quarantine directory missing: %v", err)
	}

	// Refill over the network: a healthy replica plus one anti-entropy
	// pass repopulates the node.
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b0r.Serve(l0)
	defer b0r.Close()
	b1, addr1, err := StartBackend(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	for i := 0; i < keys; i++ {
		b1.Store().SetVersioned(testKeyName(i), chaosValue(i), 1, uint64(i+1))
	}
	f, _, err := StartFrontend(FrontendConfig{
		BackendAddrs: []string{l0.Addr().String(), addr1},
		Replication:  2, PartitionSeed: 31,
		Client:         ClientConfig{MaxRetries: -1},
		RepairInterval: -1, RepairRate: -1,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.RunRepairPass()
	if err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	if n == 0 {
		t.Fatal("anti-entropy saw nothing to repair into the emptied node")
	}
	if got := b0r.Store().Len(); got != keys {
		t.Fatalf("node holds %d keys after repair, want %d", got, keys)
	}

	// The refill went through the fresh log: a restart serves it without
	// the network.
	want := storeFingerprint(b0r.Store())
	if err := b0r.Close(); err != nil {
		t.Fatal(err)
	}
	b0rr := NewBackend(0)
	recovered, err = b0rr.OpenData(dir, opts)
	if err != nil || recovered {
		t.Fatalf("reopen after refill: recovered=%v err=%v", recovered, err)
	}
	defer b0rr.Close()
	diffFingerprints(t, want, storeFingerprint(b0rr.Store()))
}

// TestChaosTruncatedHintFallsBack: a truncated hint file on a sealed
// segment must degrade to a segment scan, not an error and not silent
// data loss.
func TestChaosTruncatedHintFallsBack(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := filepath.Join(t.TempDir(), "node0")
	b0 := NewBackend(0)
	if _, err := b0.OpenData(dir, walTestOpts()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		b0.Store().SetVersioned(testKeyName(i%50), chaosValue(i%50), 1, uint64(i+1))
	}
	if b0.WAL().Stats().Rotations == 0 {
		t.Fatal("no rotations: no hint files to damage")
	}
	want := storeFingerprint(b0.Store())
	if err := b0.Close(); err != nil {
		t.Fatal(err)
	}

	hints, err := filepath.Glob(filepath.Join(dir, "seg-*.hint"))
	if err != nil || len(hints) == 0 {
		t.Fatalf("no hint files after rotations (%v)", err)
	}
	st, err := os.Stat(hints[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(hints[0], st.Size()/2); err != nil {
		t.Fatal(err)
	}

	b0r := NewBackend(0)
	recovered, err := b0r.OpenData(dir, walTestOpts())
	if err != nil || recovered {
		t.Fatalf("reopen with truncated hint: recovered=%v err=%v", recovered, err)
	}
	defer b0r.Close()
	ws := b0r.WAL().Stats()
	if ws.HintFallbacks == 0 {
		t.Error("truncated hint did not register as a fallback")
	}
	if ws.HintLoads == 0 {
		t.Error("intact hints were not used")
	}
	diffFingerprints(t, want, storeFingerprint(b0r.Store()))
}

// TestSnapshotV2PersistsVersionsAndTombstones: the node's durable image
// (its WAL data directory) carries the full versioned state, not just
// values — epoch and version per key, tombstones, and unversioned
// legacy entries — and a restored tombstone still blocks a stale
// versioned write.
func TestSnapshotV2PersistsVersionsAndTombstones(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	src := NewStore()
	l, err := wal.Open(dir, walTestOpts(), src.applyReplayed)
	if err != nil {
		t.Fatal(err)
	}
	src.AttachWAL(l)
	src.SetVersioned("live", []byte("v"), 3, 10)
	src.SetVersioned("gone", []byte("x"), 3, 4)
	src.DeleteVersioned("gone", 3, 7)
	src.Set("legacy", []byte("old")) // unversioned, epoch 0
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dst := NewStore()
	l, err = wal.Open(dir, walTestOpts(), dst.applyReplayed)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if v, epoch, ver, tomb, ok := dst.GetVersioned("live"); !ok || tomb || ver != 10 || epoch != 3 || string(v) != "v" {
		t.Errorf("live: v=%q epoch=%d ver=%d tomb=%v ok=%v", v, epoch, ver, tomb, ok)
	}
	if _, _, ver, tomb, ok := dst.GetVersioned("gone"); !ok || !tomb || ver != 7 {
		t.Errorf("tombstone lost across restart: ver=%d tomb=%v ok=%v", ver, tomb, ok)
	}
	// The restored tombstone must still block stale replays.
	if dst.SetVersioned("gone", []byte("zombie"), 3, 5) {
		t.Error("restored tombstone failed to block a stale write")
	}
	if v, ok := dst.Get("legacy"); !ok || string(v) != "old" {
		t.Errorf("legacy entry: %q, %v", v, ok)
	}
}
