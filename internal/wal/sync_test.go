package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAppendDuringSync: a background fsync must not stall the append
// path. The store appends under its shard locks, so an fsync held under
// the log's mutex would stall every write (and read) of those shards
// for the length of the flush.
func TestAppendDuringSync(t *testing.T) {
	dir := t.TempDir()
	// Hold the first fsync until release; entered closes once it is held.
	entered, gate := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	orig := fsyncFile
	fsyncFile = func(f *os.File) error {
		enterOnce.Do(func() { close(entered) })
		<-gate
		return orig(f)
	}
	t.Cleanup(func() {
		release()
		fsyncFile = orig
	})
	opts := testOpts()
	opts.SegmentBytes = 1 << 20
	l, _ := mustOpen(t, dir, opts)
	mustAppend(t, l, "before", "1", 1, 1)

	syncDone := make(chan error, 1)
	go func() { syncDone <- l.Sync() }()
	<-entered

	appendDone := make(chan error, 1)
	go func() { appendDone <- l.Append("during", []byte("2"), 1, 2, false) }()
	select {
	case err := <-appendDone:
		if err != nil {
			t.Fatalf("Append during Sync: %v", err)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("Append blocked behind an in-progress Sync")
	}
	select {
	case err := <-syncDone:
		t.Fatalf("Sync returned (%v) while its fsync was still held", err)
	default:
	}
	release()
	if err := <-syncDone; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, r := mustOpen(t, dir, testOpts())
	defer l2.Close()
	for _, k := range []string{"before", "during"} {
		if _, ok := r.recs[k]; !ok {
			t.Errorf("key %q not replayed", k)
		}
	}
}

// TestConcurrentAppendSyncRotateClose runs appends that rotate tiny
// segments, explicit Syncs, the background sync loop and Close all at
// once (run it under -race). A Sync that loses the race with a rotation
// or Close fsyncs an already-closed segment; that segment was synced
// before it closed, so Sync must still report success. Every append that
// returned nil must replay.
func TestConcurrentAppendSyncRotateClose(t *testing.T) {
	const (
		writers    = 4
		perWriter  = 400
		closeAfter = writers * perWriter / 3
	)
	dir := t.TempDir()
	opts := testOpts()
	opts.SyncInterval = time.Millisecond
	l, _ := mustOpen(t, dir, opts)

	var (
		appended atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errs     []error
		acked    [writers][]string
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, 32)
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%04d", w, i)
				err := l.Append(key, val, 1, uint64(i+1), false)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					fail(fmt.Errorf("Append(%s): %w", key, err))
					return
				}
				acked[w] = append(acked[w], key)
				appended.Add(1)
			}
		}(w)
	}
	stopSync := make(chan struct{})
	var syncWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		syncWG.Add(1)
		go func() {
			defer syncWG.Done()
			for {
				select {
				case <-stopSync:
					return
				default:
				}
				if err := l.Sync(); err != nil {
					fail(fmt.Errorf("Sync: %w", err))
					return
				}
			}
		}()
	}

	// Writers that stopped on an error never reach closeAfter: the
	// deadline keeps the test from hanging before it reports them.
	deadline := time.Now().Add(10 * time.Second)
	for appended.Load() < closeAfter && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	rotations := l.Stats().Rotations
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(stopSync)
	syncWG.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if rotations == 0 {
		t.Fatal("no segment rotated before Close; the test did not race rotation")
	}

	l2, r := mustOpen(t, dir, testOpts())
	defer l2.Close()
	for w := range acked {
		for _, k := range acked[w] {
			if _, ok := r.recs[k]; !ok {
				t.Fatalf("acked append %q not replayed", k)
			}
		}
	}
}
