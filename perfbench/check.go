package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
)

// Values are a pure function of (run seed, key, write sequence), so any
// value read back can be traced to the write that produced it. The first
// 20 bytes are a header "kNNNNNNNN:SSSSSSSSSS" naming key and sequence;
// the rest is a splitmix64 stream seeded from all three.
const headerLen = 20

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func appendValue(dst []byte, seed uint64, key int, seq uint32, size int) []byte {
	dst = fmt.Appendf(dst, "k%08d:%010d", key, seq)
	st := seed ^ uint64(key)<<32 ^ uint64(seq)
	var w [8]byte
	for len(dst) < size {
		binary.LittleEndian.PutUint64(w[:], splitmix(&st))
		dst = append(dst, w[:min(8, size-len(dst))]...)
	}
	return dst
}

// parseSeq checks that v is a value this run could have written for key
// and returns its write sequence.
func parseSeq(v []byte, seed uint64, key, size int) (uint32, bool) {
	if len(v) != size || len(v) < headerLen || v[9] != ':' {
		return 0, false
	}
	k, err := strconv.Atoi(string(v[1:9]))
	if err != nil || k != key || v[0] != 'k' {
		return 0, false
	}
	s, err := strconv.ParseUint(string(v[10:headerLen]), 10, 32)
	if err != nil {
		return 0, false
	}
	var buf [2048]byte
	want := appendValue(buf[:0], seed, key, uint32(s), size)
	return uint32(s), bytes.Equal(v, want)
}

// history records, per key, when each write was sent and acknowledged,
// in nanoseconds on the generator's monotonic clock. Sequence 0 is the
// preload write.
type history struct {
	keys []keyHist
}

type keyHist struct {
	mu   sync.Mutex
	sent []int64
	ack  []int64 // 0 = not (yet) acknowledged
	// maxAckedSent is the latest send time of any acknowledged write: a
	// read sent after that acknowledgement must not return a write
	// acknowledged before this instant.
	maxAckedSent int64
}

func newHistory(m int) *history { return &history{keys: make([]keyHist, m)} }

// begin allocates the next sequence for key and records its send time.
func (h *history) begin(key int, now int64) uint32 {
	k := &h.keys[key]
	k.mu.Lock()
	seq := uint32(len(k.sent))
	k.sent = append(k.sent, now)
	k.ack = append(k.ack, 0)
	k.mu.Unlock()
	return seq
}

func (h *history) acked(key int, seq uint32, now int64) {
	k := &h.keys[key]
	k.mu.Lock()
	k.ack[seq] = now
	if s := k.sent[seq]; s > k.maxAckedSent {
		k.maxAckedSent = s
	}
	k.mu.Unlock()
}

// floor is the read-side snapshot taken just before a GET is sent.
func (h *history) floor(key int) int64 {
	k := &h.keys[key]
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.maxAckedSent
}

// fresh reports whether a read that was sent with snapshot floor may
// return write seq: the write was issued, and it was not acknowledged
// before another acknowledged write had been sent (which would have to
// supersede it in real time).
func (h *history) fresh(key int, seq uint32, floor int64) error {
	k := &h.keys[key]
	k.mu.Lock()
	defer k.mu.Unlock()
	if int(seq) >= len(k.sent) {
		return fmt.Errorf("key %d: read write #%d that was never sent", key, seq)
	}
	if a := k.ack[seq]; a != 0 && a < floor {
		return fmt.Errorf("key %d: read write #%d acknowledged at %d ns, superseded by a write sent at %d ns", key, seq, a, floor)
	}
	return nil
}

// auditOK reports whether write seq, found on a replica, satisfies the
// same real-time rule a read must: no acknowledged write was sent after
// it was acknowledged.
func (h *history) auditOK(key int, seq uint32) bool {
	k := &h.keys[key]
	k.mu.Lock()
	defer k.mu.Unlock()
	if int(seq) >= len(k.sent) {
		return false
	}
	a := k.ack[seq]
	return a == 0 || a >= k.maxAckedSent
}
