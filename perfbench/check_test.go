package main

import "testing"

func TestParseSeqRoundTrip(t *testing.T) {
	v := appendValue(nil, 7, 42, 3, 128)
	if seq, ok := parseSeq(v, 7, 42, 128); !ok || seq != 3 {
		t.Fatalf("parseSeq = %d, %v; want 3, true", seq, ok)
	}
	for name, bad := range map[string]struct {
		seed uint64
		key  int
	}{"other seed": {8, 42}, "other key": {7, 43}} {
		if _, ok := parseSeq(v, bad.seed, bad.key, 128); ok {
			t.Errorf("%s: parseSeq accepted a value written for seed 7, key 42", name)
		}
	}
	v[100] ^= 1
	if _, ok := parseSeq(v, 7, 42, 128); ok {
		t.Error("parseSeq accepted a corrupted value")
	}
}

func TestHistoryRealTimeRule(t *testing.T) {
	h := newHistory(1)
	a := h.begin(0, 10) // write a: sent at 10, acknowledged at 20
	h.acked(0, a, 20)
	b := h.begin(0, 30) // write b: sent at 30, after a's acknowledgement
	floorBefore := h.floor(0)
	h.acked(0, b, 40)
	floorAfter := h.floor(0)

	// A read sent before b was acknowledged may return a or b.
	if err := h.fresh(0, a, floorBefore); err != nil {
		t.Errorf("read overlapping b rejected a: %v", err)
	}
	// A read sent after b was acknowledged must not return a.
	if err := h.fresh(0, a, floorAfter); err == nil {
		t.Error("read after b's acknowledgement accepted the superseded a")
	}
	if err := h.fresh(0, b, floorAfter); err != nil {
		t.Errorf("read after b's acknowledgement rejected b: %v", err)
	}
	if err := h.fresh(0, 5, floorAfter); err == nil {
		t.Error("accepted a write that was never sent")
	}
	if h.auditOK(0, a) || !h.auditOK(0, b) {
		t.Error("audit must accept b and reject the superseded a")
	}

	// Concurrent writes: c and d overlap, so either may be the survivor.
	c := h.begin(0, 50)
	d := h.begin(0, 51)
	h.acked(0, d, 60)
	h.acked(0, c, 61)
	if !h.auditOK(0, c) || !h.auditOK(0, d) {
		t.Error("audit must accept either of two overlapping writes")
	}
}

func TestWindowedP99IgnoresOneStall(t *testing.T) {
	p := &phase{rate: 8000}
	xs := make([]int64, 8000)
	for i := range xs {
		xs[i] = 100
	}
	for i := 2000; i < 2300; i++ { // a stall spoils 300 requests of one window
		xs[i] = 50_000
	}
	if got := p.windowedP99(xs); got != 100 {
		t.Errorf("windowed p99 = %d, want 100", got)
	}
	if got := quantile(xs, 0.99); got != 50_000 {
		t.Errorf("whole-phase p99 = %d, want 50000", got)
	}
}
