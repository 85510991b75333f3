package main

import (
	"context"
	"errors"
	"net/netip"
	"testing"

	"mavscan"
	"mavscan/internal/simnet"
)

func TestCountingInjectorCountsAndNeverFaults(t *testing.T) {
	inj := newCountingInjector()
	a, b := netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.1.0.2")
	if err := inj.ProbeFault(a, 80); err != nil {
		t.Fatalf("ProbeFault injected %v", err)
	}
	for i := 0; i < 3; i++ {
		if f := inj.DialFault(a, 443); f != (simnet.Fault{}) {
			t.Fatalf("DialFault injected %+v", f)
		}
	}
	inj.DialFault(b, 80)
	dials := inj.counts()
	if dials[endpoint{a, 443}] != 3 || dials[endpoint{b, 80}] != 1 || len(dials) != 2 {
		t.Errorf("dials = %v", dials)
	}
	inj.reset()
	if dials := inj.counts(); len(dials) != 0 {
		t.Errorf("dials after reset = %v", dials)
	}
}

type fakeTransport struct{ fail bool }

func (f fakeTransport) Call(_ context.Context, _ string, _, resp any) error {
	if f.fail {
		return errors.New("down")
	}
	*resp.(*map[string]int) = map[string]int{"ok": 1}
	return nil
}

func TestCountingTransport(t *testing.T) {
	ct := &countingTransport{inner: fakeTransport{}}
	var resp map[string]int
	for _, ep := range []string{"join", "lease", "join"} {
		if err := ct.Call(context.Background(), ep, map[string]string{"id": "w0"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	// {"id":"w0"} is 11 bytes, {"ok":1} is 8.
	if len(ct.us) != 3 || ct.joins != 2 || ct.bytes != 3*(11+8) {
		t.Errorf("calls %d, joins %d, bytes %d", len(ct.us), ct.joins, ct.bytes)
	}
	ct.inner = fakeTransport{fail: true}
	if err := ct.Call(context.Background(), "join", map[string]string{"id": "w0"}, &resp); err == nil {
		t.Fatal("error not passed through")
	}
	if len(ct.us) != 4 || ct.joins != 2 || ct.bytes != 3*(11+8)+11 {
		t.Errorf("after a failed call: calls %d, joins %d, bytes %d", len(ct.us), ct.joins, ct.bytes)
	}
}

func TestTimingStorePassesThrough(t *testing.T) {
	mem := mavscan.NewMemCheckpointStore()
	ts := &timingStore{inner: mem}
	for i := 0; i < 3; i++ {
		if err := ts.Append(mavscan.CheckpointRecord{RunID: "scan", Kind: "segment", Segment: i}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := ts.Replay("scan", func(mavscan.CheckpointRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(ts.us) != 3 || mem.Len() != 3 {
		t.Errorf("replayed %d, timed %d, stored %d", n, len(ts.us), mem.Len())
	}
}
