package main

import (
	"context"
	"encoding/json"
	"net/netip"
	"sync"
	"time"

	"mavscan"
	"mavscan/internal/simnet"
)

// endpoint is one (address, port) pair.
type endpoint struct {
	ip   netip.Addr
	port int
}

// countingInjector is a simnet.FaultInjector that never injects a fault:
// it only counts the dials the network lets through, per endpoint.
// Installing it through Network.SetFaults counts dials with no change to
// the program under test.
type countingInjector struct {
	mu    sync.Mutex
	dials map[endpoint]uint64
}

var _ simnet.FaultInjector = (*countingInjector)(nil)

func newCountingInjector() *countingInjector {
	return &countingInjector{dials: map[endpoint]uint64{}}
}

func (c *countingInjector) ProbeFault(netip.Addr, int) error { return nil }

func (c *countingInjector) DialFault(ip netip.Addr, port int) simnet.Fault {
	c.mu.Lock()
	c.dials[endpoint{ip, port}]++
	c.mu.Unlock()
	return simnet.Fault{}
}

// counts returns a copy of the per-endpoint dial counts.
func (c *countingInjector) counts() map[endpoint]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	dials := make(map[endpoint]uint64, len(c.dials))
	for k, v := range c.dials {
		dials[k] = v
	}
	return dials
}

// reset forgets the dial counts, so the next layer's dials start from 0.
func (c *countingInjector) reset() {
	c.mu.Lock()
	c.dials = map[endpoint]uint64{}
	c.mu.Unlock()
}

// countingTransport wraps a fabric transport and records every RPC: how
// many, how long each took, the JSON size of request plus reply, and how
// many joins succeeded (each join regenerates the world on the worker).
type countingTransport struct {
	inner mavscan.FabricTransport

	mu    sync.Mutex
	us    []float64
	bytes uint64
	joins int
}

func (t *countingTransport) Call(ctx context.Context, endpoint string, req, resp any) error {
	start := time.Now()
	err := t.inner.Call(ctx, endpoint, req, resp)
	took := time.Since(start)
	size := jsonSize(req)
	if err == nil {
		size += jsonSize(resp)
	}
	t.mu.Lock()
	t.us = append(t.us, micros(took))
	t.bytes += size
	if err == nil && endpoint == "join" {
		t.joins++
	}
	t.mu.Unlock()
	return err
}

func jsonSize(v any) uint64 {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return uint64(len(b))
}

// timingStore wraps a checkpoint store and records how long each Append
// (one fsynced journal line) took.
type timingStore struct {
	inner mavscan.CheckpointStore

	mu sync.Mutex
	us []float64
}

func (s *timingStore) Append(rec mavscan.CheckpointRecord) error {
	start := time.Now()
	err := s.inner.Append(rec)
	took := time.Since(start)
	s.mu.Lock()
	s.us = append(s.us, micros(took))
	s.mu.Unlock()
	return err
}

func (s *timingStore) Replay(runID string, fn func(mavscan.CheckpointRecord) error) error {
	return s.inner.Replay(runID, fn)
}
