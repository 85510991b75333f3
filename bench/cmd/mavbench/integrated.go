package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"mavscan"
	"mavscan/bench/span"
	"mavscan/bench/stats"
	"mavscan/internal/orchestrator"
	"mavscan/internal/simtime"
)

// integrated runs the second half of the traced pass: whole scans through
// mavscan.RunScan, alternating an untraced rep with one that attaches the
// program's own telemetry registry through the public option, until the
// run's seconds are used up. From the traced reps it reads the pipeline's
// stage spans and funnel counters; on the workloads that use them it also
// prices the journal, the merge, the fabric's wire and the ops plane's
// scrapes. Every rep's report is verified like a measured rep's.
func integrated(ctx context.Context, o options, cfg mavscan.ScanConfig, procs int, s *serialPass, refs []rep, rec *span.Recorder, m layerMetrics, start time.Time, w io.Writer) (verdict, error) {
	var v verdict
	var err error
	root := rec.Start(nil, "integrated", "traced.integrated")
	defer root.End()

	var untraced, traced []rep
	var scrapes []float64
	for len(traced) == 0 || (!o.smoke && time.Since(start).Seconds() < o.seconds) {
		p, err := prepare(o, cfg)
		if err != nil {
			return v, err
		}
		untraced = append(untraced, timeScan(ctx, p.cfg))
		p.release()

		if p, err = prepare(o, cfg); err != nil {
			return v, err
		}
		reg := p.telemetry
		if reg == nil {
			reg = mavscan.NewTelemetry(simtime.Wall{})
			p.cfg.Telemetry = reg
		}
		var journal *timingStore
		if p.cfg.Checkpoint.Store != nil {
			journal = &timingStore{inner: p.cfg.Checkpoint.Store}
			p.cfg.Checkpoint.Store = journal
		}
		sp := rec.Start(root, "integrated", "mavscan.RunScan traced")
		r := timeScan(ctx, p.cfg)
		sp.End()
		traced = append(traced, r)
		if p.scrapes != nil {
			scrapes = append(scrapes, p.scrapes()...)
		}
		if len(traced) == 1 && r.err == nil {
			snap := reg.Snapshot()
			m["telemetry.spans"] = float64(len(snap.Spans))
			m["telemetry.spans_dropped"] = float64(snap.SpansDropped)
			m["limits.truncated_total"] = float64(snap.Counters["mavscan_prefilter_truncated_total"])

			// pipeline.run -> stage1.portscan / stage23.workers; a sharded
			// run has one such triple per segment, and the figures add up.
			stage1End := map[uint64]time.Time{}
			for _, sp := range snap.Spans {
				if strings.HasSuffix(sp.Name, "stage1.portscan") {
					m["scanner.stage1_s"] += sp.Duration().Seconds()
					stage1End[sp.Parent] = sp.End
				}
			}
			for _, sp := range snap.Spans {
				if end, ok := stage1End[sp.Parent]; ok && strings.HasSuffix(sp.Name, "stage23.workers") {
					m["scanner.stage23_tail_s"] += sp.End.Sub(end).Seconds()
				}
			}

			if journal != nil {
				if err := journalMetrics(p, r.study.World, journal, rec, root, m); err != nil {
					p.release()
					return v, err
				}
			}

			sp := rec.Start(root, "report", "report digest")
			_, size, err := reportDigest(r.study.Report)
			m["report.digest_s"] = sp.End().Seconds()
			m["report.json_bytes"] = float64(size)
			if err != nil {
				p.release()
				return v, err
			}
		}
		p.release()
	}

	ratio, tracedWall, untracedWall, pairs := stats.PairedRatio(walls(traced), walls(untraced))
	m["telemetry.trace_overhead_ratio"] = ratio
	m["obs.scrape_p50_us"] = stats.Median(scrapes)
	m["obs.scrape_p99_us"], _ = stats.Tail(scrapes)
	m["scanner.layer_sum_cpu_s"] = m["portscan.cpu_s"] + m["prefilter.busy_s"] + m["tsunami.busy_s"] + m["fingerprint.busy_s"]
	m["scanner.parallel_efficiency"] = m["scanner.layer_sum_cpu_s"] / (float64(procs) * untracedWall)
	// The peak is the highest rep: a rep whose collections fall early reads
	// up to a third lower.
	for _, r := range append(untraced, traced...) {
		if peak := float64(r.heapPeak); peak > m["scanner.heap_peak_bytes"] {
			m["scanner.heap_peak_bytes"] = peak
		}
	}

	if v, err = verify(o, cfg, append(untraced, traced...), refs); err != nil {
		return v, err
	}
	// The serial pass must have walked the same funnel as the real scan.
	if r := traced[0]; r.err == nil {
		report := r.study.Report
		v.check(s.stats.Probed == report.Stats.Probed && s.stats.Open == report.Stats.Open,
			"serial sweep probed %d / open %d, the scan %d / %d", s.stats.Probed, s.stats.Open, report.Stats.Probed, report.Stats.Open)
		v.check(len(s.targets) == len(report.Apps), "serial pass found %d targets, the scan %d", len(s.targets), len(report.Apps))
		v.check(s.vuln == len(report.VulnerableObservations()), "serial pass found %d MAVs, the scan %d", s.vuln, len(report.VulnerableObservations()))

		if o.workload.variant == fabric {
			driven, err := fabricDrive(ctx, o, cfg, rec, root, m)
			if err != nil {
				return v, err
			}
			want, _, _ := reportDigest(report)
			got, _, _ := reportDigest(driven)
			v.check(got == want, "the fabric driven through a counting transport merged a different report")
		}
	}
	fmt.Fprintf(w, "trace overhead: %.4f (traced %.4f s / untraced %.4f s, n=%d)\n", ratio, tracedWall, untracedWall, pairs)
	return v, nil
}

// journalMetrics prices the checkpoint journal of a finished sharded or
// fabric rep: the plan, the fsynced appends the rep made, and a replay
// plus merge of what it wrote.
func journalMetrics(p prepared, world *mavscan.World, journal *timingStore, rec *span.Recorder, root *span.Open, m layerMetrics) error {
	space, _, err := scanSpace(p.cfg, world)
	if err != nil {
		return err
	}
	opts := p.cfg.Scan
	opts.Ports = mavscan.ScanPorts()
	sp := rec.Start(root, "orchestrator", "orchestrator.PlanSegments")
	segs := orchestrator.PlanSegments(space.NumAddresses(), opts.Seed, p.cfg.Shards, p.cfg.Checkpoint.Every)
	orchestrator.PlanFingerprint(space, opts, p.cfg.Shards, p.cfg.Checkpoint.Every)
	m["orchestrator.plan_s"] = sp.End().Seconds()
	m["orchestrator.segments"] = float64(len(segs))

	journal.mu.Lock()
	appends := append([]float64(nil), journal.us...)
	journal.mu.Unlock()
	m["orchestrator.journal_append_p50_us"] = stats.Median(appends)
	m["orchestrator.journal_append_p99_us"], _ = stats.Tail(appends)
	info, err := os.Stat(p.journal)
	if err != nil {
		return err
	}
	m["orchestrator.journal_bytes"] = float64(info.Size())

	parts := map[int]*mavscan.ScanReport{}
	sp = rec.Start(root, "orchestrator", "orchestrator.Store.Replay")
	err = journal.Replay("scan", func(r mavscan.CheckpointRecord) error {
		if r.Kind != orchestrator.KindSegment || parts[r.Segment] != nil {
			return nil
		}
		part := &mavscan.ScanReport{}
		if err := json.Unmarshal(r.Payload, part); err != nil {
			return err
		}
		parts[r.Segment] = part
		return nil
	})
	m["orchestrator.replay_s"] = sp.End().Seconds()
	if err != nil {
		return err
	}
	if len(parts) != len(segs) {
		return fmt.Errorf("traced pass: journal holds %d of %d segments", len(parts), len(segs))
	}
	sp = rec.Start(root, "orchestrator", "orchestrator.MergeParts")
	orchestrator.MergeParts(parts, len(segs))
	m["orchestrator.merge_s"] = sp.End().Seconds()
	return nil
}

// fabricDrive runs one more scan of the fabric workload through the
// public coordinator, pipe transport and worker constructors, with every
// worker's transport wrapped in one counting transport, and returns the
// merged report.
func fabricDrive(ctx context.Context, o options, cfg mavscan.ScanConfig, rec *span.Recorder, root *span.Open, m layerMetrics) (*mavscan.ScanReport, error) {
	p, err := prepare(o, cfg)
	if err != nil {
		return nil, err
	}
	defer p.release()
	reg := mavscan.NewTelemetry(simtime.Wall{})
	coord, err := mavscan.NewCoordinator(mavscan.CoordinatorConfig{
		Population: p.cfg.Population, Scan: p.cfg.Scan, Shards: p.cfg.Shards,
		Checkpoint: p.cfg.Checkpoint, HTTPTimeout: p.cfg.HTTPTimeout, Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	pipe := mavscan.NewFabricPipeTransport(coord)
	defer pipe.Close()
	counting := &countingTransport{inner: pipe}

	sp := rec.Start(root, "fabric", "fabric coordinator + workers")
	var wg sync.WaitGroup
	errs := make([]error, p.cfg.FabricWorkers)
	for i := range errs {
		worker, err := mavscan.NewFabricWorker(mavscan.WorkerConfig{ID: fmt.Sprintf("w%d", i), Transport: counting})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = worker.Run(ctx)
		}(i)
	}
	wg.Wait()
	sp.End()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("traced pass: fabric worker: %w", err)
		}
	}
	if err := coord.Wait(ctx); err != nil {
		return nil, err
	}

	m["fabric.rpc_calls"] = float64(len(counting.us))
	m["fabric.rpc_bytes"] = float64(counting.bytes)
	busy := 0.0
	for _, us := range counting.us {
		busy += us / 1e6
	}
	m["fabric.rpc_busy_s"] = busy
	m["fabric.rpc_p99_us"], _ = stats.Tail(counting.us)
	m["fabric.world_regens"] = float64(counting.joins)
	m["fabric.leases_granted"] = float64(reg.CounterValue("mavscan_fabric_leases_granted_total"))
	m["fabric.leases_expired"] = float64(reg.CounterValue("mavscan_fabric_leases_expired_total"))
	return coord.Report()
}
