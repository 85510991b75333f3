package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mavscan"
	"mavscan/bench/stats"
	"mavscan/internal/simtime"
)

// options are one run's inputs, as the contract's flags give them.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	// dir is the benchmark's own directory: golden/ is read from it and
	// out/ (journals, span files) is written under it.
	dir string
	// smoke shrinks every world and scans two prefixes only, so tests can
	// drive every workload in seconds. Golden digests do not apply.
	smoke bool
	// perturb drops one vulnerable observation from every report before it
	// is verified: the self-test that the checks can fail.
	perturb bool
	// updateGolden rewrites golden/<workload>.sha256 from this run.
	updateGolden bool
}

// configs returns the run's ScanConfig and the reference workload's at the
// same seed.
func (o options) configs() (cfg, refCfg mavscan.ScanConfig, err error) {
	ref, _ := findWorkload(reference)
	cfg, refCfg = o.workload.config(o.seed), ref.config(o.seed)
	if cfg, err = o.smokeConfig(cfg); err != nil {
		return cfg, refCfg, err
	}
	refCfg, err = o.smokeConfig(refCfg)
	return cfg, refCfg, err
}

// smokeConfig shrinks cfg for the smoke pass: a tenth of the hosts, and
// only the first two prefixes of the world's address plan are scanned.
func (o options) smokeConfig(cfg mavscan.ScanConfig) (mavscan.ScanConfig, error) {
	if !o.smoke {
		return cfg, nil
	}
	cfg.Population.HostScale *= 10
	cfg.Population.VulnScale *= 10
	cfg.Population.BackgroundScale *= 10
	cfg.Population.WildcardScale *= 10
	world, err := mavscan.GenerateWorld(cfg.Population)
	if err != nil {
		return cfg, err
	}
	cfg.Scan.Targets = world.Geo.Prefixes()[:2]
	return cfg, nil
}

// rep is what one timed RunScan yields.
type rep struct {
	wall, cpu      float64
	mallocs, bytes uint64
	heapPeak       uint64
	study          *mavscan.ScanStudy
	err            error
}

// cpuSeconds is the process's user+system CPU so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// sampleHeapPeak polls live heap bytes at 50 Hz until stop closes and
// returns the maximum seen. It is the load generator's one extra goroutine.
func sampleHeapPeak(stop <-chan struct{}) uint64 {
	sample := []metrics.Sample{{Name: heapObjects}}
	var peak uint64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// timeScan runs one RunScan under the wall, CPU, allocation and heap-peak
// meters. A collection before the meters start puts every rep on the same
// heap footing.
func timeScan(ctx context.Context, cfg mavscan.ScanConfig) rep {
	runtime.GC()
	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() { peak <- sampleHeapPeak(stop) }()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now()
	study, err := mavscan.RunScan(ctx, cfg)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	close(stop)

	return rep{
		wall: wall, cpu: cpu,
		mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
		heapPeak: <-peak, study: study, err: err,
	}
}

// prepared is a ScanConfig with its per-rep resources attached; release
// frees them after the rep.
type prepared struct {
	cfg     mavscan.ScanConfig
	release func()
	// journal and scrapes are what the traced pass reads back: the journal
	// path and the scraper's request latencies in microseconds.
	journal string
	scrapes func() []float64
	// telemetry is the registry an ops rep scans under.
	telemetry *mavscan.TelemetryRegistry
}

var journalSeq atomic.Int64

// prepare attaches what the workload's variant needs for one rep: a fresh
// fsynced journal for sharded and fabric, a telemetry registry plus a
// scraped ops plane for ops. All of it happens outside the timed region.
func prepare(o options, cfg mavscan.ScanConfig) (prepared, error) {
	p := prepared{cfg: cfg, release: func() {}}
	switch o.workload.variant {
	case sharded, fabric:
		out := filepath.Join(o.dir, "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return p, err
		}
		p.journal = filepath.Join(out, fmt.Sprintf("journal-%d-%d.jsonl", os.Getpid(), journalSeq.Add(1)))
		store, err := mavscan.OpenFileCheckpointStore(p.journal)
		if err != nil {
			return p, err
		}
		p.cfg.Shards = 4
		p.cfg.Checkpoint = mavscan.Checkpoint{Store: store, Every: 65536}
		if o.workload.variant == fabric {
			p.cfg.FabricWorkers = 2
		}
		p.release = func() {
			store.Close()
			os.Remove(p.journal)
		}
	case ops:
		reg := mavscan.NewTelemetry(simtime.Wall{})
		tracker := mavscan.NewProgressTracker()
		ready := &mavscan.ReadyFlag{}
		l, err := mavscan.ListenOps("127.0.0.1:0")
		if err != nil {
			return p, fmt.Errorf("table3-ops needs a loopback listener: %w", err)
		}
		srv := mavscan.ServeOps(l, mavscan.OpsConfig{
			Telemetry: reg,
			Progress:  func() any { return tracker.Snapshot() },
			Ready:     []mavscan.OpsCheck{ready.Check("world")},
		})
		sc := startScraper("http://" + srv.Addr())
		p.cfg.Telemetry = reg
		p.cfg.Obs = mavscan.ObsHooks{Progress: tracker, Ready: ready}
		p.telemetry = reg
		p.scrapes = sc.latencies
		p.release = func() {
			sc.stop()
			srv.Close()
		}
	}
	return p, nil
}

// scraper is table3-ops's one client: a keep-alive loopback connection
// fetching /metrics and /progress every 250 ms while the scan runs.
type scraper struct {
	done chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	us   []float64
}

func startScraper(base string) *scraper {
	s := &scraper{done: make(chan struct{})}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   5 * time.Second,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer client.CloseIdleConnections()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, path := range []string{"/metrics", "/progress"} {
				start := time.Now()
				resp, err := client.Get(base + path)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, io.LimitReader(resp.Body, 16<<20))
				resp.Body.Close()
				s.mu.Lock()
				s.us = append(s.us, micros(time.Since(start)))
				s.mu.Unlock()
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *scraper) stop() {
	close(s.done)
	s.wg.Wait()
}

func (s *scraper) latencies() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.us...)
}

// setGOMAXPROCS pins the scheduler to min(nproc, 4) and returns the value.
func setGOMAXPROCS() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	return n
}

// measureSetup times GenerateWorld + NewPipeline nine times, after one
// discarded call that grows the heap of the fresh process, each from a
// collected heap.
func measureSetup(cfg mavscan.ScanConfig) ([]float64, error) {
	var times []float64
	for i := 0; i < 10; i++ {
		runtime.GC()
		start := time.Now()
		world, err := mavscan.GenerateWorld(cfg.Population)
		if err != nil {
			return nil, err
		}
		pipe := mavscan.NewPipeline(world.Net)
		times = append(times, time.Since(start).Seconds())
		runtime.KeepAlive(pipe)
	}
	return times[1:], nil
}

// A run measures for --seconds, and for up to maxStretch times as long
// while its reps are not steady: measuring more work is the only thing that
// steadies the median of a workload whose scan time is set by its worst
// batch (hostile-10pct, in practice; the quiet workloads stop on time).
const maxStretch = 4

// steady reports whether the reps' wall times lie within 10 % of their
// median of each other.
func steady(reps []rep) bool {
	w := walls(reps)
	return len(w) >= 2 && stats.Percentile(w, 100)-stats.Percentile(w, 0) <= 0.10*stats.Median(w)
}

// walls returns the reps' wall times.
func walls(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wall
	}
	return out
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is the end-to-end pass of one workload: a closed loop of one
// client in which scan k+1 starts when scan k returned. Each round runs
// one table3-mono reference rep and then one rep of the workload, so every
// workload rep sits next to a reference rep.
func measured(ctx context.Context, o options, w io.Writer) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	cfg, refCfg, err := o.configs()
	if err != nil {
		return res, err
	}

	setups, err := measureSetup(cfg)
	if err != nil {
		return res, err
	}

	round := func() (refRep, rep rep, err error) {
		refRep = timeScan(ctx, refCfg)
		p, err := prepare(o, cfg)
		if err != nil {
			return refRep, rep, err
		}
		rep = timeScan(ctx, p.cfg)
		p.release()
		return refRep, rep, nil
	}

	// One discarded warm-up round, then the measured rounds.
	if !o.smoke {
		if _, _, err := round(); err != nil {
			return res, err
		}
	}
	var reps, refs []rep
	for start := time.Now(); ; {
		refRep, r, err := round()
		if err != nil {
			return res, err
		}
		refs, reps = append(refs, refRep), append(reps, r)
		elapsed := time.Since(start).Seconds()
		if o.smoke || (elapsed >= o.seconds && (steady(reps) || elapsed >= maxStretch*o.seconds)) {
			break
		}
	}

	v, err := verify(o, cfg, reps, refs)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed, res.Correct = v.attempted, v.failed, v.failed == 0
	for _, note := range v.notes {
		fmt.Fprintln(w, "FAIL", note)
	}

	col := func(rs []rep, f func(rep) float64) []float64 {
		out := make([]float64, 0, len(rs))
		for _, r := range rs {
			if r.err == nil {
				out = append(out, f(r))
			}
		}
		return out
	}
	walls := col(reps, func(r rep) float64 { return r.wall })
	ratio, variantWall, refWall, pairs := stats.PairedRatio(walls, col(refs, func(r rep) float64 { return r.wall }))
	values := map[string][]float64{
		"setup_s":              setups,
		"scan_wall_s":          walls,
		"probes_per_s":         col(reps, func(r rep) float64 { return float64(r.study.Report.Stats.Probed) / r.wall }),
		"endpoints_per_s":      col(reps, func(r rep) float64 { return float64(r.study.Report.Stats.Open) / r.wall }),
		"scan_cpu_s":           col(reps, func(r rep) float64 { return r.cpu }),
		"allocs_per_scan":      col(reps, func(r rep) float64 { return float64(r.mallocs) }),
		"alloc_bytes_per_scan": col(reps, func(r rep) float64 { return float64(r.bytes) }),
	}
	for _, m := range endToEnd {
		if m.name == "overhead_vs_mono" {
			res.Metrics[m.name] = metricValue{ratio, m.unit}
			fmt.Fprintf(w, "%-22s %.4f (%.4f s / %.4f s, n=%d)\n", m.name, ratio, variantWall, refWall, pairs)
			continue
		}
		s := stats.Summarize(values[m.name])
		res.Metrics[m.name] = metricValue{s.Median, m.unit}
		fmt.Fprintf(w, "%-22s %.6g %s (p25 %.6g, p75 %.6g, n=%d)\n", m.name, s.Median, m.unit, s.P25, s.P75, s.N)
	}
	if len(walls) > 0 && len(reps) > 0 && reps[0].err == nil {
		st := reps[0].study.Report.Stats
		fmt.Fprintf(w, "%-22s %d probes, %d open endpoints, %d targets, %d MAVs per scan\n", "size",
			st.Probed, st.Open, len(reps[0].study.Report.Apps), len(reps[0].study.Report.VulnerableObservations()))
	}
	fmt.Fprintf(w, "%-22s %.6g B (highest rep; not gated, see scanner.heap_peak_bytes)\n", "heap_peak",
		stats.Percentile(col(reps, func(r rep) float64 { return float64(r.heapPeak) }), 100))
	fmt.Fprintf(w, "%-22s %d/%d operations failed\n", "failed_share", res.Failed, res.Attempted)
	if o.workload.variant == ops {
		fmt.Fprintln(w, "note: table3-ops scrapes the ops plane over a real loopback TCP socket")
	}
	return res, nil
}
