package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mavscan"
	"mavscan/bench/span"
	"mavscan/bench/stats"
	"mavscan/internal/fingerprint"
	"mavscan/internal/httpsim"
	"mavscan/internal/iprange"
	"mavscan/internal/limits"
	"mavscan/internal/portscan"
	"mavscan/internal/prefilter"
	"mavscan/internal/simnet"
	"mavscan/internal/tsunami"
)

// layerMetrics accumulates the traced pass's metric values by name.
type layerMetrics map[string]float64

// mallocs is the process's cumulative allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// perCall divides a total by a call count, 0 when nothing was called.
func perCall(total float64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return total / float64(calls)
}

// micros is a duration in microseconds, with its fraction.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// seconds sums per-call microseconds into seconds.
func seconds(us []float64) float64 {
	t := 0.0
	for _, v := range us {
		t += v
	}
	return t / 1e6
}

// serialPass is the first half of the traced run. It rebuilds the
// workload's world and drives each layer serially from outside, on the
// inputs recorded from the layer before: the port sweep into a recording
// sink, prefilter.Probe per open endpoint, tsunami.Engine.Scan and
// fingerprint.Fingerprint per target. Every call is a span under root; the
// per-layer metrics land in m.
type serialPass struct {
	ctx  context.Context
	cfg  mavscan.ScanConfig
	rec  *span.Recorder
	root *span.Open
	m    layerMetrics

	world *mavscan.World
	inj   *countingInjector
	space *iprange.Set
	// generate holds the GenerateWorld timings.
	generate []float64

	// What each layer recorded for the next: the sweep's open endpoints in
	// address order, the application hosts among them (the benign sample
	// the micro-measurements draw from), whether each endpoint answered
	// HTTPS, and the Stage-III targets.
	stats    portscan.Stats
	open     []portscan.Result
	appHosts []portscan.Result
	tls      map[endpoint]bool
	targets  []tsunami.Target
	vuln     int

	// pre is the Stage-II prober, assembled as scanner.New assembles it.
	pre *prefilter.Prefilter
}

func (p *serialPass) run() error {
	for _, step := range []func() error{p.sweep, p.probesAndDials, p.httpStages, p.exchanges, p.adversaries} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// generateWorld is the population layer's one call.
func (p *serialPass) generateWorld() (*mavscan.World, error) {
	_, bytes0 := mallocs()
	sp := p.rec.Start(p.root, "population", "population.Generate")
	world, err := mavscan.GenerateWorld(p.cfg.Population)
	p.generate = append(p.generate, sp.End().Seconds())
	_, bytes1 := mallocs()
	p.m["population.generate_alloc_bytes"] = float64(bytes1 - bytes0)
	p.m["population.generate_s"] = stats.Median(p.generate)
	return world, err
}

// sweep generates the world, installs the counting injector and runs the
// isolated port sweep into a recording sink.
func (p *serialPass) sweep() error {
	world, err := p.generateWorld()
	if err != nil {
		return err
	}
	p.world = world
	p.inj = newCountingInjector()
	world.Net.SetFaults(p.inj)
	if p.space, _, err = scanSpace(p.cfg, world); err != nil {
		return err
	}
	targets := p.cfg.Scan.Targets
	if len(targets) == 0 {
		targets = world.Geo.Prefixes()
	}

	var mu sync.Mutex
	batches := 0
	count0, _ := mallocs()
	cpu0 := cpuSeconds()
	sp := p.rec.Start(p.root, "portscan", "portscan.ScanBatches")
	st, err := portscan.New(world.Net).ScanBatches(p.ctx, portscan.Config{
		Targets: targets, Ports: mavscan.ScanPorts(), Seed: p.cfg.Scan.Seed,
	}, func(batch []portscan.Result) {
		mu.Lock()
		p.open = append(p.open, batch...)
		batches++
		mu.Unlock()
	})
	wall := sp.End().Seconds()
	cpu := cpuSeconds() - cpu0
	count1, _ := mallocs()
	if err != nil {
		return err
	}
	p.stats = st
	p.m["portscan.scan_s"] = wall
	p.m["portscan.cpu_s"] = cpu
	p.m["portscan.ns_per_probe"] = wall * 1e9 / float64(st.Probed)
	p.m["portscan.probes"] = float64(st.Probed)
	p.m["portscan.open"] = float64(st.Open)
	p.m["portscan.excluded"] = float64(st.Excluded)
	p.m["portscan.batches"] = float64(batches)
	p.m["portscan.allocs_per_kprobe"] = float64(count1-count0) / (float64(st.Probed) / 1000)
	p.m["population.resident_hosts"] = float64(world.MaterializedHosts())

	sort.Slice(p.open, func(i, j int) bool {
		if p.open[i].IP != p.open[j].IP {
			return p.open[i].IP.Less(p.open[j].IP)
		}
		return p.open[i].Port < p.open[j].Port
	})
	for _, r := range p.open {
		if spec, ok := world.SpecFor(r.IP); ok && spec.Port == r.Port {
			p.appHosts = append(p.appHosts, r)
		}
	}
	if len(p.appHosts) == 0 {
		return errors.New("traced pass: the sweep found no application host")
	}
	return nil
}

// probesAndDials times the network primitives alone: a probe of an address
// that resolves to nothing (the population's miss path), a probe of a
// closed port on a resident host, dial + close, and the first dial to an
// occupied address of a fresh world (which, in a lazy world, materializes
// the host).
func (p *serialPass) probesAndDials() error {
	net := p.world.Net
	var empty, closed []endpoint
	stride := p.space.NumAddresses()/4096 + 1
	for i := uint64(0); i < p.space.NumAddresses(); i += stride {
		if ip := p.space.Addr(i); errors.Is(net.ProbePort(ip, 80), simnet.ErrHostUnreachable) {
			empty = append(empty, endpoint{ip, 80})
		}
	}
	for _, r := range p.appHosts {
		for _, port := range mavscan.ScanPorts() {
			if err := net.ProbePort(r.IP, port); err != nil && !errors.Is(err, simnet.ErrHostUnreachable) {
				closed = append(closed, endpoint{r.IP, port})
				break
			}
		}
		if len(closed) == 256 {
			break
		}
	}
	const probeLoops = 200000
	timeProbes := func(layer, name string, eps []endpoint) (nsPer, allocsPer float64) {
		if len(eps) == 0 {
			return 0, 0
		}
		c0, _ := mallocs()
		sp := p.rec.Start(p.root, layer, name)
		for i := 0; i < probeLoops; i++ {
			e := eps[i%len(eps)]
			net.ProbePort(e.ip, e.port)
		}
		d := sp.End()
		c1, _ := mallocs()
		return float64(d.Nanoseconds()) / probeLoops, float64(c1-c0) / probeLoops
	}
	p.m["population.lazy_miss_ns"], p.m["population.lazy_miss_allocs"] = timeProbes("population", "simnet.ProbePort miss", empty)
	p.m["simnet.probe_ns"], _ = timeProbes("simnet", "simnet.ProbePort closed", closed)

	const dialLoops = 2000
	c0, _ := mallocs()
	sp := p.rec.Start(p.root, "simnet", "simnet.Dial")
	for i := 0; i < dialLoops; i++ {
		r := p.appHosts[i%len(p.appHosts)]
		conn, err := net.Dial(p.ctx, r.IP, r.Port)
		if err != nil {
			return fmt.Errorf("traced pass: dial %s:%d: %w", r.IP, r.Port, err)
		}
		conn.Close()
	}
	d := sp.End()
	c1, _ := mallocs()
	p.m["simnet.dial_ns"] = float64(d.Nanoseconds()) / dialLoops
	p.m["simnet.dial_allocs"] = float64(c1-c0) / dialLoops

	fresh, err := p.generateWorld()
	if err != nil {
		return err
	}
	var firstDial []float64
	group := p.rec.Start(p.root, "population", "population.materialize")
	defer group.End()
	for i, r := range p.appHosts {
		if i == 256 {
			break
		}
		sp := p.rec.Start(group, "population", "simnet.Dial first")
		conn, err := fresh.Net.Dial(p.ctx, r.IP, r.Port)
		firstDial = append(firstDial, micros(sp.End()))
		if err != nil {
			return fmt.Errorf("traced pass: first dial %s:%d: %w", r.IP, r.Port, err)
		}
		conn.Close()
	}
	p.m["population.materialize_us"] = stats.Median(firstDial)
	return nil
}

// layer times fn once per item under one group span and returns the
// per-call durations in microseconds plus the allocations per call.
func (p *serialPass) layer(name, call string, n int, fn func(i int)) (us []float64, allocs float64) {
	c0, _ := mallocs()
	group := p.rec.Start(p.root, name, name)
	for i := 0; i < n; i++ {
		sp := p.rec.Start(group, name, call)
		fn(i)
		us = append(us, micros(sp.End()))
	}
	group.End()
	c1, _ := mallocs()
	return us, perCall(float64(c1-c0), n)
}

// httpStages drives prefilter, tsunami and fingerprint, each on what the
// layer before recorded, and counts the dials the three of them made.
func (p *serialPass) httpStages() error {
	timeout := p.cfg.HTTPTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	net := p.world.Net
	client := httpsim.NewClient(net, httpsim.ClientOptions{Timeout: timeout, DisableKeepAlives: true})
	p.pre = prefilter.NewWithClient(httpsim.NewClient(net, httpsim.ClientOptions{
		Timeout: timeout, MaxRedirects: 5, DisableKeepAlives: true,
	}))
	engine := tsunami.NewEngine(mavscan.NewDetectorRegistry(), client)
	fp := fingerprint.New(tsunami.NewEnv(client))
	p.inj.reset()

	// prefilter: one Probe per open endpoint; targets are created as the
	// pipeline's aggregator creates them, first matching port per
	// (host, application).
	results := make([]prefilter.Result, len(p.open))
	us, allocs := p.layer("prefilter", "prefilter.Probe", len(p.open), func(i int) {
		results[i] = p.pre.Probe(p.ctx, p.open[i].IP, p.open[i].Port)
	})
	type hostApp struct {
		ip  netip.Addr
		app mavscan.App
	}
	seen := map[hostApp]bool{}
	relevant := 0
	p.tls = map[endpoint]bool{}
	for _, res := range results {
		p.tls[endpoint{res.IP, res.Port}] = res.HTTPS
		if res.Relevant() {
			relevant++
		}
		for _, app := range res.Apps {
			if k := (hostApp{res.IP, app}); !seen[k] {
				seen[k] = true
				p.targets = append(p.targets, tsunami.Target{IP: res.IP, Port: res.Port, Scheme: res.Scheme, App: app})
			}
		}
	}
	p.m["prefilter.busy_s"] = seconds(us)
	p.m["prefilter.probe_p50_us"] = stats.Median(us)
	p.m["prefilter.probe_p99_us"], _ = stats.Tail(us)
	p.m["prefilter.endpoints"] = float64(len(p.open))
	p.m["prefilter.relevant_share"] = perCall(float64(relevant), len(p.open))
	p.m["prefilter.allocs_per_probe"] = allocs

	us, allocs = p.layer("tsunami", "tsunami.Engine.Scan", len(p.targets), func(i int) {
		if len(engine.Scan(p.ctx, p.targets[i])) > 0 {
			p.vuln++
		}
	})
	p.m["tsunami.busy_s"] = seconds(us)
	p.m["tsunami.scan_p50_us"] = stats.Median(us)
	p.m["tsunami.scan_p99_us"], _ = stats.Tail(us)
	p.m["tsunami.targets"] = float64(len(p.targets))
	p.m["tsunami.vuln_share"] = perCall(float64(p.vuln), len(p.targets))
	p.m["tsunami.allocs_per_target"] = allocs

	identified, crawled := 0, 0
	us, allocs = p.layer("fingerprint", "fingerprint.Fingerprint", len(p.targets), func(i int) {
		res := fp.Fingerprint(p.ctx, p.targets[i])
		if res.Identified() {
			identified++
		}
		if res.Method == fingerprint.MethodHash {
			crawled++
		}
	})
	p.m["fingerprint.busy_s"] = seconds(us)
	p.m["fingerprint.fp_p50_us"] = stats.Median(us)
	p.m["fingerprint.fp_p99_us"], _ = stats.Tail(us)
	p.m["fingerprint.identified_share"] = perCall(float64(identified), len(p.targets))
	p.m["fingerprint.crawl_share"] = perCall(float64(crawled), len(p.targets))
	p.m["fingerprint.allocs_per_target"] = allocs

	var total, toTLS uint64
	for e, n := range p.inj.counts() {
		total += n
		if p.tls[e] {
			toTLS += n
		}
	}
	p.m["httpsim.dials_per_target"] = perCall(float64(total), len(p.targets))
	p.m["httpsim.tls_dial_share"] = perCall(float64(toTLS), int(total))
	return nil
}

// exchanges times single exchanges against up to 200 benign HTTP and 200
// benign HTTPS endpoints: one GET without redirects, one TLS handshake, and
// signature matching alone on the bodies the GETs returned.
func (p *serialPass) exchanges() error {
	client := httpsim.NewClient(p.world.Net, httpsim.ClientOptions{Timeout: 10 * time.Second, DisableKeepAlives: true})
	client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	var plain, secure []portscan.Result
	for _, r := range p.appHosts {
		if p.tls[endpoint{r.IP, r.Port}] {
			if len(secure) < 200 {
				secure = append(secure, r)
			}
		} else if len(plain) < 200 {
			plain = append(plain, r)
		}
	}
	var bodies []string
	get := func(scheme string, eps []portscan.Result) ([]float64, error) {
		var us []float64
		group := p.rec.Start(p.root, "httpsim", "httpsim GET "+scheme)
		defer group.End()
		for _, r := range eps {
			sp := p.rec.Start(group, "httpsim", "http.Client.Get")
			resp, err := client.Get(fmt.Sprintf("%s://%s:%d/", scheme, r.IP, r.Port))
			if err != nil {
				sp.End()
				return nil, fmt.Errorf("traced pass: GET %s://%s:%d/: %w", scheme, r.IP, r.Port, err)
			}
			body, _, _ := limits.ReadBody(resp.Body, limits.MaxBody)
			resp.Body.Close()
			us = append(us, micros(sp.End()))
			bodies = append(bodies, string(body))
		}
		return us, nil
	}
	c0, _ := mallocs()
	httpUS, err := get("http", plain)
	if err != nil {
		return err
	}
	httpsUS, err := get("https", secure)
	if err != nil {
		return err
	}
	c1, _ := mallocs()
	p.m["httpsim.get_http_us"] = stats.Median(httpUS)
	p.m["httpsim.get_https_us"] = stats.Median(httpsUS)
	p.m["httpsim.get_allocs"] = perCall(float64(c1-c0), len(httpUS)+len(httpsUS))

	var handshakes []float64
	group := p.rec.Start(p.root, "httpsim", "httpsim TLS handshake")
	for _, r := range secure {
		sp := p.rec.Start(group, "httpsim", "httpsim.FetchCertificate")
		_, err := httpsim.FetchCertificate(p.ctx, p.world.Net, r.IP, r.Port)
		handshakes = append(handshakes, micros(sp.End()))
		if err != nil {
			group.End()
			return fmt.Errorf("traced pass: %w", err)
		}
	}
	group.End()
	p.m["httpsim.tls_handshake_us"] = stats.Median(handshakes)

	if len(bodies) > 0 {
		const matchLoops = 2000
		sp := p.rec.Start(p.root, "prefilter", "prefilter.MatchBody")
		for i := 0; i < matchLoops; i++ {
			prefilter.MatchBody(bodies[i%len(bodies)])
		}
		p.m["prefilter.match_ns"] = float64(sp.End().Nanoseconds()) / matchLoops
	}
	return nil
}

// adversaries sends one prefilter.Probe to one host of each weaponized
// archetype the scanned space holds.
func (p *serialPass) adversaries() error {
	p.m["adversary.hostile_hosts"] = float64(p.world.Hostile)
	probed := map[string]bool{}
	for _, h := range p.world.HostileHosts() {
		name := "adversary." + strings.ReplaceAll(h.Archetype.String(), "-", "") + "_probe_ms"
		if probed[name] || !p.space.Contains(h.IP) {
			continue
		}
		probed[name] = true
		sp := p.rec.Start(p.root, "adversary", "prefilter.Probe "+h.Archetype.String())
		p.pre.Probe(p.ctx, h.IP, h.Port)
		p.m[name] = sp.End().Seconds() * 1e3
	}
	return nil
}

// writeSpans writes the recorder's spans to out/trace-<workload>.json.
func writeSpans(o options, rec *span.Recorder) (string, error) {
	out := filepath.Join(o.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(out, "trace-"+o.workload.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := span.WriteChrome(f, rec.Spans()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedPass is the --trace 1 run: the serial per-layer pass, then the
// integrated reps that attach the program's own telemetry registry.
func tracedPass(ctx context.Context, o options, procs int, w io.Writer) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	start := time.Now()
	cfg, refCfg, err := o.configs()
	if err != nil {
		return res, err
	}
	// One reference scan first: the integrated reps are verified against
	// it, and it warms the process up (a cold first sweep runs at half
	// speed), so the serial pass times the layers as a scan meets them.
	refs := []rep{timeScan(ctx, refCfg)}

	m := layerMetrics{}
	rec := span.NewRecorder(o.workload.name, 0)
	root := rec.Start(nil, "mavbench", "traced.serial")
	s := &serialPass{ctx: ctx, cfg: cfg, rec: rec, root: root, m: m}
	err = s.run()
	serialWall := root.End()
	if err != nil {
		return res, err
	}
	serialSpans := rec.Spans()
	v, err := integrated(ctx, o, cfg, procs, s, refs, rec, m, start, w)
	if err != nil {
		return res, err
	}
	path, err := writeSpans(o, rec)
	if err != nil {
		return res, err
	}

	res.Attempted, res.Failed, res.Correct = v.attempted, v.failed, v.failed == 0
	for _, note := range v.notes {
		fmt.Fprintln(w, "FAIL", note)
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
		fmt.Fprintf(w, "%-36s %.6g %s\n", d.name, m[d.name], d.unit)
	}

	// Where the serial pass's wall went, layer by layer. The root span's
	// own self time is the benchmark's glue between calls.
	self := span.LayerSelfTimes(serialSpans)
	layers := make([]string, 0, len(self))
	attributed := time.Duration(0)
	for name, d := range self {
		if name != "mavbench" {
			layers = append(layers, name)
			attributed += d
		}
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "serial pass: %.3f s wall, %.1f%% attributed to layer self times\n",
		serialWall.Seconds(), 100*attributed.Seconds()/serialWall.Seconds())
	for _, name := range layers {
		fmt.Fprintf(w, "  %-12s %8.3f s  %5.1f%%\n", name, self[name].Seconds(), 100*self[name].Seconds()/serialWall.Seconds())
	}
	fmt.Fprintf(w, "percentiles: *_p99_us is p%.0f of %d prefilter calls and p%.0f of %d tsunami/fingerprint calls (the highest with ten samples beyond it)\n",
		stats.TailRank(int(m["prefilter.endpoints"])), int(m["prefilter.endpoints"]),
		stats.TailRank(len(s.targets)), len(s.targets))
	fmt.Fprintf(w, "spans: %s\n", path)
	fmt.Fprintf(w, "%-22s %d/%d operations failed\n", "failed_share", res.Failed, res.Attempted)
	return res, nil
}
