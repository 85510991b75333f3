package main

import (
	"time"

	"mavscan"
)

// A workload is one named ScanConfig. Names are normative: later issues
// cite them when they claim or deny a change.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json repeats.
	why string
	// config returns the ScanConfig at a seed, before per-rep resources
	// (journal, ops plane) are attached by prepare.
	config func(seed int64) mavscan.ScanConfig
	// variant selects the per-rep resources prepare attaches.
	variant variant
	// relation is how the workload's report must relate to the reference
	// workload's report at the same seed.
	relation relation
}

type relation int

const (
	unrelated  relation = iota // a different world
	sameReport                 // the same world: byte-identical report
	sameApps                   // the same benign world: identical Apps
)

type variant int

const (
	plain   variant = iota
	sharded         // in-process scheduler + fsynced journal
	fabric          // coordinator + 2 pipe-transport workers + journal
	ops             // telemetry + ops plane + one loopback scraper
)

// table3Population is the historical benchScanConfig world every table3-*
// workload and hostile-10pct scan.
func table3Population(seed int64) mavscan.PopulationConfig {
	return mavscan.PopulationConfig{
		Seed: seed, HostScale: 8000, VulnScale: 8,
		BackgroundScale: 400000, WildcardScale: 400000,
	}
}

func table3Config(seed int64) mavscan.ScanConfig {
	return mavscan.ScanConfig{
		Population: table3Population(seed),
		Scan:       mavscan.ScanOptions{Seed: uint64(seed)},
	}
}

// reference is the workload every run interleaves with its own reps:
// overhead_vs_mono is the paired ratio against it, and the table3 family's
// reports must equal its report.
const reference = "table3-mono"

var workloads = []workload{
	{
		name: "sweep-sparse",
		why:  "62.9M probes over a lazy 4x world with 1249 open endpoints: Stage I and the lazy miss path do about 80% of the work, the HTTP stages little.",
		config: func(seed int64) mavscan.ScanConfig {
			return mavscan.ScanConfig{
				Population: mavscan.PopulationConfig{
					Seed: seed, HostScale: 32000, VulnScale: 32,
					BackgroundScale: 1600000, WildcardScale: 1600000,
					PopScale: 4, Lazy: true,
				},
				Scan: mavscan.ScanOptions{Seed: uint64(seed)},
			}
		},
	},
	{
		name: "http-dense",
		why:  "15.7M probes, 4090 endpoints, 3370 targets, eager world: dial, TLS, prefilter, plugins and fingerprint crawl do about 85% of the CPU.",
		config: func(seed int64) mavscan.ScanConfig {
			return mavscan.ScanConfig{
				Population: mavscan.PopulationConfig{
					Seed: seed, HostScale: 2000, VulnScale: 2,
					BackgroundScale: 200000, WildcardScale: 400000,
				},
				Scan: mavscan.ScanOptions{Seed: uint64(seed)},
			}
		},
	},
	{
		name:   "table3-mono",
		why:    "The historical Table 3 bench world scanned monolithically: balanced stages, and the reference every variant is priced against.",
		config: table3Config, relation: sameReport,
	},
	{
		name:    "table3-sharded",
		why:     "table3-mono through 4 shards and an fsynced file journal of 20 segments: prices the in-process scheduler, journal and merge.",
		config:  table3Config,
		variant: sharded, relation: sameReport,
	},
	{
		name:    "table3-fabric",
		why:     "table3-mono through a coordinator and 2 workers: prices leasing, the JSON wire, per-worker world regeneration and heartbeats.",
		config:  table3Config,
		variant: fabric, relation: sameReport,
	},
	{
		name:    "table3-ops",
		why:     "table3-mono with telemetry and the ops plane scraped over one loopback connection every 250 ms: prices observability as a paired delta.",
		config:  table3Config,
		variant: ops, relation: sameReport,
	},
	{
		name: "hostile-10pct",
		why:  "table3-mono plus a 10% weaponized stratum at a 150 ms budget: time goes to wall-budget kills, truncation and drains, not handshakes.",
		config: func(seed int64) mavscan.ScanConfig {
			cfg := table3Config(seed)
			cfg.Population.HostileRate = 0.1
			cfg.HTTPTimeout = 150 * time.Millisecond
			// Stage II drains one batch per port worker that found an open
			// port, each batch serially. Of the default 64 workers only 14
			// to 33 get scheduled before a 0.25 s sweep ends, and with the
			// batch count the scan jumps between 1.9 s and 3.3 s. Sixteen
			// workers all run, so every rep drains sixteen batches.
			cfg.Scan.PortWorkers = 16
			return cfg
		},
		relation: sameApps,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one declared metric: BENCHMARK.json lists the same names and
// units, and a test keeps the two in step.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run prints. Two of the issue's ten
// end-to-end figures are carried elsewhere: failed_share is 0 on every
// correct run, so it travels as the result's attempted/failed counts, and
// heap_peak_bytes swings by a third between identical reps with where the
// collections happen to fall, so it is a traced-pass figure without a bound
// (scanner.heap_peak_bytes).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"scan_wall_s", "s"},
	{"probes_per_s", "1/s"},
	{"endpoints_per_s", "1/s"},
	{"scan_cpu_s", "s"},
	{"allocs_per_scan", "count"},
	{"alloc_bytes_per_scan", "B"},
	{"overhead_vs_mono", "ratio"},
}

// perLayer are the metrics a --trace 1 run prints, layer by layer. A layer
// a workload does not use reports 0 for its counters.
var perLayer = []metric{
	{"population.generate_s", "s"},
	{"population.generate_alloc_bytes", "B"},
	{"population.lazy_miss_ns", "ns"},
	{"population.lazy_miss_allocs", "count"},
	{"population.materialize_us", "us"},
	{"population.resident_hosts", "count"},

	{"simnet.probe_ns", "ns"},
	{"simnet.dial_ns", "ns"},
	{"simnet.dial_allocs", "count"},

	{"portscan.scan_s", "s"},
	{"portscan.cpu_s", "s"},
	{"portscan.ns_per_probe", "ns"},
	{"portscan.probes", "count"},
	{"portscan.open", "count"},
	{"portscan.excluded", "count"},
	{"portscan.batches", "count"},
	{"portscan.allocs_per_kprobe", "count"},

	{"httpsim.get_http_us", "us"},
	{"httpsim.get_https_us", "us"},
	{"httpsim.tls_handshake_us", "us"},
	{"httpsim.get_allocs", "count"},
	{"httpsim.dials_per_target", "ratio"},
	{"httpsim.tls_dial_share", "ratio"},

	{"prefilter.busy_s", "s"},
	{"prefilter.probe_p50_us", "us"},
	{"prefilter.probe_p99_us", "us"},
	{"prefilter.endpoints", "count"},
	{"prefilter.relevant_share", "ratio"},
	{"prefilter.allocs_per_probe", "count"},
	{"prefilter.match_ns", "ns"},

	{"tsunami.busy_s", "s"},
	{"tsunami.scan_p50_us", "us"},
	{"tsunami.scan_p99_us", "us"},
	{"tsunami.targets", "count"},
	{"tsunami.vuln_share", "ratio"},
	{"tsunami.allocs_per_target", "count"},

	{"fingerprint.busy_s", "s"},
	{"fingerprint.fp_p50_us", "us"},
	{"fingerprint.fp_p99_us", "us"},
	{"fingerprint.identified_share", "ratio"},
	{"fingerprint.crawl_share", "ratio"},
	{"fingerprint.allocs_per_target", "count"},

	{"scanner.stage1_s", "s"},
	{"scanner.stage23_tail_s", "s"},
	{"scanner.layer_sum_cpu_s", "s"},
	{"scanner.parallel_efficiency", "ratio"},
	{"scanner.heap_peak_bytes", "B"},

	{"orchestrator.plan_s", "s"},
	{"orchestrator.segments", "count"},
	{"orchestrator.journal_append_p50_us", "us"},
	{"orchestrator.journal_append_p99_us", "us"},
	{"orchestrator.journal_bytes", "B"},
	{"orchestrator.replay_s", "s"},
	{"orchestrator.merge_s", "s"},

	{"fabric.rpc_calls", "count"},
	{"fabric.rpc_bytes", "B"},
	{"fabric.rpc_busy_s", "s"},
	{"fabric.rpc_p99_us", "us"},
	{"fabric.leases_granted", "count"},
	{"fabric.leases_expired", "count"},
	{"fabric.world_regens", "count"},

	{"telemetry.trace_overhead_ratio", "ratio"},
	{"telemetry.spans", "count"},
	{"telemetry.spans_dropped", "count"},
	{"obs.scrape_p50_us", "us"},
	{"obs.scrape_p99_us", "us"},

	{"adversary.tarpit_probe_ms", "ms"},
	{"adversary.slowloris_probe_ms", "ms"},
	{"adversary.bodyflood_probe_ms", "ms"},
	{"adversary.headerbomb_probe_ms", "ms"},
	{"adversary.redirectmaze_probe_ms", "ms"},
	{"adversary.gzipbomb_probe_ms", "ms"},
	{"limits.truncated_total", "count"},
	{"adversary.hostile_hosts", "count"},

	{"report.digest_s", "s"},
	{"report.json_bytes", "B"},
}
