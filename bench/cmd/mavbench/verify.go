package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"

	"mavscan"
	"mavscan/internal/iprange"
)

// verdict counts the operations one run checked and how many failed.
type verdict struct {
	attempted, failed int
	notes             []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.attempted++
	if !ok {
		v.failed++
		if len(v.notes) < 20 {
			v.notes = append(v.notes, fmt.Sprintf(format, args...))
		}
	}
}

// reportChecks is the number of report-level checks per rep.
const reportChecks = 4

// digest is the SHA-256 of a value's canonical JSON.
func digest(v any) (sum string, size int, err error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", 0, err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), len(b), nil
}

// reportDigest canonicalizes a report the way the repo's byte-identity
// tests do: JSON with the wall-clock Elapsed field zeroed.
func reportDigest(r *mavscan.ScanReport) (sum string, size int, err error) {
	cp := *r
	cp.Stats.Elapsed = 0
	return digest(&cp)
}

// perturbed returns a copy of r without its first vulnerable observation.
func perturbed(r *mavscan.ScanReport) *mavscan.ScanReport {
	cp := *r
	for i, o := range r.Apps {
		if o.Vulnerable() {
			cp.Apps = append(append([]mavscan.AppObservation(nil), r.Apps[:i]...), r.Apps[i+1:]...)
			break
		}
	}
	return &cp
}

func goldenPath(o options, name string) string {
	return filepath.Join(o.dir, "golden", name+".sha256")
}

// readGolden returns the recorded seed-1 digest of a workload, or "" when
// golden digests do not apply to this run.
func readGolden(o options, name string) (string, error) {
	if o.seed != 1 || o.smoke || o.updateGolden {
		return "", nil
	}
	b, err := os.ReadFile(goldenPath(o, name))
	if err != nil {
		return "", fmt.Errorf("golden digest: %w (run mavbench -update-golden)", err)
	}
	return strings.TrimSpace(string(b)), nil
}

// scanSpace is the address set a config scans and its probe-pair count.
func scanSpace(cfg mavscan.ScanConfig, world *mavscan.World) (*iprange.Set, uint64, error) {
	targets := cfg.Scan.Targets
	if len(targets) == 0 {
		targets = world.Geo.Prefixes()
	}
	set, err := iprange.FromPrefixes(targets)
	if err != nil {
		return nil, 0, err
	}
	ports := cfg.Scan.Ports
	if len(ports) == 0 {
		ports = mavscan.ScanPorts()
	}
	return set, set.NumAddresses() * uint64(len(ports)), nil
}

// verify checks every rep of a run. Per rep the operations are: one per
// ground-truth vulnerable host in the scanned space (must be reported
// vulnerable), one per reported observation (application and verdict must
// match the world's spec for that address), and four report-level checks.
// A rep that returned an error fails all of its operations.
func verify(o options, cfg mavscan.ScanConfig, reps, refs []rep) (verdict, error) {
	var v verdict
	golden, err := readGolden(o, o.workload.name)
	if err != nil {
		return v, err
	}
	refGolden, err := readGolden(o, reference)
	if err != nil {
		return v, err
	}

	// The reference reps anchor check 2: they must agree with each other
	// (and with the golden digest at seed 1) before anything is compared
	// against them.
	var refSum, refApps string
	refOK := true
	for _, r := range refs {
		if r.err != nil {
			refOK = false
			v.notes = append(v.notes, fmt.Sprintf("reference rep: %v", r.err))
			continue
		}
		sum, _, err := reportDigest(r.study.Report)
		if err != nil {
			return v, err
		}
		if refSum == "" {
			refSum = sum
			if refApps, _, err = digest(r.study.Report.Apps); err != nil {
				return v, err
			}
		}
		if sum != refSum || (refGolden != "" && sum != refGolden) {
			refOK = false
		}
	}

	var first string
	lastOps := reportChecks
	for i, r := range reps {
		if r.err != nil {
			v.attempted += lastOps
			v.failed += lastOps
			v.notes = append(v.notes, fmt.Sprintf("rep %d: %v", i, r.err))
			continue
		}
		before := v.attempted
		report, world := r.study.Report, r.study.World
		if o.perturb {
			report = perturbed(report)
		}
		space, pairs, err := scanSpace(cfg, world)
		if err != nil {
			return v, err
		}

		type key struct {
			ip  netip.Addr
			app mavscan.App
		}
		reported := make(map[key]bool, len(report.Apps))
		for _, obs := range report.Apps {
			reported[key{obs.IP, obs.App}] = obs.Vulnerable()
			spec, ok := world.SpecFor(obs.IP)
			v.check(ok && spec.App == obs.App && spec.Vulnerable == obs.Vulnerable(),
				"rep %d: observation %s %s vulnerable=%v does not match the world", i, obs.IP, obs.App, obs.Vulnerable())
		}
		for _, spec := range world.VulnerableSpecs() {
			if !space.Contains(spec.IP) {
				continue
			}
			v.check(reported[key{spec.IP, spec.App}],
				"rep %d: vulnerable host %s (%s) not reported vulnerable", i, spec.IP, spec.App)
		}

		sum, _, err := reportDigest(report)
		if err != nil {
			return v, err
		}
		if first == "" {
			first = sum
		}
		v.check(sum == first && (golden == "" || sum == golden),
			"rep %d: report digest %s differs from the other reps or the golden digest", i, sum)

		// Check 2: how the report must relate to the reference's.
		switch {
		case !refOK:
			v.check(false, "rep %d: reference reps disagree with each other or their golden digest", i)
		case o.workload.relation == sameReport:
			v.check(sum == refSum, "rep %d: report digest differs from table3-mono's", i)
		case o.workload.relation == sameApps:
			apps, _, err := digest(report.Apps)
			if err != nil {
				return v, err
			}
			v.check(apps == refApps, "rep %d: benign Apps digest differs from table3-mono's", i)
		default:
			v.check(true, "")
		}

		v.check(report.Stats.Probed+report.Stats.Excluded == pairs,
			"rep %d: probed %d + excluded %d != %d address-port pairs", i, report.Stats.Probed, report.Stats.Excluded, pairs)

		responders := 0
		for _, c := range report.HTTPResponses {
			responders += c
		}
		for _, c := range report.HTTPSResponses {
			responders += c
		}
		mavs := len(report.VulnerableObservations())
		v.check(int(report.Stats.Open) >= responders && responders >= len(report.Apps) && len(report.Apps) >= mavs,
			"rep %d: funnel not monotone: open %d, responders %d, targets %d, MAVs %d", i, report.Stats.Open, responders, len(report.Apps), mavs)

		lastOps = v.attempted - before
	}

	if o.updateGolden && v.failed == 0 && first != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath(o, o.workload.name)), 0o755); err != nil {
			return v, err
		}
		if err := os.WriteFile(goldenPath(o, o.workload.name), []byte(first+"\n"), 0o644); err != nil {
			return v, err
		}
	}
	return v, nil
}
