package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"mavscan/bench/stats"
)

// child runs one workload's pass in a child process of this binary, so
// every workload starts from a fresh heap exactly as a contract run does,
// and returns the result parsed from the child's last line of output.
// Children run one at a time; child waits for each to end.
func child(o options, w workload, seed int64, trace int, stdout, stderr io.Writer) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{
		"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "-dir", o.dir,
	}
	for _, f := range []struct {
		flag string
		on   bool
	}{{"-smoke", o.smoke}, {"-perturb", o.perturb}, {"-update-golden", o.updateGolden}} {
		if f.on {
			args = append(args, f.flag)
		}
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	return res, nil
}

// runSuite runs every workload's measured pass and then every workload's
// traced pass, one child process after another. With -update-golden it
// runs the measured passes at seed 1 only.
func runSuite(o options, stdout, stderr io.Writer) int {
	if o.updateGolden {
		o.seed = 1
	}
	code := 0
	for trace := 0; trace <= 1; trace++ {
		if trace == 1 && o.updateGolden {
			break
		}
		for _, w := range workloads {
			res, err := child(o, w, o.seed, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "mavbench:", err)
				code = 1
			} else if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// declared is the part of BENCHMARK.json the A/A report needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readDeclared(dir string) (declared, error) {
	var d declared
	b, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// runAA runs the measured suite twice back to back on this binary, runs
// per workload in each set at seeds seed, seed+1, ..., and prints per
// (metric, workload) both medians, each set's spread (interquartile range
// over median), how much worse the second median is, and PASS or FAIL
// against the metric's bound. It is the same arithmetic the benchmark's
// acceptance applies, so the bounds in BENCHMARK.json are set from it.
func runAA(o options, runs int, stdout, stderr io.Writer) int {
	d, err := readDeclared(o.dir)
	if err != nil {
		fmt.Fprintln(stderr, "mavbench:", err)
		return 1
	}
	list := workloads
	if o.workload.name != "" {
		list = []workload{o.workload}
	}
	// values[set][workload][metric] are the runs' reported values.
	var values [2]map[string]map[string][]float64
	code := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range list {
			values[set][w.name] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := child(o, w, o.seed+int64(i), 0, io.Discard, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "mavbench:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(stderr, "mavbench: %s set %d run %d: %d of %d operations failed\n", w.name, set, i, res.Failed, res.Attempted)
					code = 1
				}
				for name, m := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "spreadA", "spreadB", "worse", "bound", "")
	for _, w := range list {
		for _, m := range d.EndToEnd {
			a, b := values[0][w.name][m.Name], values[1][w.name][m.Name]
			ma, mb := stats.Median(a), stats.Median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := stats.Spread(a), stats.Spread(b)
			verdict := "PASS"
			// setup_s is held to its bound on the medians only.
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "FAIL"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.6g %14.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, m.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
