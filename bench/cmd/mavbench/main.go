// Command mavbench is the repository's benchmark: seven named scan
// workloads driven through mavscan.RunScan, eight bounded end-to-end
// metrics plus the failed-operation count, and a separate traced pass that
// times calls into each layer from outside. See bench/README.md.
//
//	mavbench --workload table3-mono --seed 1 --seconds 8 --trace 0   one run, result JSON on the last line
//	mavbench                                                         every workload, measured then traced
//	mavbench -aa -runs 10                                            two sets of runs, compared against the bounds
//	mavbench -update-golden                                          rewrite golden/<workload>.sha256 at seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mavbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and print the result JSON (default: the whole suite)")
		seed    = fs.Int64("seed", 1, "sets Population.Seed and Scan.Seed")
		seconds = fs.Float64("seconds", 8, "how long one run measures")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced per-layer pass")
		dir     = fs.String("dir", "bench", "the benchmark's directory (golden/ is read there, out/ written there)")
		aa      = fs.Bool("aa", false, "run the measured suite twice and compare the two sets against the bounds")
		runs    = fs.Int("runs", 1, "with -aa: runs per workload in each set, each at its own seed")
		golden  = fs.Bool("update-golden", false, "rewrite golden/<workload>.sha256 from a seed-1 run of every workload")
		perturb = fs.Bool("perturb", false, "self-test: drop one observation from every report before verifying it")
		smoke   = fs.Bool("smoke", false, "tiny worlds, one rep: exercises every code path in seconds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mavbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	ctx := context.Background()
	base := options{seed: *seed, seconds: *seconds, dir: *dir, smoke: *smoke, perturb: *perturb, updateGolden: *golden}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "mavbench: unknown workload %q\n", *name)
			return 2
		}
		base.workload = w
	}
	switch {
	case *aa:
		return runAA(base, *runs, stdout, stderr)
	case *name == "":
		return runSuite(base, stdout, stderr)
	}
	res, err := runOne(ctx, base, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "mavbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "mavbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload's measured or traced pass in this process and
// prints the run record every result is filed with.
func runOne(ctx context.Context, o options, traced bool, w io.Writer) (result, error) {
	// Fail on a missing golden digest before measuring, not after.
	for _, name := range []string{o.workload.name, reference} {
		if _, err := readGolden(o, name); err != nil {
			return result{}, err
		}
	}
	start := time.Now()
	procs := setGOMAXPROCS()
	pass := "measured"
	if traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass): commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, closed loop of one client\n",
		o.workload.name, pass, commit(), runtime.Version(), runtime.NumCPU(), procs, o.seed)
	var res result
	var err error
	if traced {
		res, err = tracedPass(ctx, o, procs, w)
	} else {
		res, err = measured(ctx, o, w)
	}
	fmt.Fprintf(w, "%-22s %.3f s\n", "command_wall", time.Since(start).Seconds())
	return res, err
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
