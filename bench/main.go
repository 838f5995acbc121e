// Command bench is the repository's wall-clock benchmark: it stands CoCa up
// the way coca.Serve and coca.Dial do, over real loopback TCP, drives it with
// closed-loop load and reports what a client observes (see README.md).
//
//	bench -workload coord-replay -seed 7 -seconds 25 -trace 0   one workload, end-to-end metrics
//	bench -workload coord-replay -seed 7 -seconds 25 -trace 1   the same, traced: per-layer metrics
//	bench                                                       every workload, each in a fresh process
//	bench -repeat 10                                            the repeatability check
//
// A single-workload run prints its metrics by name and ends with one JSON
// line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "workload seed: shapes the generated traffic, never reaches the program under test")
		seconds  = flag.Int("seconds", 25, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
		repeat   = flag.Int("repeat", 0, "run this many full sets (at least 4), seeds seed..seed+N-1, and hold each end-to-end metric's spread and drift against its bound")
		outDir   = flag.String("out", "bench/out", "directory for span files")
	)
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 0 || *repeat > 0 && *repeat < 4 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second

	if *workload != "" {
		wl, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		rep, err := runWorkload(wl, refScale, *seed, window, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
			os.Exit(1)
		}
		printReport(wl.Name, rep, *trace == 1)
		fmt.Println(rep.line())
		return
	}

	sets := max(*repeat, 1)
	results := make(map[string][]*report) // by workload, one per set
	allCorrect := true
	for i := 0; i < sets; i++ {
		for _, wl := range workloads {
			rep, err := runChild(wl.Name, *seed+uint64(i), os.Args[1:])
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				os.Exit(1)
			}
			allCorrect = allCorrect && rep.Correct
			results[wl.Name] = append(results[wl.Name], rep)
		}
	}
	if *repeat > 0 && *trace == 0 {
		allCorrect = printSpread(results) && allCorrect
	}
	if !allCorrect {
		fmt.Println("FAILED: see the checks above")
		os.Exit(1)
	}
	fmt.Println("all output checks passed")
}

// runChild runs one workload in a fresh process of this binary — so RSS, GC
// state and telemetry counters do not leak between workloads — passing its
// listing through and returning its parsed result line.
func runChild(workload string, seed uint64, args []string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Later flags win, so the parent's own arguments are forwarded as they
	// are and the child's workload and seed appended.
	args = append(append([]string(nil), args...), "-repeat", "0", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, err
	}
	text := strings.TrimRight(out.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Println(text[:max(cut, 0)])
	rep := newReport()
	if err := json.Unmarshal([]byte(text[cut+1:]), rep); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return rep, nil
}

// printReport lists every metric by name with its unit, and every failed
// check.
func printReport(workload string, r *report, traced bool) {
	defs, kind := endToEnd, "end-to-end"
	if traced {
		defs, kind = perLayer, "per-layer (traced)"
	}
	fmt.Printf("## %s — %s, %d ops attempted, %d failed\n", workload, kind, r.Attempted, r.Failed)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		n := ""
		if c, ok := r.samples[d.Name]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Printf("%-40s %14.4f %s%s\n", d.Name, m.Value, m.Unit, n)
	}
	for _, n := range r.notes {
		fmt.Printf("output %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
}

// printSpread prints, per workload and end-to-end metric, what the benchmark
// driver holds against the metric's bound: the spread (q3-q1)/median over all
// sets, and how much worse the median of the later half of the sets is than
// that of the earlier half (two sets of runs of the same code must agree
// within the bound). It reports whether every metric stayed within its bound;
// set-up's spread is shown but not held against it.
func printSpread(results map[string][]*report) bool {
	ok := true
	fmt.Println("\n| workload | metric | unit | median | q1 | q3 | spread | later half vs earlier | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range results[wl.Name] {
				vals = append(vals, r.Metrics[d.Name].Value)
			}
			q1, q2, q3 := quartiles(vals)
			spread := ratio(q3-q1, q2)
			half := len(vals) / 2
			_, early, _ := quartiles(vals[:half])
			_, late, _ := quartiles(vals[half:])
			worse := ratio(late-early, early)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound || spread > d.Bound && d.Name != "setup_s":
				verdict, ok = "OVER", false
			case spread > d.Bound/3:
				verdict = "ok (spread above a third)"
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.4f | %.1f%% | %+.1f%% worse | %.0f%% | %s |\n",
				wl.Name, d.Name, d.Unit, q2, q1, q3, 100*spread, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}
