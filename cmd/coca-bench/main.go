// Command coca-bench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	coca-bench -list
//	coca-bench -exp table2
//	coca-bench -exp all -scale 0.5 -csv
//	coca-bench -exp table2 -cpuprofile cpu.out -memprofile mem.out
//
// -list enumerates the experiment registry (the happy path when exploring).
// -exp runs one experiment (or "all") and prints its paper-style table.
// -cpuprofile/-memprofile write pprof profiles of the run. Wall-clock
// performance is measured by the bench/ harness, not here (see
// bench/README.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"coca/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (fig1a..fig10b, table1..table3) or \"all\"")
		scale      = flag.Float64("scale", 1.0, "run-length scale (1.0 = full experiment)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	// Dispatch returns instead of exiting so the deferred profile flushes
	// above run even on failure — the failing run is exactly the one worth
	// profiling. log.Fatal would os.Exit past them.
	var runErr error
	exitCode := 1
	switch {
	case *list:
		printRegistry(os.Stdout)
	case *exp == "":
		fmt.Fprintln(os.Stderr, "coca-bench: no experiment selected")
		fmt.Fprintln(os.Stderr, "usage: coca-bench -list | -exp <id|all> [-scale f] [-seed n] [-csv]")
		fmt.Fprintln(os.Stderr, "run coca-bench -list to see the experiment registry")
		runErr = fmt.Errorf("no mode selected")
		exitCode = 2
	default:
		runErr = runExperiments(*exp, experiments.Options{Scale: *scale, Seed: *seed}, *csv)
	}
	if runErr != nil {
		log.Print(runErr)
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			if f, err := os.Create(*memProfile); err == nil {
				runtime.GC()
				_ = pprof.WriteHeapProfile(f)
				f.Close()
			}
		}
		os.Exit(exitCode)
	}
}

func printRegistry(w *os.File) {
	fmt.Fprintln(w, "available experiments:")
	for _, e := range experiments.Registry() {
		fmt.Fprintf(w, "  %-8s %s\n           shape: %s\n", e.ID, e.Title, e.Shape)
	}
}

func runExperiments(id string, opts experiments.Options, csv bool) error {
	var targets []experiments.Experiment
	if id == "all" {
		targets = experiments.Registry()
	} else {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		targets = []experiments.Experiment{e}
	}
	for _, e := range targets {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if csv {
			fmt.Print(res.Table.CSV())
		} else {
			fmt.Print(res.Table.String())
		}
		fmt.Fprintf(os.Stderr, "# %s completed in %.1fs\n\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}
