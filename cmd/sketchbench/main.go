// Command sketchbench runs the experiment harness that regenerates every
// quantitative claim of the paper (experiments E1–E16 in DESIGN.md) and
// prints the result tables.
//
// Usage:
//
//	sketchbench                 # run every experiment at full scale
//	sketchbench -exp e6,e7      # run selected experiments
//	sketchbench -quick          # reduced sweeps and population sizes
//	sketchbench -users 50000    # override the base population size
//	sketchbench -list           # list available experiments
//	sketchbench -benchjson BENCH.json   # measure the PRF/sketch/query
//	                                    # kernels plus the durable-store
//	                                    # append and startup-replay paths,
//	                                    # writing machine-readable ns/op
//	                                    # and allocs/op, then exit
//	                                    # (-quick shrinks the replay to
//	                                    # 100k sketches for CI)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sketchprivacy/internal/experiment"
)

func main() {
	var (
		expFlag   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		quick     = flag.Bool("quick", false, "run reduced sweeps")
		users     = flag.Int("users", 0, "override base population size M")
		seed      = flag.Uint64("seed", 0, "override the random seed")
		listOnly  = flag.Bool("list", false, "list experiments and exit")
		benchJSON = flag.String("benchjson", "", "measure the kernel benchmarks and write JSON results to this path, then exit")
		checkOnly = flag.String("checkkernels", "", "verify the BENCH.json at this path carries every kernel named in kernels.txt, then exit")
		cpusFlag  = flag.String("cpus", "1,2,4", "comma-separated GOMAXPROCS values for the -benchjson core×lane matrix (empty skips it)")
		lanesFlag = flag.String("lanes", "scalar,8", "comma-separated PRF lane widths (scalar, 8) for the -benchjson matrix")
	)
	flag.Parse()

	if *checkOnly != "" {
		if err := checkKernels(*checkOnly); err != nil {
			fmt.Fprintf(os.Stderr, "checkkernels: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("kernel names match cmd/sketchbench/kernels.txt")
		return
	}

	if *listOnly {
		for _, r := range experiment.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *quick, *cpusFlag, *lanesFlag); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiment.DefaultConfig()
	if *quick {
		cfg = experiment.QuickConfig()
	}
	if *users > 0 {
		cfg.Users = *users
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	var runners []experiment.Runner
	if *expFlag == "" {
		runners = experiment.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			r, ok := experiment.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		tab, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Print(tab.String())
		fmt.Printf("(%s, %s, M=%d)\n\n", r.Title, time.Since(start).Round(time.Millisecond), cfg.Users)
	}
}
