// Command treebench regenerates the paper's evaluation: the §5.1 plan
// validation, Fig. 4, Table 1 (QE1–QE6), Fig. 6, and the §5.3 positional
// chains, printing the same rows and series the paper reports. The layers
// the paper does not have (HTTP serving, ingest, corpora, snapshots) are
// measured by the benchmark/ module instead.
//
// Usage:
//
//	treebench -exp all            # every experiment at paper scale
//	treebench -exp table1 -quick  # one experiment at reduced scale
//	treebench -exp table1 -json BENCH_table1.json  # per-cell ns/allocs/bytes
//	treebench -exp table1 -algs nl,sc,auto         # choose the measured algorithms
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"xqtp"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: validate, fig4, table1, fig6, sec53, all")
		quick    = flag.Bool("quick", false, "reduced document sizes for a fast run")
		seed     = flag.Int64("seed", 1, "generator seed")
		repeats  = flag.Int("repeats", 3, "timed runs per measurement (median reported)")
		jsonPath = flag.String("json", "", "write the report as JSON to this file (table1 only)")
		algsFlag = flag.String("algs", "", "comma-separated algorithms for table1/fig6 (nl, sc, twig, auto; default nl,twig,sc)")
	)
	flag.Parse()

	if *jsonPath != "" && *exp != "table1" {
		fmt.Fprintf(os.Stderr, "treebench: -json applies only to -exp table1, not %q\n", *exp)
		os.Exit(2)
	}

	// An interrupt abandons the sweep at the next between-cell checkpoint
	// instead of grinding through the remaining measurements; a second
	// interrupt (after ctx is done) kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := xqtp.DefaultExperimentOptions()
	if *quick {
		opts = xqtp.QuickExperimentOptions()
	}
	opts.Seed = *seed
	opts.Repeats = *repeats
	opts.Context = ctx
	if *algsFlag != "" {
		for _, part := range strings.Split(*algsFlag, ",") {
			alg, err := xqtp.ParseAlgorithm(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "treebench: %v\n", err)
				os.Exit(2)
			}
			opts.Algorithms = append(opts.Algorithms, alg)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	var err error
	switch *exp {
	case "validate":
		err = xqtp.RunValidation(w)
	case "fig4":
		err = xqtp.RunFigure4(w, opts)
	case "table1":
		err = xqtp.RunTable1(w, opts, *jsonPath)
	case "fig6":
		err = xqtp.RunFigure6(w, opts)
	case "sec53":
		err = xqtp.RunSection53(w, opts)
	case "all":
		err = xqtp.RunAll(w, opts)
	default:
		fmt.Fprintf(os.Stderr, "treebench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err != nil {
		w.Flush()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "treebench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "treebench:", err)
		os.Exit(1)
	}
}
