// Command acrreport joins two sets of run profiles and emits a per-metric
// delta table with regression gating: exit status 1 when any metric drifted
// beyond the threshold or exists on only one side. It turns profile drift
// checks into a CI tool instead of eyeballing.
//
// Usage:
//
//	acrreport [-threshold 0.05] [-metrics acr_sim_checkpoints_total,...]
//	          [-json] [-require-match] OLD NEW
//
// OLD and NEW are run-profile JSON files (acrsim -profile) or directories of
// them. Profiles join on their canonicalised meta, and any drift beyond the
// threshold regresses — the simulator is deterministic.
//
//	acrreport -threshold 0 -require-match profiles_before/ profiles_after/
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"acr/internal/report"
)

func main() {
	threshold := flag.Float64("threshold", 0.05, "relative regression threshold (0.05 = 5%)")
	metrics := flag.String("metrics", "", "comma-separated metric family allowlist; empty = all")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of a table")
	requireMatch := flag.Bool("require-match", false, "count unmatched join keys as regressions")
	flag.Parse()

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "acrreport: want exactly two artifacts: OLD NEW")
		flag.Usage()
		os.Exit(2)
	}

	opt := report.Options{Threshold: *threshold, RequireMatch: *requireMatch}
	for _, m := range strings.Split(*metrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			opt.Metrics = append(opt.Metrics, m)
		}
	}

	oldSet, err := report.LoadProfiles(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newSet, err := report.LoadProfiles(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	rep := report.DiffProfiles(oldSet, newSet, opt)

	if *asJSON {
		err = rep.RenderJSON(os.Stdout)
	} else {
		err = rep.Render(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if rep.Regressions > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acrreport:", err)
	os.Exit(1)
}
