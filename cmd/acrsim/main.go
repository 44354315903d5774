// Command acrsim runs one benchmark under one of the paper's
// configurations and reports the run summary.
//
// Usage:
//
//	acrsim -bench is [-config ReCkpt_E] [-strategy auto] [-threads 8]
//	       [-class W] [-ckpts 25] [-errors 1] [-threshold 0]
//	       [-v] [-trace out.json] [-metrics out.prom] [-profile out.json]
//	acrsim -list-strategies
//
// The configuration names follow the paper (§IV): NoCkpt, Ckpt_NE, Ckpt_E,
// ReCkpt_NE, ReCkpt_E and their ",Loc" coordinated-local variants, plus the
// strategy-engine spellings DiffCkpt_*, TierCkpt_* and AutoCkpt_*.
// -strategy overrides the scheme while keeping the -config modifiers, so
// `-config Ckpt_E -strategy tiered` runs TierCkpt_E; -list-strategies
// prints the available schemes and exits.
//
// -trace writes the run's cycle-domain timeline as Chrome trace-event JSON
// (load it at https://ui.perfetto.dev), -metrics writes a Prometheus text
// exposition and -profile a self-describing JSON run profile. Telemetry
// observes a deterministic replay of the configured run, so the reported
// summary is bit-identical with or without these flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"acr/internal/bench"
	"acr/internal/ckpt"
	"acr/internal/sim"
	"acr/internal/telemetry"
	"acr/internal/workloads"
)

func main() {
	benchName := flag.String("bench", "is", "benchmark: "+strings.Join(workloads.Names(), ", "))
	config := flag.String("config", "ReCkpt_NE", "configuration (paper §IV), e.g. NoCkpt, Ckpt_NE, ReCkpt_E, ReCkpt_NE,Loc")
	threads := flag.Int("threads", 8, "thread/core count")
	class := flag.String("class", "W", "problem class (S, W, A)")
	ckpts := flag.Int("ckpts", 0, "checkpoints per run (0 = paper default 25)")
	errs := flag.Int("errors", 0, "override error count for _E configurations")
	threshold := flag.Int("threshold", 0, "Slice-length threshold override (0 = benchmark default)")
	strategy := flag.String("strategy", "", "checkpoint-strategy override: full|amnesic|differential|tiered|auto (aliases: diff, tier); keeps -config's _E/,Loc modifiers")
	listStrategies := flag.Bool("list-strategies", false, "list the checkpoint strategies and exit")
	verbose := flag.Bool("v", false, "print checkpoint interval details")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	metricsOut := flag.String("metrics", "", "write Prometheus text exposition to this file")
	profileOut := flag.String("profile", "", "write JSON run profile to this file")
	flag.Parse()

	if *listStrategies {
		for _, k := range ckpt.Kinds() {
			fmt.Printf("%-13s %s\n", k, k.Describe())
		}
		return
	}

	cl, err := workloads.ClassByName(*class)
	if err != nil {
		fatal(err)
	}
	spec, err := parseSpec(*config)
	if err != nil {
		fatal(err)
	}
	if *strategy != "" {
		kind, err := ckpt.ParseKind(*strategy)
		if err != nil {
			fatal(err)
		}
		spec.Ckpt = true
		spec.Strategy = kind
	}
	spec.NumCkpts = *ckpts
	spec.Threshold = *threshold
	if *errs != 0 {
		spec.Errors = *errs
	}

	p := bench.Params{Threads: *threads, Class: cl}
	r := bench.NewRunner()

	// The NoCkpt baseline and the configured run go through the parallel
	// driver; the memoising cache deduplicates the baseline the
	// checkpointed run calibrates against.
	out, err := r.RunAll([]bench.Job{
		{Bench: *benchName, Params: p, Spec: bench.NoCkpt},
		{Bench: *benchName, Params: p, Spec: spec},
	})
	if err != nil {
		fatal(err)
	}
	base, res := out[0], out[1]

	if *traceOut != "" || *metricsOut != "" || *profileOut != "" {
		if err := exportTelemetry(r, *benchName, p, spec, res, *traceOut, *metricsOut, *profileOut); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("benchmark    %s (class %s, %d threads)\n", *benchName, cl.Name, *threads)
	fmt.Printf("config       %s\n", spec)
	if spec.Ckpt {
		fmt.Printf("strategy     %s\n", spec.Kind())
	}
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("instructions %d\n", res.Instrs)
	fmt.Printf("energy       %.3f uJ (dynamic %.3f uJ)\n", res.EnergyPJ/1e6, res.DynamicPJ/1e6)
	fmt.Printf("EDP          %.3e pJ*cyc\n", res.EDP())
	if spec.Ckpt {
		fmt.Printf("time ovh     %.2f%% vs NoCkpt\n",
			100*(float64(res.Cycles)-float64(base.Cycles))/float64(base.Cycles))
		fmt.Printf("energy ovh   %.2f%% vs NoCkpt\n",
			100*(res.EnergyPJ-base.EnergyPJ)/base.EnergyPJ)
		fmt.Printf("checkpoints  %d   recoveries %d\n", res.Ckpt.Checkpoints, res.Ckpt.Recoveries)
		fmt.Printf("logged words %d   omitted words %d", res.Ckpt.LoggedWords, res.Ckpt.OmittedWords)
		if total := res.Ckpt.LoggedWords + res.Ckpt.OmittedWords; total > 0 {
			fmt.Printf(" (%.2f%% of checkpointable volume omitted)",
				100*float64(res.Ckpt.OmittedWords)/float64(total))
		}
		fmt.Println()
		if res.Ckpt.DeltaWords > 0 {
			fmt.Printf("delta words  %d sealed per-epoch\n", res.Ckpt.DeltaWords)
		}
		if res.Ckpt.FastLogWords > 0 {
			fmt.Printf("fast tier    %d words logged, %d demoted to DRAM\n",
				res.Ckpt.FastLogWords, res.Ckpt.DemotedWords)
		}
		if res.Ckpt.MultiSnapshotRollbacks > 0 {
			fmt.Printf("rollbacks    %d spanning multiple checkpoints (max depth %d)\n",
				res.Ckpt.MultiSnapshotRollbacks, res.Ckpt.MaxRollbackDepth)
		}
		if res.Ckpt.Recoveries > 0 {
			fmt.Printf("restored     %d words, %d recomputed along Slices\n",
				res.Ckpt.RestoredWords, res.Ckpt.RecomputedWords)
		}
	}
	if spec.Strategy.Amnesic() {
		am := res.AddrMap
		fmt.Printf("AddrMap      %d inserts, %d too-long, %d hits/%d lookups, peak %d records / %d input words\n",
			am.Inserts, am.SliceTooLong, am.Hits, am.Lookups, am.PeakOccupancy, am.PeakInputWords)
	}
	if *verbose && len(res.Intervals) > 0 {
		fmt.Println("\ninterval  baseline-size  logged  omitted  reduction%")
		for i, iv := range res.Intervals {
			red := 0.0
			if iv.Size() > 0 {
				red = 100 * float64(iv.Omitted) / float64(iv.Size())
			}
			fmt.Printf("%8d  %13d  %6d  %7d  %10.2f\n", i+1, iv.Size(), iv.Logged, iv.Omitted, red)
		}
	}
}

// exportTelemetry replays the configured run once with a metrics Collector,
// the engine-diagnostics collector and (optionally) a Chrome tracer
// attached, then writes the requested artifacts. The replay reuses the
// calibrated period from the memoised run, so it must be bit-identical to
// the summary already printed. A divergence is a determinism bug and
// aborts the export rather than silently emitting a profile of a different
// execution.
func exportTelemetry(r *bench.Runner, benchName string, p bench.Params, spec bench.Spec,
	want sim.Result, traceOut, metricsOut, profileOut string) error {
	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)
	obs := []sim.Observer{col, telemetry.NewSchedCollector(reg)}

	var tracer *telemetry.Tracer
	if traceOut != "" {
		tf, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, p.Threads)
		obs = append(obs, tracer)
	}

	res, err := r.RunObserved(benchName, p, spec, obs...)
	if err != nil {
		return err
	}
	if res.Cycles != want.Cycles || res.Instrs != want.Instrs {
		return fmt.Errorf("telemetry replay diverged from the reported run: %d cycles / %d instrs, want %d / %d — determinism bug, export aborted",
			res.Cycles, res.Instrs, want.Cycles, want.Instrs)
	}
	col.ObserveResult(res)

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace %s: %w", traceOut, err)
		}
	}
	if metricsOut != "" {
		if err := writeFile(metricsOut, reg.WritePrometheus); err != nil {
			return err
		}
	}
	if profileOut != "" {
		meta := map[string]string{
			"bench":   benchName,
			"class":   p.Class.Name,
			"threads": strconv.Itoa(p.Threads),
			"config":  spec.String(),
		}
		return writeFile(profileOut, func(w io.Writer) error {
			return telemetry.WriteProfile(w, meta, reg)
		})
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// specPrefixes maps a configuration-name prefix to its checkpoint strategy.
// The full grammar is <prefix>_NE|_E[,Loc]; underscores and the ",Loc" comma
// are optional, matching the paper's spelling and the older flat aliases
// (ckptneloc etc.).
var specPrefixes = map[string]ckpt.Kind{
	"ckpt":     ckpt.KindFull,
	"reckpt":   ckpt.KindAmnesic,
	"diffckpt": ckpt.KindDifferential,
	"tierckpt": ckpt.KindTiered,
	"autockpt": ckpt.KindAuto,
}

func parseSpec(name string) (bench.Spec, error) {
	n := strings.ToLower(strings.ReplaceAll(name, " ", ""))
	if n == "nockpt" {
		return bench.NoCkpt, nil
	}
	spec := bench.Spec{Ckpt: true}
	if rest, ok := strings.CutSuffix(n, ",loc"); ok {
		spec.Local = true
		n = rest
	} else if rest, ok := strings.CutSuffix(n, "loc"); ok {
		spec.Local = true
		n = rest
	}
	switch {
	case strings.HasSuffix(n, "_ne"):
		n = strings.TrimSuffix(n, "_ne")
	case strings.HasSuffix(n, "ne"):
		n = strings.TrimSuffix(n, "ne")
	case strings.HasSuffix(n, "_e"):
		spec.Errors = 1
		n = strings.TrimSuffix(n, "_e")
	case strings.HasSuffix(n, "e"):
		spec.Errors = 1
		n = strings.TrimSuffix(n, "e")
	default:
		return bench.Spec{}, fmt.Errorf("configuration %q lacks an _NE/_E suffix", name)
	}
	kind, ok := specPrefixes[n]
	if !ok {
		return bench.Spec{}, fmt.Errorf("unknown configuration %q", name)
	}
	spec.Strategy = kind
	return spec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acrsim:", err)
	os.Exit(1)
}
