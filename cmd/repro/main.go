// Command repro regenerates the figures of Jain & Dovrolis, "End-to-End
// Available Bandwidth" (SIGCOMM 2002), on the packet-level simulator.
//
// Usage:
//
//	repro -fig 5            # one figure
//	repro -all              # every figure
//	repro -all -scale 0.2   # scaled-down run counts and windows
//
// Output is plain text: one table or series per figure, in the shape of
// the paper's plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to reproduce: "+figHelp())
	all := flag.Bool("all", false, "reproduce every figure")
	scale := flag.Float64("scale", 1.0, "scale factor for run counts and measurement windows (1 = paper scale)")
	seed := flag.Int64("seed", 1, "master random seed")
	benchFilter := flag.String("bench", "", "run the perf benchmark suite instead of figures (\"all\" or a name substring)")
	benchOut := flag.String("bench-out", "", "write the bench report as JSON to this file")
	benchBaseline := flag.String("bench-baseline", "", "compare the bench run against this baseline JSON and fail on regression")
	benchTolerance := flag.Float64("bench-tolerance", 50, "ns/op regression tolerance vs the baseline, in percent")
	flag.Parse()

	if *benchFilter != "" {
		os.Exit(runBench(*benchFilter, *benchOut, *benchBaseline, *benchTolerance))
	}

	opt := experiments.Options{Scale: *scale, Seed: *seed}
	if !*all && *fig == "" {
		flag.Usage()
		os.Exit(2)
	}

	figs := allFigs()
	if !*all {
		figs = strings.Split(*fig, ",")
	}
	for _, f := range figs {
		fg, err := lookupFig(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		fmt.Print(fg.render(opt))
		fmt.Printf("(%s in %.1fs)\n\n", fg.label, time.Since(start).Seconds())
	}
}

// runBench runs the perf benchmark suite, optionally writing the JSON
// report and gating against a committed baseline. Returns the process
// exit code: 1 when the regression gate fails.
func runBench(filter, out, baseline string, tolerancePct float64) int {
	rep := bench.Run(filter)
	fmt.Print(bench.Format(rep))
	if out != "" {
		if err := bench.WriteJSON(out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	if baseline != "" {
		base, err := bench.ReadJSON(baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		// A filtered run only gates the benchmarks it ran.
		kept := base.Benchmarks[:0:0]
		for _, b := range base.Benchmarks {
			if bench.Matches(b.Name, filter) {
				kept = append(kept, b)
			}
		}
		base.Benchmarks = kept
		if violations := bench.Compare(base, rep, tolerancePct); len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "repro: perf regression vs %s:\n", baseline)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			return 1
		}
		fmt.Printf("within %.0f%% of baseline %s\n", tolerancePct, baseline)
	}
	return 0
}

// A figure is one entry of the figure registry: the -fig selectors
// that name it, its label in the timing line, whether -all runs it, and
// how to compute and format it.
type figure struct {
	sel    []string
	label  string
	inAll  bool
	render func(experiments.Options) string
}

// figures is the registry, in -fig help and -all order.
var figures = []figure{
	{[]string{"1", "2", "3"}, "figs 1-3", true, func(o experiments.Options) string {
		return experiments.RenderOWDTraces(experiments.OWDTraces(o))
	}},
	{[]string{"5"}, "fig 5", true, func(o experiments.Options) string {
		return experiments.RenderAccuracy("Fig 5: accuracy vs tight-link load and traffic model", experiments.Fig5(o))
	}},
	{[]string{"6"}, "fig 6", true, func(o experiments.Options) string {
		return experiments.RenderAccuracy("Fig 6: accuracy vs non-tight-link load (A = 4 Mb/s throughout)", experiments.Fig6(o))
	}},
	{[]string{"7"}, "fig 7", true, func(o experiments.Options) string {
		return experiments.RenderAccuracy("Fig 7: accuracy vs path tightness factor β (A = 4 Mb/s)", experiments.Fig7(o))
	}},
	{[]string{"8"}, "fig 8", true, func(o experiments.Options) string {
		return experiments.RenderSensitivity("Fig 8: effect of fleet fraction f (single runs)", "f", experiments.Fig8(o))
	}},
	{[]string{"9"}, "fig 9", true, func(o experiments.Options) string {
		return experiments.RenderSensitivity("Fig 9: effect of the PDT threshold (PDT-only detection)", "thresh", experiments.Fig9(o))
	}},
	{[]string{"10"}, "fig 10", true, func(o experiments.Options) string {
		return experiments.RenderVerification(experiments.Fig10(o))
	}},
	{[]string{"11"}, "fig 11", true, func(o experiments.Options) string {
		return experiments.RenderDynamics("Fig 11: avail-bw variability vs tight-link load (C_t = 12.4 Mb/s)", experiments.Fig11(o))
	}},
	{[]string{"12"}, "fig 12", true, func(o experiments.Options) string {
		return experiments.RenderDynamics("Fig 12: variability vs statistical multiplexing (u ≈ 65%)", experiments.Fig12(o))
	}},
	{[]string{"13"}, "fig 13", true, func(o experiments.Options) string {
		return experiments.RenderDynamics("Fig 13: variability vs stream length K", experiments.Fig13(o))
	}},
	{[]string{"14"}, "fig 14", true, func(o experiments.Options) string {
		return experiments.RenderDynamics("Fig 14: variability vs fleet length N", experiments.Fig14(o))
	}},
	{[]string{"15", "16"}, "figs 15-16", true, func(o experiments.Options) string {
		return experiments.RenderBTC(experiments.Fig15and16(o))
	}},
	{[]string{"17", "18"}, "figs 17-18", true, func(o experiments.Options) string {
		return experiments.RenderIntrusive(experiments.Fig17and18(o))
	}},
	{[]string{"baseline"}, "fig baseline", true, func(o experiments.Options) string {
		return experiments.RenderBaseline(experiments.BaselineComparison(o))
	}},
	{[]string{"timescale"}, "fig timescale", true, func(o experiments.Options) string {
		return experiments.RenderTimescale(experiments.TimescaleVariance(o))
	}},
	{[]string{"scale"}, "dynamics at scale", true, func(o experiments.Options) string {
		return experiments.RenderScale(experiments.DynamicsAtScale(o))
	}},
	{[]string{"scale10k"}, "dynamics at 10k paths", false, func(o experiments.Options) string {
		return experiments.RenderScaleSummary(experiments.DynamicsAtScale10k(o))
	}},
	{[]string{"trajectory"}, "avail-bw trajectories", true, func(o experiments.Options) string {
		return experiments.RenderTrajectory(experiments.AvailBwTrajectory(o))
	}},
	{[]string{"contention"}, "fleet self-interference", true, func(o experiments.Options) string {
		return experiments.RenderContention(experiments.Contention(o))
	}},
	{[]string{"adaptive"}, "adaptive scheduling", true, func(o experiments.Options) string {
		return experiments.RenderAdaptive(experiments.AdaptiveSchedule(o))
	}},
	{[]string{"scenarios"}, "scenario grading matrix", true, func(o experiments.Options) string {
		return experiments.RenderScenarios(experiments.Scenarios(o))
	}},
	{[]string{"fleetscenarios"}, "sequenced fleet scenarios", true, func(o experiments.Options) string {
		return experiments.RenderFleetScenarios(experiments.FleetScenarios(o))
	}},
}

// figHelp lists every selector, in registry order.
func figHelp() string {
	var sels []string
	for _, f := range figures {
		sels = append(sels, f.sel...)
	}
	return strings.Join(sels, ", ")
}

// allFigs returns the -all run list: the first selector of every
// registry entry that -all includes.
func allFigs() []string {
	var out []string
	for _, f := range figures {
		if f.inAll {
			out = append(out, f.sel[0])
		}
	}
	return out
}

// lookupFig finds the registry entry a selector names.
func lookupFig(sel string) (figure, error) {
	for _, f := range figures {
		for _, s := range f.sel {
			if s == sel {
				return f, nil
			}
		}
	}
	return figure{}, fmt.Errorf("unknown figure %q", sel)
}
