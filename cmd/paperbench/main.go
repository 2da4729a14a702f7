// Command paperbench regenerates every table and figure of the paper's
// evaluation section (Section V):
//
//	fig4    linear OpAmp modeling error vs training samples (4 metrics)
//	table1  linear OpAmp modeling cost
//	table2  quadratic OpAmp modeling error
//	table3  quadratic OpAmp modeling cost
//	table4  SRAM read-path linear modeling error and cost
//	fig6    SRAM delay-model coefficient magnitudes (sparsity profile)
//
// The extension experiment table1spice repeats the Table I comparison with
// the transistor-level (spice-simulated) OpAmp, where per-sample simulation
// genuinely dominates total cost.
//
// The default scale keeps every paper comparison meaningful while running in
// minutes; -scale full uses the paper's problem sizes (Table IV then runs in
// about a minute and a half; the quadratic tables' LS baseline at K = 25 000
// needs a ≈4 GB dense design). See EXPERIMENTS.md for the recorded results
// and the paper-vs-measured notes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/exp"
)

// Paper per-sample Spectre simulation costs, derived from the paper's cost
// tables (Table I: 16140s/1200 samples; Table IV: 728250s/25000 samples).
// The projected-total rows re-price our samples at these costs so the
// paper's speedup ratios are directly comparable.
const (
	paperOpAmpPerSample = 13450 * time.Millisecond
	paperSRAMPerSample  = 29130 * time.Millisecond
)

func main() {
	log.SetFlags(0)
	var (
		which   = flag.String("exp", "all", "experiment: fig4|table1|table2|table3|table4|fig6|table1spice|scaling|degrees|all")
		scale   = flag.String("scale", "default", "problem scale: default|full")
		seed    = flag.Int64("seed", 1, "base random seed")
		verbose = flag.Bool("v", false, "progress logging")
	)
	flag.Parse()
	full := false
	switch *scale {
	case "default":
	case "full":
		full = true
	default:
		log.Fatalf("paperbench: unknown -scale %q", *scale)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	run := func(name string) bool { return *which == "all" || *which == name }
	any := false
	if run("scaling") && *which != "all" {
		// Extension: empirical check of the Section IV-B claim that
		// K = O(P·log M) samples suffice for exact support recovery.
		any = true
		runScaling(*seed, logf)
	}
	if run("degrees") && *which != "all" {
		// Extension: model-degree ablation quantifying the "strong
		// nonlinearity" motivation.
		any = true
		runDegrees(*seed, logf)
	}
	if run("table1spice") && *which != "all" {
		// Extension beyond the paper: the Table I comparison with the
		// transistor-level OpAmp, where simulation genuinely dominates.
		any = true
		runSpiceCost(*seed, logf)
	}
	if run("fig4") {
		any = true
		runFig4(*seed, logf)
	}
	if run("table1") {
		any = true
		runTable1(*seed, logf)
	}
	if run("table2") || run("table3") {
		any = true
		runQuad(*seed, full, *which, logf)
	}
	if run("table4") || run("fig6") {
		any = true
		runSRAM(*seed, full, *which, logf)
	}
	if !any {
		log.Fatalf("paperbench: unknown -exp %q", *which)
	}
}

func runFig4(seed int64, logf func(string, ...any)) {
	cfg := exp.DefaultFig4Config()
	cfg.Seed = seed
	cfg.Logf = logf
	res, err := exp.RunFig4(cfg)
	if err != nil {
		log.Fatalf("paperbench fig4: %v", err)
	}
	fmt.Println("Fig. 4 — linear OpAmp modeling error vs. number of training samples")
	for _, metric := range res.Metrics {
		t := &exp.Table{
			Title:  fmt.Sprintf("Fig. 4 (%s)", metric),
			Header: []string{"solver", "K", "error"},
		}
		var series []exp.Series
		for _, sv := range []struct {
			name string
			mark byte
		}{{"LS", 'L'}, {"STAR", 'S'}, {"LAR", 'A'}, {"OMP", 'O'}} {
			for _, p := range res.Curves[metric][sv.name] {
				t.AddRow(sv.name, fmt.Sprintf("%d", p.K), fmt.Sprintf("%.2f%%", 100*p.Err))
			}
			series = append(series, exp.Series{Name: sv.name, Mark: sv.mark, Points: res.Curves[metric][sv.name]})
		}
		fmt.Println(t)
		fmt.Println(exp.AsciiPlot(fmt.Sprintf("Fig. 4 (%s) — error vs K", metric), series, 60, 12))
	}
}

func runScaling(seed int64, logf func(string, ...any)) {
	cfg := exp.DefaultScalingConfig()
	cfg.Seed = seed + 500
	cfg.Logf = logf
	pts, err := exp.RunScaling(cfg)
	if err != nil {
		log.Fatalf("paperbench scaling: %v", err)
	}
	t := &exp.Table{
		Title:  fmt.Sprintf("Sampling-cost scaling (P=%d non-zeros, %d%% recovery target)", cfg.P, int(100*cfg.Target)),
		Header: []string{"M", "min K", "recovery", "K/(P·lnM)"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d", p.M), fmt.Sprintf("%d", p.MinK),
			fmt.Sprintf("%.0f%%", 100*p.Rate), fmt.Sprintf("%.2f", p.KOverPLogM))
	}
	fmt.Println(t)
	fmt.Println("K/(P·lnM) staying ≈ constant confirms the K = O(P·log M) trend of Section IV-B.")
	fmt.Println()
}

func runDegrees(seed int64, logf func(string, ...any)) {
	cfg := exp.DefaultDegreeSweepConfig()
	cfg.Seed = seed + 600
	cfg.Logf = logf
	res, err := exp.RunDegreeSweep(cfg)
	if err != nil {
		log.Fatalf("paperbench degrees: %v", err)
	}
	t := &exp.Table{
		Title:  "Model-degree ablation — held-out error by polynomial degree (OMP, CV λ)",
		Header: []string{"metric", "degree", "M", "error", "λ"},
	}
	for _, r := range res {
		t.AddRow(r.Metric, fmt.Sprintf("%d", r.Degree), fmt.Sprintf("%d", r.M),
			fmt.Sprintf("%.2f%%", 100*r.Err), fmt.Sprintf("%d", r.Lambda))
	}
	fmt.Println(t)
}

func runSpiceCost(seed int64, logf func(string, ...any)) {
	cfg := exp.DefaultSpiceCostConfig()
	cfg.Seed = seed + 400
	cfg.Logf = logf
	res, err := exp.RunSpiceCost(cfg)
	if err != nil {
		log.Fatalf("paperbench table1spice: %v", err)
	}
	title := fmt.Sprintf("Table I (transistor-level extension) — spice OpAmp, N=%d variables", res.Dim)
	fmt.Println(exp.CostTable(title, res.Rows))
	printSpeedup(res.Rows, 0)
}

func runTable1(seed int64, logf func(string, ...any)) {
	cfg := exp.DefaultTable1Config()
	cfg.Seed = seed + 100
	cfg.Logf = logf
	res, err := exp.RunTable1(cfg)
	if err != nil {
		log.Fatalf("paperbench table1: %v", err)
	}
	fmt.Println(exp.CostTableProjected("Table I — linear OpAmp modeling cost (error averaged over 4 metrics)", res.Rows, paperOpAmpPerSample))
	printSpeedup(res.Rows, paperOpAmpPerSample)
}

func runQuad(seed int64, full bool, which string, logf func(string, ...any)) {
	cfg := exp.DefaultQuadConfig()
	if full {
		cfg = exp.PaperQuadConfig()
	}
	cfg.Seed = seed + 200
	cfg.Logf = logf
	res, err := exp.RunQuad(cfg)
	if err != nil {
		log.Fatalf("paperbench table2/3: %v", err)
	}
	if which == "all" || which == "table2" {
		t := &exp.Table{
			Title:  fmt.Sprintf("Table II — quadratic OpAmp modeling error (M=%d coefficients)", res.M),
			Header: []string{"", "LS", "STAR", "LAR", "OMP"},
		}
		for _, metric := range []string{"gain", "bandwidth", "power", "offset"} {
			row := []string{strings.ToUpper(metric[:1]) + metric[1:]}
			for _, solver := range []string{"LS", "STAR", "LAR", "OMP"} {
				if e, ok := res.Err[metric][solver]; ok {
					row = append(row, fmt.Sprintf("%.2f%%", 100*e))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
		fmt.Println(t)
		fmt.Print("OMP selected bases: ")
		for _, metric := range []string{"gain", "bandwidth", "power", "offset"} {
			fmt.Printf("%s=%d ", metric, res.SelectedBases[metric])
		}
		fmt.Println()
		fmt.Println()
	}
	if which == "all" || which == "table3" {
		fmt.Println(exp.CostTableProjected("Table III — quadratic OpAmp modeling cost", res.Rows, paperOpAmpPerSample))
		printSpeedup(res.Rows, paperOpAmpPerSample)
	}
}

func runSRAM(seed int64, full bool, which string, logf func(string, ...any)) {
	cfg := exp.DefaultTable4Config()
	if full {
		cfg.Circuit = circuit.PaperSRAMConfig()
		cfg.LSK = 25000
		cfg.SparseK = 1000
		cfg.TestN = 1000
		// Paper scale would need ≈4 GB of stored sampling points; the
		// virtual mode regenerates them from the seed instead (LS — whose
		// dense factorization is infeasible at this size anyway — is
		// skipped and its paper-reported numbers stand in).
		cfg.Virtual = true
	}
	cfg.Seed = seed + 300
	cfg.Logf = logf
	res, err := exp.RunTable4(cfg)
	if err != nil {
		log.Fatalf("paperbench table4: %v", err)
	}
	// table4 and fig6 share the same run, so both sections print for either.
	{
		title := fmt.Sprintf("Table IV — SRAM read-path linear modeling (N=%d variables, M=%d)", res.Dim, res.M)
		fmt.Println(exp.CostTableProjected(title, res.Rows, paperSRAMPerSample))
		printSpeedup(res.Rows, paperSRAMPerSample)
	}
	{
		_ = which
		series := exp.Fig6Series(res.OMPModel)
		nnz := res.OMPModel.NNZ()
		fmt.Printf("Fig. 6 — SRAM delay model coefficient magnitudes (OMP)\n")
		fmt.Printf("%d of %d coefficients are non-zero\n", nnz, res.M)
		t := &exp.Table{Header: []string{"rank", "|coefficient|"}}
		for i := 0; i < nnz && i < 50; i++ {
			t.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%.3e", series[i]))
		}
		fmt.Println(t)
	}
}

func printSpeedup(rows []exp.CostRow, perSample time.Duration) {
	var ls, omp *exp.CostRow
	for i := range rows {
		switch rows[i].Solver {
		case "LS":
			ls = &rows[i]
		case "OMP":
			omp = &rows[i]
		}
	}
	if ls == nil || omp == nil || omp.Total() == 0 {
		return
	}
	fmt.Fprintf(os.Stdout, "OMP speedup over LS (measured total): %.1f×\n",
		float64(ls.Total())/float64(omp.Total()))
	if perSample > 0 {
		projLS := time.Duration(ls.K)*perSample + ls.FitCost
		projOMP := time.Duration(omp.K)*perSample + omp.FitCost
		fmt.Fprintf(os.Stdout, "OMP speedup over LS (projected at paper simulation cost): %.1f×\n",
			float64(projLS)/float64(projOMP))
	}
	fmt.Fprintln(os.Stdout)
}
