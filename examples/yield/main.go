// Yield estimation: the payoff the paper's introduction promises. Fit sparse
// models of the OpAmp's four metrics from a few hundred simulations, then
// replace the simulator with the models to estimate performance
// distributions and parametric yield from a million virtual samples in
// seconds.
//
//	go run ./examples/yield
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/basis"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/yield"
)

func main() {
	amp, err := circuit.NewOpAmp()
	if err != nil {
		log.Fatal(err)
	}
	dict := basis.Linear(amp.Dim())

	const kTrain = 500
	fmt.Printf("simulating %d training samples of the OpAmp (%d variables)...\n", kTrain, amp.Dim())
	train, err := mc.Sample(amp, kTrain, 1, mc.Options{})
	if err != nil {
		log.Fatal(err)
	}

	design := basis.NewLazyDesign(dict, train.Points)
	models := make(map[string]*core.Model, 4)
	for mi, metric := range amp.Metrics() {
		cv, err := core.CrossValidate(&core.OMP{}, design, train.MetricColumn(mi), 4, 40)
		if err != nil {
			log.Fatalf("%s: %v", metric, err)
		}
		models[metric] = cv.Model
		// Closed-form moments straight from the orthonormal coefficients.
		fmt.Printf("  %-10s λ=%-3d mean=%.4g sigma=%.3g\n",
			metric, cv.BestLambda, yield.ModelMean(cv.Model, dict), yield.ModelStd(cv.Model, dict))
	}

	an, err := yield.NewAnalyzer(dict, models)
	if err != nil {
		log.Fatal(err)
	}

	// Specs: gain and bandwidth above their -10% points, power below +10%,
	// offset within ±5 mV.
	nominal := map[string]float64{}
	for _, metric := range amp.Metrics() {
		nominal[metric] = yield.ModelMean(models[metric], dict)
	}
	specs := map[string]yield.Spec{
		"gain":      {Low: 0.9 * nominal["gain"], High: math.Inf(1)},
		"bandwidth": {Low: 0.9 * nominal["bandwidth"], High: math.Inf(1)},
		"power":     {Low: 0, High: 1.1 * nominal["power"]},
		"offset":    {Low: -0.005, High: 0.005},
	}

	const virtual = 1_000_000
	fmt.Printf("\nestimating yield from %d virtual samples (no simulator calls)...\n", virtual)
	res, err := an.Yield(rng.New(2), virtual, specs)
	if err != nil {
		log.Fatal(err)
	}
	for metric, p := range res.Marginal {
		fmt.Printf("  %-10s pass rate %6.2f%%\n", metric, 100*p)
	}
	fmt.Printf("\nparametric yield (all specs): %.2f%%\n", 100*res.Yield)

	// Distribution tails of the offset — the mismatch-dominated metric.
	qs, err := an.Quantiles(rng.New(3), 200000, "offset", []float64{0.001, 0.5, 0.999})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offset quantiles: 0.1%%=%.3g mV  median=%.3g mV  99.9%%=%.3g mV\n\n",
		1e3*qs[0], 1e3*qs[1], 1e3*qs[2])

	samples := an.Sample(rng.New(4), 20000)["offset"]
	for i := range samples {
		samples[i] *= 1e3 // mV
	}
	fmt.Println(exp.AsciiHist("offset distribution (mV, 20k virtual samples)", samples, 15, 50))
}
