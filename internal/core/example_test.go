package core_test

import (
	"fmt"
	"log"

	"nnwc/internal/core"
	"nnwc/internal/nn"
	"nnwc/internal/nn/rbf"
	"nnwc/internal/preprocess"
	"nnwc/internal/queueing"
	"nnwc/internal/rng"
	"nnwc/internal/threetier"
	"nnwc/internal/workload"
)

// Example_quickstart walks the paper's §3 methodology: collect samples from
// the three-tier simulator, train the MLP, validate it on held-out
// configurations, predict an unseen one, and ask a what-if question the
// simulator never ran.
func Example_quickstart() {
	// 1. Collect samples: a small sweep over thread-pool sizes at two
	// injection rates. Every (config, indicators) pair is one sample.
	spec := threetier.SweepSpec{
		InjectionRates: []float64{480, 560},
		MfgThreads:     []int{8, 16},
		WebThreads:     []int{12, 16, 20, 24},
		DefaultThreads: []int{4, 8, 12},
	}
	sys := threetier.DefaultSystemParams()
	sys.WarmupTime, sys.MeasureTime = 8, 32 // keep the example fast
	ds, err := threetier.Collect(spec, sys, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d samples (%d configuration parameters → %d performance indicators)\n",
		ds.Len(), ds.NumFeatures(), ds.NumTargets())

	// 2. Hold out a validation split, then train the MLP. Standardization
	// and loose-fit early stopping are on by default, per the paper.
	ds.Shuffle(rng.New(1))
	trainSet, valSet := ds.Split(0.8)
	model, err := core.Fit(trainSet, core.Config{Hidden: []int{12}, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Validate on the held-out configurations.
	ev, err := core.Evaluate(model, valSet)
	if err != nil {
		log.Fatal(err)
	}
	for j, name := range ev.TargetNames {
		fmt.Printf("  %-24s validation error %.1f%%\n", name, ev.HMRE[j]*100)
	}
	fmt.Printf("overall prediction accuracy: %.1f%%\n", (1-ev.MeanHMRE())*100)

	// 4. Predict a configuration that was never simulated.
	y := model.Predict([]float64{520, 7, 12, 17}) // (rate, default, mfg, web)
	fmt.Println("predicted indicators for rate=520 default=7 mfg=12 web=17:")
	for j, name := range model.TargetNames {
		fmt.Printf("  %-24s %.1f\n", name, y[j])
	}

	// 5. What-if: the highest injection rate at which a lean and a tuned
	// configuration still meet the response-time SLAs (ms). The sampled
	// rates bracket the question, so the model interpolates.
	sla := []float64{140, 80, 60, 65}
	for _, c := range [][]float64{{6, 16, 18}, {8, 16, 20}} { // (default, mfg, web)
		capacity := "none"
		for rate := 480.0; rate <= 560; rate += 20 {
			y := model.Predict([]float64{rate, c[0], c[1], c[2]})
			within := true
			for j, bound := range sla {
				within = within && y[j] <= bound
			}
			if within {
				capacity = fmt.Sprint(rate)
			}
		}
		fmt.Printf("default=%v mfg=%v web=%v: highest rate within SLA: %s\n", c[0], c[1], c[2], capacity)
	}

	// Output:
	// collected 48 samples (4 configuration parameters → 5 performance indicators)
	//   manufacturing_rt         validation error 1.6%
	//   dealer_purchase_rt       validation error 0.4%
	//   dealer_manage_rt         validation error 0.3%
	//   dealer_browse_rt         validation error 0.8%
	//   effective_tps            validation error 7.2%
	// overall prediction accuracy: 97.9%
	// predicted indicators for rate=520 default=7 mfg=12 web=17:
	//   manufacturing_rt         215.3
	//   dealer_purchase_rt       62.5
	//   dealer_manage_rt         51.1
	//   dealer_browse_rt         55.7
	//   effective_tps            388.5
	// default=6 mfg=16 web=18: highest rate within SLA: none
	// default=8 mfg=16 web=20: highest rate within SLA: 560
}

// Example_functionApprox shows the foundation the paper builds on (§2.2):
// neural networks as universal function approximators. The paper's sigmoid
// MLP, a logarithmic neural network and an RBF network fit the analytic
// M/M/8 mean-response-time curve, then are probed past the training range
// (λ ≤ 180), where the curve blows up. All three track it inside the range
// and fall behind outside it — §5.3's warning that MLP accuracy drops
// rapidly outside the range of training data.
func Example_functionApprox() {
	const mu, servers = 25.0, 8
	truth := func(lambda float64) float64 {
		w, err := queueing.MMC{Lambda: lambda, Mu: mu, C: servers}.MeanResponseTime()
		if err != nil {
			log.Fatal(err)
		}
		return w * 1000
	}
	train := workload.NewDataset([]string{"lambda"}, []string{"rt_ms"})
	for l := 20.0; l <= 180; l += 4 {
		train.MustAppend(workload.Sample{X: []float64{l}, Y: []float64{truth(l)}})
	}

	mlpCfg := core.Config{Hidden: []int{12}, Seed: 3}
	lnnCfg := mlpCfg
	lnnCfg.HiddenActivation = nn.LogCompress{}
	mlp, err := core.Fit(train, mlpCfg)
	if err != nil {
		log.Fatal(err)
	}
	lnn, err := core.Fit(train, lnnCfg)
	if err != nil {
		log.Fatal(err)
	}
	// RBF needs standardized features for sane Gaussian widths.
	xs := preprocess.NewStandardizer()
	if err := xs.Fit(train.Xs()); err != nil {
		log.Fatal(err)
	}
	rbfNet, err := rbf.Fit(preprocess.TransformAll(xs, train.Xs()), train.Ys(),
		rbf.Config{Centers: 12, WidthScale: 2, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-6s %8s %8s %8s %8s %7s\n", "lambda", "truth", "MLP", "LNN", "RBF", "zone")
	for _, l := range []float64{40, 100, 160, 176, 184, 190, 193} {
		zone := "train"
		if l > 180 {
			zone = "extrap"
		}
		x := []float64{l}
		fmt.Printf("%6.0f %8.1f %8.1f %8.1f %8.1f %7s\n", l, truth(l),
			mlp.Predict(x)[0], lnn.Predict(x)[0], rbfNet.Predict(xs.Transform(x))[0], zone)
	}

	// Output:
	// lambda    truth      MLP      LNN      RBF    zone
	//     40     40.0     40.0     40.1     39.9   train
	//    100     40.6     40.7     40.3     40.5   train
	//    160     51.4     51.4     51.7     51.4   train
	//    176     67.0     67.4     67.3     67.2   train
	//    184     87.3     83.5     78.9     84.6  extrap
	//    190    124.4    100.8     83.6    102.6  extrap
	//    193    167.1    111.3     85.3    112.8  extrap
}
