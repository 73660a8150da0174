package dilu_test

import (
	"fmt"

	"dilu"
	"dilu/internal/core"
)

// Example demonstrates the minimal serving loop: deploy one inference
// function and one training job on a Dilu-managed node, run a simulated
// minute, and read the QoS outcomes. Everything runs on deterministic
// virtual time.
func Example() {
	sys := dilu.NewSystem(dilu.Config{Nodes: 1, GPUsPerNode: 2, Seed: 42})
	f, _ := sys.DeployInference("roberta-serve", "RoBERTa-large", dilu.InferOpts{
		Arrivals: dilu.Poisson{RPS: 20},
	})
	tj, _ := sys.DeployTraining("bert-finetune", "BERT-base", dilu.TrainOpts{Workers: 1})
	sys.Run(dilu.Minute)

	fmt.Printf("requests served: %d (SVR %.1f%%)\n", f.Served(), f.Rec.ViolationRate()*100)
	fmt.Printf("training keeps >90%% of an exclusive GPU: %v\n",
		tj.Throughput(sys.Eng.Now()) > 0.9*tj.Spec.TrainThroughput(1.0))
	fmt.Printf("GPUs shared: %d occupied of %d\n", sys.Clu.OccupiedCount(), len(sys.Clu.GPUs()))
	// Output:
	// requests served: 1154 (SVR 0.0%)
	// training keeps >90% of an exclusive GPU: true
	// GPUs shared: 1 occupied of 2
}

// ExampleProfileInference shows Dilu's Hybrid Growth Search profiling a
// model: the resulting ⟨request, limit⟩ SM quotas and batch size are what
// the scheduler and the RCKM enforce at runtime.
func ExampleProfileInference() {
	p := dilu.ProfileInference("RoBERTa-large")
	fmt.Printf("request=%.2f limit=%.2f IBS=%d trials=%d\n", p.SMReq, p.SMLim, p.IBS, p.Trials)
	// Output:
	// request=0.20 limit=0.40 IBS=2 trials=7
}

// ExampleProfileTraining shows the binary-search training profiler: the
// request quota sustains 80% of exclusive throughput, the limit ~98%.
func ExampleProfileTraining() {
	p := dilu.ProfileTraining("GPT2-large")
	spec := dilu.ModelByName("GPT2-large")
	reqRatio := spec.TrainThroughput(p.SMReq) / spec.TrainThroughput(1.0)
	fmt.Printf("request sustains ~80%% of exclusive: %v\n", reqRatio > 0.76 && reqRatio < 0.86)
	// Output:
	// request sustains ~80% of exclusive: true
}

// ExampleExperiments enumerates the paper-artifact drivers.
func ExampleExperiments() {
	for _, d := range dilu.Experiments()[:3] {
		fmt.Println(d.ID)
	}
	// Output:
	// figure2
	// figure2cd
	// table2
}

// ExampleModels profiles the whole model catalog in both roles: the
// ⟨request, limit⟩ SM quotas the scheduler packs by, the inference batch
// size, the memory reservation and the profiling trials each search
// spent. Training has no batch-size knob, so its IBS reads "-".
func ExampleModels() {
	fmt.Printf("%-14s %-9s %7s %5s %3s %7s %6s\n", "model", "role", "request", "limit", "IBS", "mem MB", "trials")
	for _, m := range dilu.Models() {
		pi := dilu.ProfileInference(m.Name)
		fmt.Printf("%-14s %-9s %7.2f %5.2f %3d %7.0f %6d\n", m.Name, "inference", pi.SMReq, pi.SMLim, pi.IBS, pi.MemMB, pi.Trials)
		pt := dilu.ProfileTraining(m.Name)
		fmt.Printf("%-14s %-9s %7.2f %5.2f %3s %7.0f %6d\n", m.Name, "training", pt.SMReq, pt.SMLim, "-", pt.MemMB, pt.Trials)
	}
	// Output:
	// model          role      request limit IBS  mem MB trials
	// ResNet152      inference    0.20  0.40   2    1200      8
	// ResNet152      training     0.41  0.75   -    6144      8
	// VGG19          inference    0.20  0.40   1    1600      5
	// VGG19          training     0.41  0.75   -    8192      8
	// BERT-base      inference    0.10  0.20   1    1400      3
	// BERT-base      training     0.33  0.50   -    6144      8
	// RoBERTa-large  inference    0.20  0.40   2    3200      7
	// RoBERTa-large  training     0.44  0.75   -   12288      7
	// GPT2-large     inference    0.30  0.60   2    6400     10
	// GPT2-large     training     0.47  0.75   -   20480      8
	// LLaMA2-7B      inference    0.80  1.00   8   16384     15
	// LLaMA2-7B      training     0.62  0.88   -    9216      7
	// ChatGLM3-6B    inference    0.70  1.00   8   14336     14
	// ChatGLM3-6B    training     0.62  0.88   -    8192      7
}

// ExampleTrainOpts_elastic shows elastic data-parallel training (the
// paper's §7 future work): a job grows workers into idle GPUs, gives one
// back after a bursty inference function is pinned to a GPU it borrowed
// at 40 s, and borrows it again once the inference load leaves room.
func ExampleTrainOpts_elastic() {
	sys := dilu.NewSystem(dilu.Config{Nodes: 1, GPUsPerNode: 4, Seed: 9})
	tj, _ := sys.DeployTraining("bert-elastic", "BERT-base", dilu.TrainOpts{
		Workers: 1,
		Elastic: &core.ElasticOpts{MinWorkers: 1, MaxWorkers: 4, Every: dilu.Second},
	})
	fmt.Println("time  workers")
	for t := 10; t <= 120; t += 10 {
		sys.Run(10 * dilu.Second)
		if t == 40 {
			_, _ = sys.DeployInference("rob-burst", "RoBERTa-large", dilu.InferOpts{
				Pin:      []int{3}, // one of the borrowed GPUs
				Arrivals: dilu.Gamma{RPS: 55, CV: 3},
			})
		}
		fmt.Printf("%3ds  %7d\n", t, tj.Workers())
	}
	// Output:
	// time  workers
	//  10s        3
	//  20s        4
	//  30s        4
	//  40s        4
	//  50s        4
	//  60s        4
	//  70s        3
	//  80s        3
	//  90s        3
	// 100s        3
	// 110s        4
	// 120s        4
}
