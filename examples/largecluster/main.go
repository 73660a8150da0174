// Large cluster: place a 2:2:6 training/LLM/inference mix on a
// 1,000-node (4,000-GPU) cluster under the three §5.5 schedulers and
// compare occupancy and fragmentation — a Figure-17-style study at
// whatever instance count you choose.
//
//	go run ./examples/largecluster
//	go run ./examples/largecluster -instances 3200
package main

import (
	"flag"
	"fmt"
	"time"

	"dilu/internal/cluster"
	"dilu/internal/experiments"
	"dilu/internal/report"
	"dilu/internal/sched"
)

func main() {
	instances := flag.Int("instances", 1600, "instances to place")
	flag.Parse()

	t := report.NewTable(
		fmt.Sprintf("Placing %d instances (train:LLM:inference = 2:2:6) on 1,000 nodes", *instances),
		"scheduler", "occupied GPUs", "SM frag %", "mem frag %", "decisions/s")

	var exclusiveGPUs int
	for _, name := range []string{"Exclusive", "INFless+-l", "Dilu"} {
		clu := cluster.New(cluster.Config{Nodes: 1000, GPUsPerNode: 4})
		s, err := sched.New(name, clu, sched.Options{})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		placed := experiments.ScheduleBatchWith(s, *instances, 1)
		elapsed := time.Since(start).Seconds()
		st := clu.Snapshot()
		if name == "Exclusive" {
			exclusiveGPUs = st.OccupiedGPUs
		}
		t.AddRow(name, st.OccupiedGPUs, st.SMFrag*100, st.MemFrag*100,
			float64(placed)/elapsed)
	}
	fmt.Print(t.String())
	fmt.Printf("\nDilu's resourcing-complementary packing (Ω=1, γ=1.5) cuts GPU count\n")
	fmt.Printf("relative to Exclusive's %d GPUs while keeping the lowest SM fragmentation.\n", exclusiveGPUs)
}
