// Command dilu-sched exercises the cluster schedulers at scale: it
// replays a heterogeneous instance mix (training : LLM inference :
// non-LLM inference = 2:2:6, as in §5.5) through a chosen scheduler on a
// large cluster and reports occupancy, fragmentation, and decision
// latency.
//
//	dilu-sched -scheduler Dilu -instances 3200 -nodes 1000
//	dilu-sched -scheduler Exclusive -instances 800
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dilu/internal/cluster"
	"dilu/internal/experiments"
	"dilu/internal/sched"
)

func main() {
	name := flag.String("scheduler", "Dilu", "Dilu, Exclusive, INFless+-l, INFless+-r, FaST-GS+")
	instances := flag.Int("instances", 3200, "instances to place")
	nodes := flag.Int("nodes", 1000, "cluster nodes (4 GPUs each)")
	gamma := flag.Float64("gamma", 1.5, "oversubscription coefficient (Dilu only)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	clu := cluster.New(cluster.Config{Nodes: *nodes, GPUsPerNode: 4})
	s, err := sched.New(*name, clu, sched.Options{Gamma: *gamma})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	start := time.Now()
	placed := experiments.ScheduleBatchWith(s, *instances, *seed)
	elapsed := time.Since(start)

	st := clu.Snapshot()
	fmt.Printf("scheduler        %s\n", s.Name())
	fmt.Printf("placed           %d / %d instances in %.2fs (%.2f ms/decision)\n",
		placed, *instances, elapsed.Seconds(),
		float64(elapsed.Milliseconds())/float64(max(placed, 1)))
	fmt.Printf("occupied GPUs    %d / %d\n", st.OccupiedGPUs, st.TotalGPUs)
	fmt.Printf("SM fragmentation %.1f%%   memory fragmentation %.1f%%\n",
		st.SMFrag*100, st.MemFrag*100)
	fmt.Printf("mean density     %.2f request quota, %.1f%% memory per active GPU\n",
		st.MeanReq, st.MeanMem*100)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
