// Streaming drift detection: an operator keeps a sliding window over the
// live job feed and gets alerted when a *new* association involving job
// failure appears — here, a faulty driver rollout that makes a node pool
// start failing its jobs. The window miner re-mines snapshots and the diff
// surfaces exactly the new rule.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	miner, err := repro.NewStreamMiner(nil, repro.StreamConfig{
		WindowSize: 2000,
		MinSupport: 0.05,
		MinLift:    1.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))

	healthyJob := func() []string {
		pool := fmt.Sprintf("pool=%c", 'a'+rune(r.Intn(4)))
		switch {
		case r.Float64() < 0.5:
			return []string{pool, "kind=train", "gpu=busy", "status=ok"}
		case r.Float64() < 0.7:
			return []string{pool, "kind=infer", "gpu=idle", "status=ok"}
		default:
			return []string{pool, "kind=debug", "gpu=idle", "status=killed"}
		}
	}

	// Phase 1: normal operation fills the window.
	for i := 0; i < 2000; i++ {
		miner.ObserveNames(healthyJob()...)
	}
	before := miner.Snapshot()
	fmt.Printf("healthy window: %d rules\n", len(before))

	// Phase 2: pool-c receives a bad driver; its jobs start failing.
	for i := 0; i < 2000; i++ {
		if r.Float64() < 0.25 {
			miner.ObserveNames("pool=c", "driver=v2", "kind=train", "gpu=idle", "status=failed")
		} else {
			miner.ObserveNames(healthyJob()...)
		}
	}
	after := miner.Snapshot()
	fmt.Printf("post-rollout window: %d rules\n\n", len(after))

	delta := repro.DiffSnapshots(before, after)
	fmt.Printf("rule-set similarity (Jaccard): %.2f\n", delta.Jaccard)
	fmt.Printf("new rules: %d, vanished rules: %d\n\n", len(delta.Appeared), len(delta.Vanished))

	fmt.Println("new failure-related rules (the alert an operator would get):")
	failed, ok := miner.Catalog().Lookup("status=failed")
	if !ok {
		log.Fatal("no failed item observed")
	}
	shown := 0
	// Appeared holds positions into the post-rollout snapshot, strongest
	// rule first.
	for _, i := range delta.Appeared {
		rule := after[i]
		if !rule.Antecedent.Contains(failed) && !rule.Consequent.Contains(failed) {
			continue
		}
		fmt.Println("  " + rule.Format(miner.Catalog()))
		shown++
		if shown == 5 {
			break
		}
	}
}
