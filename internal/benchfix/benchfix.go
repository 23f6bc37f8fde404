// Package benchfix builds the shared fixtures of the publish-step stage
// benchmarks and oracle tests. PublishPoints is one sliding PAI window
// mined at two consecutive publish points, the input pair of
// stream.DiffViews and stream.Diff and the input of
// server.NewRuleIndex; keeping it in one place means the stage
// benchmarks of different packages time the same rule lists, so their
// numbers add up; Frequent recovers the itemsets a view's rules were
// generated from. RandomRules draws the adversarial rule lists the
// property tests of those stages compare against their oracles.
package benchfix

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transaction"
)

// The fixture's shape: a Window-job window over a PAI trace of seed Seed,
// mined after First jobs and again after Second jobs, as a server with a
// (Second-First)-event mine batch would publish it.
const (
	Seed   = 7
	Window = 5000
	First  = 6000
	Second = 7000
)

var (
	once      sync.Once
	prev, cur *stream.View
	err       error
)

// PublishPoints returns the two published views of the fixture window:
// prev mined at First jobs, cur at Second. Both are built once per process
// and shared, so callers must not mutate them.
func PublishPoints() (*stream.View, *stream.View, error) {
	once.Do(func() { prev, cur, err = build() })
	return prev, cur, err
}

func build() (*stream.View, *stream.View, error) {
	tr, err := trace.GeneratePAI(trace.Config{Jobs: Second, Seed: Seed})
	if err != nil {
		return nil, nil, err
	}
	joined, err := tr.Scheduler.InnerJoin(tr.Node, "job_id", "job_id")
	if err != nil {
		return nil, nil, err
	}
	pre, err := core.PAIPipeline().Preprocess(joined)
	if err != nil {
		return nil, nil, err
	}
	db, err := transaction.Encode(pre, transaction.EncodeOptions{})
	if err != nil {
		return nil, nil, err
	}
	if db.Len() < Second {
		return nil, nil, fmt.Errorf("benchfix: trace encoded to %d transactions, want %d", db.Len(), Second)
	}
	miner, err := stream.New(nil, stream.Config{WindowSize: Window})
	if err != nil {
		return nil, nil, err
	}
	observe := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			miner.ObserveNames(db.Catalog().Names(itemset.Set(db.Txn(i)))...)
		}
	}
	observe(0, First)
	p := miner.BeginView().Mine()
	observe(First, Second)
	return p, miner.BeginView().Mine(), nil
}

// Frequent re-mines a view of the fixture into the frequent itemsets its
// rules were generated from, with the thresholds the fixture's miner
// uses: the input of rules.Generate, which it calls with
// v.WindowLen transactions and the default lift threshold.
func Frequent(v *stream.View) []itemset.Frequent {
	minSupport, maxLen, _ := stream.Thresholds(0, 0, 0)
	db := transaction.NewDB(v.Catalog)
	for _, txn := range v.Window {
		db.AddCanonical(txn)
	}
	return fpgrowth.Mine(db, fpgrowth.Options{
		MinCount: stream.MinCount(minSupport, len(v.Window)),
		MaxLen:   maxLen,
	})
}

// ties are the metric values RandomRules draws from: few enough that
// support, confidence and lift tie heavily, and including both zeros.
var ties = []float64{0, math.Copysign(0, -1), 0.05, 0.25, 0.5, 1, 1.5, 2.5}

// RandomRules draws n rules over item ids [0, items). Each side comes from
// a small shared pool of sets, so rules share an antecedent or a
// consequent and whole rules repeat; a repeated side is often a fresh copy
// of the set, so equality must be by value. Metrics come from a handful of
// values, so sorts by any of them meet long runs of ties. The rules need
// not be valid association rules: sides may overlap.
func RandomRules(rng *rand.Rand, n, items int) []rules.Rule {
	pool := make([]itemset.Set, 1+rng.Intn(1+n))
	for i := range pool {
		its := make([]itemset.Item, 1+rng.Intn(3))
		for j := range its {
			its[j] = itemset.Item(rng.Intn(items))
		}
		pool[i] = itemset.NewSet(its...)
	}
	side := func() itemset.Set {
		s := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			s = s.Clone()
		}
		return s
	}
	metric := func() float64 { return ties[rng.Intn(len(ties))] }
	out := make([]rules.Rule, n)
	for i := range out {
		out[i] = rules.Rule{
			Antecedent: side(),
			Consequent: side(),
			Count:      rng.Intn(4),
			Support:    metric(),
			Confidence: metric(),
			Lift:       metric(),
		}
	}
	return out
}
