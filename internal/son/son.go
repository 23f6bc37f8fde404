// Package son implements the SON partition-based frequent-itemset miner
// (Savasere, Omiecinski & Navathe, VLDB'95) — the classic two-phase
// algorithm behind distributed mining on MapReduce/Spark, which the paper's
// related-work section points to for scaling the workflow beyond one
// machine. Phase one mines each database partition independently (any
// itemset globally frequent must be locally frequent in at least one
// partition at the scaled threshold); phase two counts the union of local
// candidates exactly in one global pass. Both phases run on a worker pool.
//
// Two entry points share the protocol: Mine splits one database into equal
// spans (the single-machine form), and MineShards accepts the partitions
// pre-formed, e.g. one per data shard. The package is a batch library; the
// sharded serving path (internal/shard) holds every shard window in one
// process and mines their union directly instead.
package son

import (
	"runtime"
	"sync"

	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/transaction"
)

// Options configures Mine and MineShards.
type Options struct {
	// MinCount is the global absolute minimum support count (>= 1).
	MinCount int
	// MaxLen caps itemset length; zero means unlimited.
	MaxLen int
	// Partitions splits the database in Mine; zero picks one per worker.
	// Ignored by MineShards, where the caller's shards are the partitions.
	Partitions int
	// Workers bounds parallelism; zero means GOMAXPROCS.
	Workers int
}

// Mine returns exactly the itemsets FP-Growth would return: SON is exact,
// not approximate — the partition phase only proposes candidates, the count
// phase verifies them against the full database.
func Mine(db *transaction.DB, opts Options) []itemset.Frequent {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := opts.Partitions
	if parts <= 0 {
		parts = workers
	}
	n := db.Len()
	if n == 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	// Split into equal spans and run the shared two-pass protocol over them.
	shards := make([]*transaction.DB, 0, parts)
	per, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := per
		if i < rem {
			size++
		}
		local := transaction.NewDB(db.Catalog())
		for t := lo; t < lo+size; t++ {
			local.Add(db.Txn(t)...)
		}
		shards = append(shards, local)
		lo += size
	}
	return MineShards(shards, opts)
}

// MineShards runs the SON two-pass protocol over pre-formed partitions: the
// union of each shard's locally frequent itemsets (at the proportionally
// scaled threshold) is the candidate set, then every candidate's support is
// counted exactly against every shard. All shards must share one item
// catalog (the same id means the same item everywhere); empty shards are
// permitted and contribute nothing. The result is exactly what FP-Growth
// would mine over the concatenation of the shards — SON is exact.
func MineShards(shards []*transaction.DB, opts Options) []itemset.Frequent {
	if opts.MinCount < 1 {
		opts.MinCount = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := 0
	for _, sh := range shards {
		n += sh.Len()
	}
	if n == 0 {
		return nil
	}

	// Phase 1: mine each shard at the proportionally scaled threshold.
	candidateSets := make([][]itemset.Frequent, len(shards))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, sh := range shards {
		if sh.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sh *transaction.DB) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Scale the threshold to the shard size, rounding down so no
			// globally frequent itemset can be missed.
			localMin := opts.MinCount * sh.Len() / n
			if localMin < 1 {
				localMin = 1
			}
			candidateSets[i] = fpgrowth.Mine(sh, fpgrowth.Options{
				MinCount: localMin,
				MaxLen:   opts.MaxLen,
			})
		}(i, sh)
	}
	wg.Wait()

	// Union of local winners = the global candidate set.
	candidates := make(map[string]itemset.Set)
	for _, fs := range candidateSets {
		for _, f := range fs {
			candidates[f.Items.Key()] = f.Items
		}
	}
	if len(candidates) == 0 {
		return nil
	}

	// Phase 2: one exact counting pass over every shard, on the worker
	// pool with per-task partial counts. Candidates are indexed by their
	// smallest item so each transaction only tests candidates that can
	// possibly be contained.
	ordered := make([]itemset.Set, 0, len(candidates))
	for _, s := range candidates {
		ordered = append(ordered, s)
	}
	byFirst := make(map[itemset.Item][]int)
	for i, s := range ordered {
		byFirst[s[0]] = append(byFirst[s[0]], i)
	}
	// One counting task per (shard, chunk): shards are independent, and
	// large shards are further split so a single big window cannot
	// serialize the pass.
	type task struct {
		sh     *transaction.DB
		lo, hi int
	}
	var tasks []task
	chunk := (n + workers - 1) / workers
	if chunk < 1 {
		chunk = 1
	}
	for _, sh := range shards {
		for lo := 0; lo < sh.Len(); lo += chunk {
			hi := lo + chunk
			if hi > sh.Len() {
				hi = sh.Len()
			}
			tasks = append(tasks, task{sh, lo, hi})
		}
	}
	partials := make([][]int, len(tasks))
	var wg2 sync.WaitGroup
	for ti, tk := range tasks {
		wg2.Add(1)
		go func(ti int, tk task) {
			defer wg2.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			counts := make([]int, len(ordered))
			for t := tk.lo; t < tk.hi; t++ {
				txn := itemset.Set(tk.sh.Txn(t))
				for _, first := range txn {
					for _, i := range byFirst[first] {
						if txn.ContainsAll(ordered[i]) {
							counts[i]++
						}
					}
				}
			}
			partials[ti] = counts
		}(ti, tk)
	}
	wg2.Wait()

	var out []itemset.Frequent
	for i, s := range ordered {
		total := 0
		for _, p := range partials {
			total += p[i]
		}
		if total >= opts.MinCount {
			out = append(out, itemset.Frequent{Items: s, Count: total})
		}
	}
	itemset.SortFrequent(out)
	return out
}
