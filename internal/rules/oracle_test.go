package rules

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/itemset"
)

// generateOracle is the sharded, append-grown, sort.Slice Generate that the
// count-table enumeration, radix-sorted permutation and single placement
// replaced, kept verbatim as its oracle.
//
// Generate derives association rules from the mined frequent itemsets.
// nTxns is the database size |D|. Every frequent itemset of length >= 2 is
// split into each non-empty antecedent/consequent partition; metric
// computation looks up the parts' supports in the frequent list itself
// (every subset of a frequent itemset is frequent, so the lookups always
// hit). Itemsets are sharded across opts.Workers goroutines — splits of
// different itemsets are independent — and the shards merged and sorted
// once, so any worker count yields the same rules in the same order:
// descending lift, ties by descending support.
func generateOracle(frequent []itemset.Frequent, nTxns int, opts Options) []Rule {
	if opts.MinLift == 0 {
		opts.MinLift = 1.5
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(frequent) {
		workers = len(frequent)
	}
	ix := newSupportIndex(frequent)
	total := float64(nTxns)
	var out []Rule
	if workers <= 1 {
		out = generateShardOracle(ix, total, opts, 0, 1)
	} else {
		// Strided shards: the frequent list is sorted by length, so
		// striding spreads the expensive long itemsets (2^k splits)
		// evenly across workers.
		shards := make([][]Rule, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				shards[w] = generateShardOracle(ix, total, opts, w, workers)
			}(w)
		}
		wg.Wait()
		n := 0
		for _, s := range shards {
			n += len(s)
		}
		out = make([]Rule, 0, n)
		for _, s := range shards {
			out = append(out, s...)
		}
	}
	sortOracle(out)
	return out
}

// setArena block-allocates the kept rules' side sets, so a shard costs a
// handful of slab allocations instead of two clones per rule.
type setArena struct {
	buf []itemset.Item
}

func (a *setArena) clone(s itemset.Set) itemset.Set {
	if cap(a.buf)-len(a.buf) < len(s) {
		n := 4096
		if len(s) > n {
			n = len(s)
		}
		a.buf = make([]itemset.Item, 0, n)
	}
	start := len(a.buf)
	a.buf = append(a.buf, s...)
	return itemset.Set(a.buf[start:len(a.buf):len(a.buf)])
}

// generateShardOracle enumerates the antecedent/consequent splits of every
// start+k*stride-th frequent itemset.
func generateShardOracle(ix *supportIndex, total float64, opts Options, start, stride int) []Rule {
	var out []Rule
	var arena setArena
	ante := make(itemset.Set, 0, 8)
	cons := make(itemset.Set, 0, 8)
	for fi := start; fi < len(ix.fs); fi += stride {
		f := ix.fs[fi]
		k := len(f.Items)
		if k < 2 {
			continue
		}
		// Enumerate proper non-empty subsets as antecedents via bitmask.
		for mask := 1; mask < (1<<k)-1; mask++ {
			ante = ante[:0]
			cons = cons[:0]
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					ante = append(ante, f.Items[i])
				} else {
					cons = append(cons, f.Items[i])
				}
			}
			anteCount, ok := ix.count(ante)
			if !ok || anteCount == 0 {
				continue
			}
			consCount, ok := ix.count(cons)
			if !ok || consCount == 0 {
				continue
			}
			support := float64(f.Count) / total
			confidence := float64(f.Count) / float64(anteCount)
			consSupport := float64(consCount) / total
			lift := confidence / consSupport
			if lift < opts.MinLift || confidence < opts.MinConfidence || support < opts.MinSupport {
				continue
			}
			anteSupport := float64(anteCount) / total
			conviction := math.Inf(1)
			if confidence < 1 {
				conviction = (1 - consSupport) / (1 - confidence)
			}
			out = append(out, Rule{
				Antecedent: arena.clone(ante),
				Consequent: arena.clone(cons),
				Count:      f.Count,
				Support:    support,
				Confidence: confidence,
				Lift:       lift,
				Leverage:   support - anteSupport*consSupport,
				Conviction: conviction,
			})
		}
	}
	return out
}

// sortOracle orders rules by descending lift, then descending support, then by a
// deterministic structural comparison so equal-metric rules have a stable
// order.
func sortOracle(rs []Rule) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Lift != rs[j].Lift {
			return rs[i].Lift > rs[j].Lift
		}
		if rs[i].Support != rs[j].Support {
			return rs[i].Support > rs[j].Support
		}
		return structuralLess(rs[i], rs[j])
	})
}

func structuralLess(a, b Rule) bool {
	if c := compareSets(a.Antecedent, b.Antecedent); c != 0 {
		return c < 0
	}
	return compareSets(a.Consequent, b.Consequent) < 0
}
