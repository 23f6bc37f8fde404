package pruning

import (
	"repro/internal/itemset"
	"repro/internal/rules"
)

// pruneOracle is Prune as it was before the sub-side probe table: it buckets
// the relevant rules by Set.Key strings and tests every ordered pair inside
// each bucket. It is kept verbatim as the oracle the probe version must
// match (kept lists always, Stats whenever every rule's sides are
// disjoint).
func pruneOracle(rs []rules.Rule, keyword itemset.Item, opts Options) ([]rules.Rule, Stats) {
	if opts.CLift == 0 {
		opts.CLift = 1.5
	}
	if opts.CSupp == 0 {
		opts.CSupp = 1.5
	}
	stats := Stats{Input: len(rs)}

	// Partition: only rules containing the keyword participate.
	var relevant []int
	for i, r := range rs {
		if r.Antecedent.Contains(keyword) || r.Consequent.Contains(keyword) {
			relevant = append(relevant, i)
		} else {
			stats.NoKeyword++
		}
	}
	pruned := make([]bool, len(rs))
	mark := func(idx, cond int) {
		if !pruned[idx] {
			pruned[idx] = true
			stats.ByCond[cond-1]++
		}
	}

	// Every condition compares two rules sharing one side exactly, so the
	// quadratic pair scan only needs to run inside buckets of equal
	// consequent (conditions 1 and 4) or equal antecedent (2 and 3).
	byConsequent := make(map[string][]int)
	byAntecedent := make(map[string][]int)
	for _, i := range relevant {
		byConsequent[rs[i].Consequent.Key()] = append(byConsequent[rs[i].Consequent.Key()], i)
		byAntecedent[rs[i].Antecedent.Key()] = append(byAntecedent[rs[i].Antecedent.Key()], i)
	}

	for _, bucket := range byConsequent {
		for _, ii := range bucket {
			for _, jj := range bucket {
				if ii == jj {
					continue
				}
				a, b := rs[ii], rs[jj]
				if !a.Antecedent.IsProperSubset(b.Antecedent) {
					continue
				}
				// Condition 1: keyword in the shared consequent.
				if b.Consequent.Contains(keyword) {
					if opts.CLift*a.Lift >= b.Lift {
						mark(jj, 1)
					} else if opts.CSupp*b.Support >= a.Support {
						mark(ii, 1)
					}
				}
				// Condition 4: keyword in both antecedents.
				if a.Antecedent.Contains(keyword) && b.Antecedent.Contains(keyword) {
					if opts.CLift*a.Lift >= b.Lift {
						mark(jj, 4)
					}
				}
			}
		}
	}
	for _, bucket := range byAntecedent {
		for _, ii := range bucket {
			for _, jj := range bucket {
				if ii == jj {
					continue
				}
				a, b := rs[ii], rs[jj]
				if !a.Consequent.IsProperSubset(b.Consequent) {
					continue
				}
				// Condition 2: keyword in the shared antecedent.
				if a.Antecedent.Contains(keyword) {
					if opts.CLift*b.Lift >= a.Lift && opts.CSupp*b.Support >= a.Support {
						mark(ii, 2)
					} else if opts.CLift*b.Lift < a.Lift {
						mark(jj, 2)
					}
				}
				// Condition 3: keyword in both consequents.
				if a.Consequent.Contains(keyword) && b.Consequent.Contains(keyword) {
					if opts.CLift*a.Lift >= b.Lift {
						mark(jj, 3)
					}
				}
			}
		}
	}

	out := make([]rules.Rule, 0, len(rs))
	for i, r := range rs {
		if !pruned[i] {
			out = append(out, r)
		}
	}
	stats.Kept = len(out)
	return out, stats
}
