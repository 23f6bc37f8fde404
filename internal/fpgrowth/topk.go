package fpgrowth

import (
	"sort"

	"repro/internal/itemset"
	"repro/internal/transaction"
)

// MineTopK returns the k most frequent itemsets without requiring a support
// threshold — the operator-friendly entry point the paper's discussion
// gestures at ("to reduce the abundance of rules, one simply increases the
// thresholds"): here the abundance is fixed and the threshold found
// automatically. Ties at the k-th count are all included, so the result may
// slightly exceed k. MaxLen behaves as in Options.
//
// The search starts at the largest singleton count and halves the threshold
// until at least k itemsets qualify; the final mine then trims to the k-th
// count. Dense databases therefore never pay for a full threshold-1 mine
// unless k genuinely demands it.
func MineTopK(db *transaction.DB, k, maxLen int) []itemset.Frequent {
	if k < 1 || db.Len() == 0 {
		return nil
	}
	maxCount := 0
	for _, c := range db.ItemCounts() {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return nil
	}
	threshold := maxCount
	var result []itemset.Frequent
	for {
		result = Mine(db, Options{MinCount: threshold, MaxLen: maxLen})
		if len(result) >= k || threshold == 1 {
			break
		}
		threshold /= 2
		if threshold < 1 {
			threshold = 1
		}
	}
	if len(result) <= k {
		return result
	}
	// Trim to the k-th count, keeping ties.
	counts := make([]int, len(result))
	for i, f := range result {
		counts[i] = f.Count
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	cutoff := counts[k-1]
	out := result[:0]
	for _, f := range result {
		if f.Count >= cutoff {
			out = append(out, f)
		}
	}
	itemset.SortFrequent(out)
	return out
}
