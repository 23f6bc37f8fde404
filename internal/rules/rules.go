// Package rules generates association rules from frequent itemsets and
// evaluates the paper's three quality metrics — support, confidence and
// lift (Sec. III-B) — plus the auxiliary leverage and conviction measures.
// Rule generation follows the paper's two-step approach: itemsets first
// (package fpgrowth), then every antecedent/consequent split of each
// itemset, filtered by a minimum lift so rules whose sides are nearly
// independent never reach the analyst.
package rules

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/itemset"
)

// Rule is an implication Antecedent ⇒ Consequent with its quality metrics.
type Rule struct {
	Antecedent itemset.Set
	Consequent itemset.Set
	// Count is the absolute number of transactions containing both sides.
	Count int
	// Support is P(X, Y): the fraction of transactions containing both
	// sides (Eq. 2).
	Support float64
	// Confidence is P(Y | X) (Eq. 3).
	Confidence float64
	// Lift is confidence normalized by the consequent support (Eq. 4);
	// 1 means independence, >1 positive dependence.
	Lift float64
	// Leverage is P(X,Y) − P(X)·P(Y), the additive analogue of lift.
	Leverage float64
	// Conviction is (1 − P(Y)) / (1 − confidence); +Inf for exact rules.
	Conviction float64
}

// SidesHash is a 64-bit FNV-1a hash of the antecedent items, a separator,
// then the consequent items, so the splits of one itemset hash apart. The
// final fold feeds the high bits into the low ones a power-of-two table
// masks. Equal sides hash equal; distinct sides may collide, so callers
// must confirm matches with Set.Equal.
func SidesHash(ante, cons itemset.Set) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, it := range ante {
		h ^= uint64(uint32(it))
		h *= prime64
	}
	h ^= math.MaxUint64
	h *= prime64
	for _, it := range cons {
		h ^= uint64(uint32(it))
		h *= prime64
	}
	return h ^ h>>32
}

// Items returns the union of both sides.
func (r Rule) Items() itemset.Set { return r.Antecedent.Union(r.Consequent) }

// Format renders the rule with readable item names.
func (r Rule) Format(c *itemset.Catalog) string {
	return fmt.Sprintf("{%s} => {%s}  supp=%.2f conf=%.2f lift=%.2f",
		strings.Join(c.Names(r.Antecedent), ", "),
		strings.Join(c.Names(r.Consequent), ", "),
		r.Support, r.Confidence, r.Lift)
}

// Options configures Generate.
type Options struct {
	// MinLift drops rules with lift below the threshold. Zero means the
	// paper's 1.5. Set negative to disable.
	MinLift float64
	// MinConfidence drops rules with confidence below the threshold.
	MinConfidence float64
	// MinSupport drops rules with support below the threshold (the miner
	// normally enforces this already via its min count).
	MinSupport float64
	// Workers sets the parallelism for sharding itemsets across
	// goroutines. Zero means GOMAXPROCS; 1 forces serial generation. The
	// output is identical for any worker count.
	Workers int
}

// supportIndex is an open-addressed hash table from itemset to its support
// count, keyed by Set.Hash — no string Key allocations on lookups. Slots
// hold 1-based indices into the frequent slice; the table is built once and
// read concurrently by every generation shard.
type supportIndex struct {
	slots []int32
	mask  uint64
	fs    []itemset.Frequent
}

func newSupportIndex(fs []itemset.Frequent) *supportIndex {
	size := 1
	for size < 2*len(fs)+1 {
		size <<= 1
	}
	ix := &supportIndex{slots: make([]int32, size), mask: uint64(size - 1), fs: fs}
	for i := range fs {
		h := fs[i].Items.Hash() & ix.mask
		for ix.slots[h] != 0 {
			h = (h + 1) & ix.mask
		}
		ix.slots[h] = int32(i + 1)
	}
	return ix
}

// count returns the support count of s, or false when s is not frequent.
func (ix *supportIndex) count(s itemset.Set) (int, bool) {
	h := s.Hash() & ix.mask
	for {
		v := ix.slots[h]
		if v == 0 {
			return 0, false
		}
		if ix.fs[v-1].Items.Equal(s) {
			return ix.fs[v-1].Count, true
		}
		h = (h + 1) & ix.mask
	}
}

// Generate derives association rules from the mined frequent itemsets.
// nTxns is the database size |D|. Every frequent itemset of length >= 2 is
// split into each non-empty antecedent/consequent partition; metric
// computation looks up the parts' supports in the frequent list itself
// (every subset of a frequent itemset is frequent, so the lookups always
// hit). Itemsets are sharded across opts.Workers goroutines — splits of
// different itemsets are independent — and the shards merged and sorted
// once, so any worker count yields the same rules in the same order:
// descending lift, ties by descending support.
func Generate(frequent []itemset.Frequent, nTxns int, opts Options) []Rule {
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
		out = generateShard(ix, total, opts, 0, 1)
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
				shards[w] = generateShard(ix, total, opts, w, workers)
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
	Sort(out)
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

// generateShard enumerates the antecedent/consequent splits of every
// start+k*stride-th frequent itemset.
func generateShard(ix *supportIndex, total float64, opts Options, start, stride int) []Rule {
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

// Sort orders rules by descending lift, then descending support, then by a
// deterministic structural comparison so equal-metric rules have a stable
// order.
func Sort(rs []Rule) {
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

func compareSets(a, b itemset.Set) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return int(a[i]) - int(b[i])
		}
	}
	return 0
}

// Analysis partitions rules for one keyword: cause rules carry the keyword
// in the consequent ("what leads to the observation"), characteristic rules
// carry it in the antecedent ("what else is true of jobs with the
// observation"). A rule with the keyword on both sides is impossible since
// the sides are disjoint; rules without the keyword are excluded.
type Analysis struct {
	Keyword        itemset.Item
	Cause          []Rule
	Characteristic []Rule
}

// Split builds the keyword analysis from a rule list.
func Split(rs []Rule, keyword itemset.Item) Analysis {
	a := Analysis{Keyword: keyword}
	for _, r := range rs {
		switch {
		case r.Consequent.Contains(keyword):
			a.Cause = append(a.Cause, r)
		case r.Antecedent.Contains(keyword):
			a.Characteristic = append(a.Characteristic, r)
		}
	}
	return a
}

// All returns cause rules followed by characteristic rules.
func (a Analysis) All() []Rule {
	out := make([]Rule, 0, len(a.Cause)+len(a.Characteristic))
	out = append(out, a.Cause...)
	return append(out, a.Characteristic...)
}
