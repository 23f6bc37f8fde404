// Package pruning implements the paper's four keyword-aware redundancy
// pruning conditions (Sec. III-D), extended from Meta's fast dimensional
// analysis system. Given the rules that contain a keyword of interest, the
// conditions discard rules that a shorter or longer relative makes
// redundant, controlled by two slack parameters C_lift and C_supp (both 1.5
// in the paper):
//
//	Condition 1 (cause, antecedents nest):      prefer the shorter
//	  antecedent unless the longer one has clearly higher lift at similar
//	  support.
//	Condition 2 (characteristic, consequents nest): prefer the richer
//	  consequent when its lift and support are close to the shorter one.
//	Condition 3 (cause, consequents nest):      prefer the concise
//	  consequent — extra items next to the keyword add nothing to a cause.
//	Condition 4 (characteristic, antecedents nest): prefer the shorter
//	  antecedent when it generalizes with similar lift.
//
// Every condition compares two rules that share one side exactly and whose
// other sides are properly nested. Prune therefore indexes the relevant
// rules once by (antecedent, consequent) and finds each rule's partners by
// probing the proper subsets of one of its sides: a rule A ⇒ C costs
// 2^|A| + 2^|C| − 2 probes, at most 16 at the serving MaxLen of 5, where a
// scan of the rules sharing a side would cost the square of their number.
package pruning

import (
	"repro/internal/itemset"
	"repro/internal/rules"
)

// Options configures Prune.
type Options struct {
	// CLift regulates the lift-difference margin; must be >= 1. Zero
	// means the paper's 1.5.
	CLift float64
	// CSupp loosens support comparisons; must be >= 1. Zero means the
	// paper's 1.5.
	CSupp float64
}

// Stats reports how many rules each condition removed, for the Fig. 3 style
// before/after reporting.
type Stats struct {
	Input     int
	Kept      int
	ByCond    [4]int
	NoKeyword int // rules passed through untouched (keyword absent)
}

// Prune applies the four conditions to the rules containing keyword and
// returns the surviving rules (plus, untouched, any rules that do not
// contain the keyword), in input order. Pruning decisions are evaluated
// against the full input, so which rules survive does not depend on rule
// order. Sides must be canonical Sets.
//
// For conditions 1 and 4, each relevant rule b probes (S ⇒ b.Consequent)
// for every proper subset S of b.Antecedent, the empty set included; each
// hit is a shorter-antecedent partner a. Conditions 2 and 3 probe
// (b.Antecedent ⇒ S) over the proper subsets of b.Consequent. All
// condition-1/4 marks land before any condition-2/3 mark, so a rule
// conditions of both phases prune counts under condition 1 or 4.
// Stats.ByCond depends on the input alone when every rule's two sides are
// disjoint, as in all rules.Generate output: then at most one condition of
// each phase applies to a rule. When sides overlap, a rule that both
// conditions of one phase prune counts under whichever pair is probed
// first.
func Prune(rs []rules.Rule, keyword itemset.Item, opts Options) ([]rules.Rule, Stats) {
	if opts.CLift == 0 {
		opts.CLift = 1.5
	}
	if opts.CSupp == 0 {
		opts.CSupp = 1.5
	}
	stats := Stats{Input: len(rs)}

	// Partition: only rules containing the keyword participate.
	var relevant []int32
	for i := range rs {
		r := &rs[i]
		if r.Antecedent.Contains(keyword) || r.Consequent.Contains(keyword) {
			relevant = append(relevant, int32(i))
		} else {
			stats.NoKeyword++
		}
	}
	pruned := make([]bool, len(rs))
	mark := func(idx int32, cond int) {
		if !pruned[idx] {
			pruned[idx] = true
			stats.ByCond[cond-1]++
		}
	}
	t := newSideTable(rs, relevant)
	var sub itemset.Set

	// Conditions 1 and 4: a and b share the consequent, and a's antecedent
	// is a proper subset of b's.
	for _, jj := range relevant {
		b := &rs[jj]
		for m := uint64(0); m < 1<<len(b.Antecedent)-1; m++ {
			sub = pick(sub[:0], b.Antecedent, m)
			for ii := t.find(sub, b.Consequent); ii >= 0; ii = t.next[ii] {
				a := &rs[ii]
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
	// Conditions 2 and 3: a and b share the antecedent, and a's consequent
	// is a proper subset of b's.
	for _, jj := range relevant {
		b := &rs[jj]
		for m := uint64(0); m < 1<<len(b.Consequent)-1; m++ {
			sub = pick(sub[:0], b.Consequent, m)
			for ii := t.find(b.Antecedent, sub); ii >= 0; ii = t.next[ii] {
				a := &rs[ii]
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
	for i := range rs {
		if !pruned[i] {
			out = append(out, rs[i])
		}
	}
	stats.Kept = len(out)
	return out, stats
}

// pick appends to dst the items of s whose bit is set in mask, in order, so
// the result is canonical whenever s is.
func pick(dst, s itemset.Set, mask uint64) itemset.Set {
	for i, it := range s {
		if mask&(1<<i) != 0 {
			dst = append(dst, it)
		}
	}
	return dst
}

// sideTable is an open-addressed hash table over the relevant rules keyed
// by rules.SidesHash. A slot holds i+1 for the first relevant rs[i] with
// its sides, 0 marks an empty slot, and next[i] chains the later relevant
// rules with equal sides in input order (-1 ends a chain). It is sized at
// a load factor of at most ½.
type sideTable struct {
	rs    []rules.Rule
	slots []int32
	next  []int32
	mask  uint64
}

func newSideTable(rs []rules.Rule, relevant []int32) *sideTable {
	size := 1
	for size < 2*len(relevant)+1 {
		size <<= 1
	}
	t := &sideTable{
		rs:    rs,
		slots: make([]int32, size),
		next:  make([]int32, len(rs)),
		mask:  uint64(size - 1),
	}
	// Walking backwards and pushing onto each chain's head leaves every
	// chain in input order.
	for k := len(relevant) - 1; k >= 0; k-- {
		i := relevant[k]
		h := t.slot(rs[i].Antecedent, rs[i].Consequent)
		t.next[i] = t.slots[h] - 1
		t.slots[h] = i + 1
	}
	return t
}

// slot returns the slot holding the chain of rules with sides (ante, cons),
// or the empty slot where it belongs. Every hash hit is confirmed with
// Set.Equal.
func (t *sideTable) slot(ante, cons itemset.Set) uint64 {
	h := rules.SidesHash(ante, cons) & t.mask
	for {
		v := t.slots[h]
		if v == 0 {
			return h
		}
		r := &t.rs[v-1]
		if r.Antecedent.Equal(ante) && r.Consequent.Equal(cons) {
			return h
		}
		h = (h + 1) & t.mask
	}
}

// find returns the index of the first relevant rule with sides (ante,
// cons), or -1.
func (t *sideTable) find(ante, cons itemset.Set) int32 {
	return t.slots[t.slot(ante, cons)] - 1
}
