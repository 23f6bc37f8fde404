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
	"math/bits"
	"slices"
	"strings"

	"repro/internal/itemset"
	"repro/internal/radix"
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
	// Workers is ignored: Generate enumerates serially, since sharding
	// the enumeration across goroutines did not pay (see DESIGN.md §5).
	Workers int
}

// supportIndex looks up an itemset's support count in the frequent list.
type supportIndex struct {
	find *itemset.Index
	fs   []itemset.Frequent
}

func newSupportIndex(fs []itemset.Frequent) *supportIndex {
	return &supportIndex{find: itemset.NewIndex(fs, nil), fs: fs}
}

// count returns the support count of s, or false when s is not frequent.
func (ix *supportIndex) count(s itemset.Set) (int, bool) {
	if i := ix.find.Find(s); i >= 0 {
		return ix.fs[i].Count, true
	}
	return 0, false
}

// Generate derives association rules from the mined frequent itemsets.
// nTxns is the database size |D| and must be positive. Every frequent
// itemset of length >= 2 is split into each non-empty antecedent/consequent
// partition; metric computation reads the parts' supports from the
// frequent list itself (every subset of a frequent itemset is frequent, so
// the lookups always hit). The rules come out strongest first: descending
// lift, ties by descending support, then by antecedent and then consequent
// under compareSets, so the order is deterministic.
//
// The cost follows the kept rules, not the 2^k−2 splits of a k-itemset:
// each proper subset is looked up once into a count table indexed by bit
// mask, and a split that fails a threshold costs two table reads and a few
// divisions. A kept split is recorded as its itemset and antecedent mask;
// a permutation of the records is radix sorted by support and lift, sides
// are compared only inside runs where both tie, and each Rule is then
// written once into its final slot of an exactly sized slice.
func Generate(frequent []itemset.Frequent, nTxns int, opts Options) []Rule {
	g := newGenerator(frequent, nTxns, opts)
	return g.place(g.order())
}

// Refs names generated rules by reference, in the generator's own record
// order: the kept splits of each frequent itemset, masks ascending. The
// splits of Itemsets[i] are Mask[Start[i]:Start[i+1]]. Bit j of a mask
// puts the itemset's j-th item in the antecedent and the rest form the
// consequent; Rule gives the split's position in the rule list. A rule's
// structure, antecedent ⇒ consequent, is exactly its (itemset, mask) pair,
// so two rule lists compare by itemset and then by integer masks. The refs
// cost 12 bytes per rule and 4 per itemset; all four slices are immutable.
type Refs struct {
	// Itemsets is the frequent list the rules were generated from.
	Itemsets []itemset.Frequent
	Start    []int32
	Mask     []uint64
	Rule     []int32
}

// GenerateRefs is Generate that also returns the rules' refs.
func GenerateRefs(frequent []itemset.Frequent, nTxns int, opts Options) ([]Rule, Refs) {
	g := newGenerator(frequent, nTxns, opts)
	order := g.order()
	refs := Refs{
		Itemsets: frequent,
		Start:    make([]int32, len(frequent)+1),
		Mask:     make([]uint64, g.n),
		Rule:     make([]int32, g.n),
	}
	for p, si := range order {
		refs.Rule[si] = int32(p)
	}
	for si := range refs.Mask {
		s := g.at(int32(si))
		refs.Mask[si] = s.mask
		refs.Start[s.fi+1]++
	}
	for i := 1; i < len(refs.Start); i++ {
		refs.Start[i] += refs.Start[i-1]
	}
	return g.place(order), refs
}

// newGenerator records the kept splits of every frequent itemset.
func newGenerator(frequent []itemset.Frequent, nTxns int, opts Options) generator {
	if opts.MinLift == 0 {
		opts.MinLift = 1.5
	}
	g := generator{ix: newSupportIndex(frequent), total: float64(nTxns), opts: opts}
	for fi := range frequent {
		g.enumerate(fi)
	}
	return g
}

// split is one kept antecedent/consequent partition of a frequent itemset:
// bit i of mask puts the itemset's i-th item in the antecedent. ante and
// cons are the two sides' support counts.
type split struct {
	mask       uint64
	ante, cons int
	fi         int32
}

// splitBlock is the number of splits per storage block. Fixed blocks
// never move once filled, so recording n splits allocates about n splits'
// worth, where a grown slice would allocate several times that.
const (
	splitBlockBits = 10
	splitBlock     = 1 << splitBlockBits
)

// generator holds Generate's working state: the kept splits and the
// scratch reused from one itemset to the next.
type generator struct {
	ix    *supportIndex
	total float64
	opts  Options

	// blocks hold the kept splits in enumeration order; n counts them.
	blocks [][]split
	n      int
	// items is the summed length of the kept splits' itemsets: the size
	// of the slab their sides are placed in.
	items int

	// counts[mask] is the support count of the subset at mask of the
	// itemset being enumerated, 0 when the subset is not frequent. It is
	// sized by the itemset's own length.
	counts []int
	sub    itemset.Set
}

// at returns the i-th kept split.
func (g *generator) at(i int32) *split {
	return &g.blocks[i>>splitBlockBits][i&(splitBlock-1)]
}

// ratios computes a split's confidence, consequent support and lift from
// its itemset's count and its sides' counts. Every stage derives them
// here, so the lift a split was kept and ranked by is the one it carries.
func (g *generator) ratios(count, anteCount, consCount int) (confidence, consSupport, lift float64) {
	confidence = float64(count) / float64(anteCount)
	consSupport = float64(consCount) / g.total
	return confidence, consSupport, confidence / consSupport
}

// enumerate records the splits of frequent[fi] that pass the thresholds.
func (g *generator) enumerate(fi int) {
	f := g.ix.fs[fi]
	k := len(f.Items)
	if k < 2 {
		return
	}
	support := float64(f.Count) / g.total
	if support < g.opts.MinSupport {
		// Every split of the itemset shares its support.
		return
	}
	full := uint64(1)<<k - 1
	if len(g.counts) < 1<<k {
		g.counts = make([]int, 1<<k)
	}
	for mask := uint64(1); mask < full; mask++ {
		sub := g.sub[:0]
		for i, it := range f.Items {
			if mask>>i&1 != 0 {
				sub = append(sub, it)
			}
		}
		g.sub = sub
		// A subset missing from the list reads as count 0, which skips
		// its splits exactly as a zero count does.
		g.counts[mask], _ = g.ix.count(sub)
	}
	for mask := uint64(1); mask < full; mask++ {
		anteCount, consCount := g.counts[mask], g.counts[full^mask]
		if anteCount == 0 || consCount == 0 {
			continue
		}
		confidence, _, lift := g.ratios(f.Count, anteCount, consCount)
		if lift < g.opts.MinLift || confidence < g.opts.MinConfidence {
			continue
		}
		if g.n%splitBlock == 0 {
			g.blocks = append(g.blocks, make([]split, splitBlock))
		}
		*g.at(int32(g.n)) = split{mask: mask, ante: anteCount, cons: consCount, fi: int32(fi)}
		g.n++
		g.items += k
	}
}

// order returns the kept splits' indices in rule order: two stable radix
// sorts rank them by count, then by lift, and compare orders each run of
// equal lift and count. Support is count/nTxns, so ranking by count
// ranks by support, ties included; and a count key has far fewer distinct
// digits to sort than a support key.
func (g *generator) order() []int32 {
	n := g.n
	// One allocation holds the keys and the radix sort's scratch copy.
	keys := make([]uint64, 2*n)
	perm := make([]int32, n)
	for i := range perm {
		keys[i] = radix.DescKey(float64(g.count(int32(i))))
		perm[i] = int32(i)
	}
	_, perm = radix.Sort(keys[:n], keys[n:], perm)
	for j, i := range perm {
		s := g.at(i)
		_, _, lift := g.ratios(g.ix.fs[s.fi].Count, s.ante, s.cons)
		keys[j] = radix.DescKey(lift)
	}
	lifts, perm := radix.Sort(keys[:n], keys[n:], perm)
	cmp := g.compare
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && lifts[hi] == lifts[lo] && g.count(perm[hi]) == g.count(perm[lo]) {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(perm[lo:hi], cmp)
		}
		lo = hi
	}
	return perm
}

// count is the i-th kept split's count.
func (g *generator) count(i int32) int {
	return g.ix.fs[g.at(i).fi].Count
}

// compare orders two splits of equal lift and count by antecedent, then
// consequent, under compareSets, reading the sides through the masks in
// place.
func (g *generator) compare(a, b int32) int {
	sa, sb := g.at(a), g.at(b)
	fa, fb := &g.ix.fs[sa.fi], &g.ix.fs[sb.fi]
	if c := compareMasked(fa.Items, sa.mask, fb.Items, sb.mask); c != 0 {
		return c
	}
	fullA, fullB := uint64(1)<<len(fa.Items)-1, uint64(1)<<len(fb.Items)-1
	return compareMasked(fa.Items, fullA^sa.mask, fb.Items, fullB^sb.mask)
}

// compareMasked is compareSets on the items of a selected by maskA and
// those of b selected by maskB.
func compareMasked(a itemset.Set, maskA uint64, b itemset.Set, maskB uint64) int {
	if na, nb := bits.OnesCount64(maskA), bits.OnesCount64(maskB); na != nb {
		return na - nb
	}
	for ; maskA != 0; maskA, maskB = maskA&(maskA-1), maskB&(maskB-1) {
		x, y := a[bits.TrailingZeros64(maskA)], b[bits.TrailingZeros64(maskB)]
		if x != y {
			return int(x) - int(y)
		}
	}
	return 0
}

// sides writes the items of s selected by mask, then the rest, into dst
// (as long as s) and returns the two parts.
func sides(dst, s itemset.Set, mask uint64) (ante, cons itemset.Set) {
	na := bits.OnesCount64(mask)
	a, c := 0, na
	for i, it := range s {
		if mask>>i&1 != 0 {
			dst[a] = it
			a++
		} else {
			dst[c] = it
			c++
		}
	}
	return dst[:na:na], dst[na:len(s):len(s)]
}

// place materialises the rules in order: each Rule is written once into
// its slot, its sides cut from one slab of exactly the kept items.
func (g *generator) place(order []int32) []Rule {
	out := make([]Rule, len(order))
	slab := make(itemset.Set, g.items)
	for p, si := range order {
		s := g.at(si)
		f := &g.ix.fs[s.fi]
		k := len(f.Items)
		ante, cons := sides(slab[:k:k], f.Items, s.mask)
		slab = slab[k:]
		support := float64(f.Count) / g.total
		confidence, consSupport, lift := g.ratios(f.Count, s.ante, s.cons)
		anteSupport := float64(s.ante) / g.total
		conviction := math.Inf(1)
		if confidence < 1 {
			conviction = (1 - consSupport) / (1 - confidence)
		}
		out[p] = Rule{
			Antecedent: ante,
			Consequent: cons,
			Count:      f.Count,
			Support:    support,
			Confidence: confidence,
			Lift:       lift,
			Leverage:   support - anteSupport*consSupport,
			Conviction: conviction,
		}
	}
	return out
}

// compareSets orders sets shorter first, then item by item.
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

// Split builds the keyword analysis from a rule list. A counting pass
// sizes both lists, so each is allocated once at its exact length (nil
// when empty) instead of growing by append.
func Split(rs []Rule, keyword itemset.Item) Analysis {
	causes, chars := 0, 0
	for i := range rs {
		switch {
		case rs[i].Consequent.Contains(keyword):
			causes++
		case rs[i].Antecedent.Contains(keyword):
			chars++
		}
	}
	a := Analysis{Keyword: keyword}
	if causes > 0 {
		a.Cause = make([]Rule, 0, causes)
	}
	if chars > 0 {
		a.Characteristic = make([]Rule, 0, chars)
	}
	for i := range rs {
		switch {
		case rs[i].Consequent.Contains(keyword):
			a.Cause = append(a.Cause, rs[i])
		case rs[i].Antecedent.Contains(keyword):
			a.Characteristic = append(a.Characteristic, rs[i])
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
