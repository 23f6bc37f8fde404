// Incremental FP-tree maintenance, a library for sliding-window mining. A
// sliding-window miner that rebuilds its FP-tree from scratch every tick
// pays O(window) per mine no matter how little changed; an Incremental tree
// instead persists across mines and is patched in place — a weighted
// insert for every arriving transaction, a weighted decrement along the
// path of every evicted one — so the per-tick maintenance cost is
// proportional to the delta. The serving loop (internal/stream) does not
// use it: there rule generation, diff and index build dominate each
// publish, and a maintained tree measured no faster end to end.
//
// Correctness does not require the tree's item order to track item
// frequency: any fixed total order over items yields exact conditional
// pattern bases (this is the CanTree observation — every itemset is
// enumerated exactly once, in the conditional tree of its last item under
// the fixed order). Frequency-descending order is only a compression
// heuristic, so the tree keeps the rank order assigned at the last rebuild,
// appends fresh tail ranks for never-seen items, and tolerates the order
// drifting away from the true support order as the window slides. Two
// invariants bound the decay:
//
//   - Rank drift: when the fixed order's footrule distance from the true
//     descending-support order exceeds DriftThreshold, prefix sharing has
//     degraded enough that a rebuild pays for itself.
//   - Fragmentation: decrements never unlink nodes (a count-zero node is
//     left in place so a later identical insert revives it instead of
//     allocating); when dead nodes exceed MaxDeadFrac of the arena, a
//     rebuild compacts it.
//
// A rebuild re-ranks by current support and reinserts the window — read
// back out of the tree itself in O(tree) — so the worst case is exactly
// the from-scratch build, and the steady state touches only changed paths.
package fpgrowth

import (
	"fmt"
	"sort"

	"repro/internal/itemset"
)

// IncOptions tunes when an Incremental tree falls back to a full rebuild.
type IncOptions struct {
	// DriftThreshold is the normalized footrule distance (0..1) between
	// the maintained rank order and the true descending-support order at
	// which Maintain rebuilds. Zero means 0.15; negative disables the
	// drift check.
	DriftThreshold float64
	// MaxDeadFrac is the tolerated fraction of count-zero arena nodes
	// before Maintain compacts via rebuild. Zero means 0.5.
	MaxDeadFrac float64
}

func (o IncOptions) withDefaults() IncOptions {
	if o.DriftThreshold == 0 {
		o.DriftThreshold = 0.15
	}
	if o.MaxDeadFrac == 0 {
		o.MaxDeadFrac = 0.5
	}
	return o
}

// IncStats describes the maintained tree, for metrics and tests.
type IncStats struct {
	// Txns is the number of transactions currently represented.
	Txns int
	// Nodes is the arena size excluding the root; Dead of those have
	// count zero (every transaction through them was evicted) and are
	// skipped at mine time until an insert revives them or a rebuild
	// drops them.
	Nodes, Dead int
	// Rebuilds counts full rebuilds since NewIncremental.
	Rebuilds int64
}

// Incremental is an FP-tree maintained across window slides. It is not
// safe for concurrent use — like stream.Miner, confine it to one goroutine
// and mine from Freeze clones. The zero value is not usable; construct
// with NewIncremental.
type Incremental struct {
	opts IncOptions
	t    tree
	// rankOf maps item id -> rank under the current fixed order; nilIdx
	// means the item is not in the window (a fresh tail rank is assigned
	// on its next arrival).
	rankOf   []int32
	dead     int // arena nodes with count 0
	txns     int // transactions represented (empty ones included)
	rebuilds int64
	encBuf   []int32
	sortBuf  []int32 // drift/rebuild ordering scratch
}

// NewIncremental returns an empty maintained tree.
func NewIncremental(opts IncOptions) *Incremental {
	inc := &Incremental{opts: opts.withDefaults()}
	inc.t.reset(0, 1)
	return inc
}

// Len returns the number of transactions currently represented.
func (inc *Incremental) Len() int { return inc.txns }

// Stats reports the tree's current shape.
func (inc *Incremental) Stats() IncStats {
	return IncStats{
		Txns:     inc.txns,
		Nodes:    len(inc.t.nodes) - 1,
		Dead:     inc.dead,
		Rebuilds: inc.rebuilds,
	}
}

// rank returns the rank of it under the current order, assigning a fresh
// tail rank when assign is set and the item is unranked.
func (inc *Incremental) rank(it itemset.Item, assign bool) int32 {
	id := int(it)
	for id >= len(inc.rankOf) {
		inc.rankOf = append(inc.rankOf, nilIdx)
	}
	r := inc.rankOf[id]
	if r == nilIdx && assign {
		// Unseen since the last rebuild: the item was infrequent or absent
		// then, so the tail — the position the rebuild would have given a
		// minimum-support item — is the least-wrong place for it. The
		// drift check corrects the order if it grows hot.
		r = int32(len(inc.t.items))
		inc.rankOf[id] = r
		inc.t.items = append(inc.t.items, it)
		inc.t.counts = append(inc.t.counts, 0)
		inc.t.heads = append(inc.t.heads, nilIdx)
		inc.t.tails = append(inc.t.tails, nilIdx)
	}
	return r
}

// Add inserts one transaction (a canonical set) with weight one, splicing
// its path into the maintained tree. Cost is O(len(txn) · fan-out), not
// O(window).
func (inc *Incremental) Add(txn itemset.Set) {
	inc.encBuf = inc.encBuf[:0]
	for _, it := range txn {
		inc.encBuf = append(inc.encBuf, inc.rank(it, true))
	}
	rankSort(inc.encBuf)
	// Reviving a dead node needs no allocation and no relink: the lazy
	// unlink left the fully evicted path in place for exactly this.
	inc.dead -= inc.t.insert(inc.encBuf, 1)
	for _, r := range inc.encBuf {
		inc.t.counts[r]++
	}
	inc.txns++
}

// Remove decrements the path of one evicted transaction. The transaction
// must currently be represented (every eviction the sliding window hands us
// was a previous Add); a decrement that cannot find its path means the
// caller broke that contract, reported as an error so the caller can fall
// back to a rebuild rather than serve wrong counts.
func (inc *Incremental) Remove(txn itemset.Set) error {
	inc.encBuf = inc.encBuf[:0]
	for _, it := range txn {
		r := inc.rank(it, false)
		if r == nilIdx {
			return fmt.Errorf("fpgrowth: evicted transaction holds item %d never added", it)
		}
		inc.encBuf = append(inc.encBuf, r)
	}
	rankSort(inc.encBuf)
	t := &inc.t
	cur := int32(0)
	for _, r := range inc.encBuf {
		c := t.nodes[cur].child
		for c != nilIdx && t.nodes[c].rank != r {
			c = t.nodes[c].sibling
		}
		if c == nilIdx || t.nodes[c].count == 0 {
			return fmt.Errorf("fpgrowth: evicted transaction %v not in tree", txn)
		}
		t.nodes[c].count--
		t.counts[r]--
		if t.nodes[c].count == 0 {
			// Lazy unlink: leave the node threaded in its child list and
			// header chain — mining skips count-zero nodes, a later insert
			// of the same path revives this one, and the fragmentation
			// check rebuilds when too many accumulate.
			inc.dead++
		}
		cur = c
	}
	inc.txns--
	return nil
}

// drift returns the normalized footrule distance between the maintained
// rank order and the true descending-support order of the items currently
// in the window: 0 when they agree, approaching 1 when reversed. Ties in
// support never contribute (the true order breaks them by current rank), so
// a freshly rebuilt tree measures 0.
func (inc *Incremental) drift() float64 {
	live := inc.sortBuf[:0]
	for r, c := range inc.t.counts {
		if c > 0 {
			live = append(live, int32(r))
		}
	}
	inc.sortBuf = live
	n := len(live)
	if n < 2 {
		return 0
	}
	// live is ascending by maintained rank; sort a copy by descending
	// support (ties by maintained rank) and sum positional displacement.
	byCount := append([]int32(nil), live...)
	sort.Slice(byCount, func(i, j int) bool {
		ci, cj := inc.t.counts[byCount[i]], inc.t.counts[byCount[j]]
		if ci != cj {
			return ci > cj
		}
		return byCount[i] < byCount[j]
	})
	posOf := make(map[int32]int, n)
	for pos, r := range live {
		posOf[r] = pos
	}
	total := 0
	for pos, r := range byCount {
		d := pos - posOf[r]
		if d < 0 {
			d = -d
		}
		total += d
	}
	// The footrule maximum over n elements is n²/2 (full reversal).
	return float64(total) / (float64(n) * float64(n) / 2)
}

// needRebuild reports whether either maintenance invariant is violated.
func (inc *Incremental) needRebuild() bool {
	if nodes := len(inc.t.nodes) - 1; nodes > 0 &&
		float64(inc.dead) > inc.opts.MaxDeadFrac*float64(nodes) {
		return true
	}
	return inc.opts.DriftThreshold >= 0 && inc.drift() > inc.opts.DriftThreshold
}

// Maintain checks the drift and fragmentation invariants and runs a full
// rebuild when either is violated, returning whether it did. Callers
// typically invoke it once per mine, before Freeze, so a decayed tree
// never serves more than one snapshot.
func (inc *Incremental) Maintain() bool {
	if !inc.needRebuild() {
		return false
	}
	inc.Rebuild()
	return true
}

// Rebuild re-ranks every item in the window by descending support and
// reinserts the window's distinct transactions — recovered from the tree
// itself, so the cost is O(tree), not O(window) — into a compact arena.
// This is the fallback that makes the worst case no worse than building
// from scratch.
func (inc *Incremental) Rebuild() {
	t := &inc.t
	n := len(t.nodes)
	// A node's transaction-end multiplicity is its count minus its
	// children's: the number of window transactions whose encoding stops
	// exactly there. Dead nodes (count 0) have zero by construction.
	childSum := make([]int32, n)
	for i := 1; i < n; i++ {
		childSum[t.nodes[i].parent] += t.nodes[i].count
	}
	var flat []itemset.Item
	var offs []int32
	var weights []int32
	offs = append(offs, 0)
	for i := 1; i < n; i++ {
		w := t.nodes[i].count - childSum[i]
		if w <= 0 {
			continue
		}
		for p := int32(i); p > 0; p = t.nodes[p].parent {
			flat = append(flat, t.items[t.nodes[p].rank])
		}
		offs = append(offs, int32(len(flat)))
		weights = append(weights, w)
	}

	// New order: descending support, ties by item id — the same order
	// buildInitial assigns, so a rebuilt tree matches a from-scratch one.
	oldItems := append([]itemset.Item(nil), t.items...)
	countOf := make(map[itemset.Item]int32, len(oldItems))
	var order []itemset.Item
	for r, c := range t.counts {
		if c > 0 {
			countOf[oldItems[r]] = c
			order = append(order, oldItems[r])
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if countOf[order[i]] != countOf[order[j]] {
			return countOf[order[i]] > countOf[order[j]]
		}
		return order[i] < order[j]
	})
	for _, it := range oldItems {
		inc.rankOf[it] = nilIdx
	}
	t.reset(len(order), 1)
	for r, it := range order {
		inc.rankOf[it] = int32(r)
		t.items[r] = it
		t.counts[r] = countOf[it]
	}
	for k := range weights {
		inc.encBuf = inc.encBuf[:0]
		for _, it := range flat[offs[k]:offs[k+1]] {
			inc.encBuf = append(inc.encBuf, inc.rankOf[it])
		}
		rankSort(inc.encBuf)
		t.insert(inc.encBuf, weights[k])
	}
	inc.dead = 0
	inc.rebuilds++
}

// Freeze returns an immutable deep copy of the maintained tree, safe to
// mine on another goroutine while this Incremental keeps absorbing window
// slides. The copy is a handful of contiguous slice clones — O(tree), far
// below the O(window) rebuild it replaces — and holds no reference back, so
// an abandoned mine strands only its clone.
func (inc *Incremental) Freeze() *FrozenTree {
	ft := &FrozenTree{txns: inc.txns}
	ft.t.nodes = append([]node(nil), inc.t.nodes...)
	ft.t.heads = append([]int32(nil), inc.t.heads...)
	ft.t.counts = append([]int32(nil), inc.t.counts...)
	ft.t.items = append([]itemset.Item(nil), inc.t.items...)
	return ft
}

// FrozenTree is a point-in-time copy of an Incremental tree. Mine may be
// called once or many times, from any single goroutine at a time.
//
// armlint:immutable — no field writes outside this file (enforced by
// immutcheck; see internal/lint).
type FrozenTree struct {
	t    tree
	txns int
}

// Len returns the number of transactions the frozen tree represents.
func (ft *FrozenTree) Len() int { return ft.txns }

// Mine returns every itemset with support count >= opts.MinCount and
// length <= opts.MaxLen, with exact counts, in canonical order — the same
// contract as package-level Mine over the equivalent database. Unlike a
// freshly built tree, a maintained one holds currently-infrequent ranks
// and dead nodes; the top level therefore mines only the frequent ranks,
// and conditional projection skips dead nodes.
func (ft *FrozenTree) Mine(opts Options) []itemset.Frequent {
	if opts.MinCount < 1 {
		opts.MinCount = 1
	}
	ft.t.minCnt = int32(opts.MinCount)
	var top []int32
	for r, c := range ft.t.counts {
		if int(c) >= opts.MinCount {
			top = append(top, int32(r))
		}
	}
	return mineTop(&ft.t, top, opts)
}
