// Package fpgrowth implements the FP-Growth frequent-itemset mining
// algorithm (Han et al., "Mining frequent patterns without candidate
// generation"), the paper's miner of choice. An FP-tree compresses the
// transaction database into shared prefixes ordered by descending item
// frequency; mining proceeds by projecting conditional pattern bases per
// item and recursing on conditional trees.
//
// The engine is built for the serving hot path (internal/server re-mines a
// sliding window every few seconds), so the tree is laid out for the cache
// rather than the garbage collector:
//
//   - Frequent items are remapped to dense ranks — rank 0 is the globally
//     most frequent item — so per-item state (support counts, header
//     chains, the catalog-id translation) lives in flat slices indexed by
//     rank, and every root→leaf path carries strictly ascending ranks.
//   - Nodes are arena-allocated: a tree is one []node slab addressed by
//     int32 indices, with children as first-child/next-sibling lists,
//     instead of a pointer + map[Item]*node per node.
//   - Transactions are encoded once into a flat rank buffer, ordered by an
//     in-place rank sort (no sort.Slice closures), and identical encodings
//     — very common after discretization into a few bins — are
//     deduplicated and inserted once with their multiplicity.
//   - Conditional projections reuse per-miner pooled trees and scratch
//     buffers, so recursion allocates nothing once the pool is warm.
//
// Mining is one serial pass: the conditional tree of each initial header
// item is projected and mined in turn, bottom-up, and the collected
// itemsets get one canonical sort at the end.
package fpgrowth

import (
	"sort"

	"repro/internal/itemset"
	"repro/internal/transaction"
)

// Options configures Mine.
type Options struct {
	// MinCount is the absolute minimum support count; itemsets contained
	// in fewer transactions are not reported. Must be >= 1.
	MinCount int
	// MaxLen caps the itemset length (the paper uses 5). Zero means
	// unlimited.
	MaxLen int
	// Workers is ignored: Mine runs serially on the caller's goroutine.
	// The field stays only because perfbench still sets it.
	Workers int
}

// nilIdx marks an absent arena link.
const nilIdx = int32(-1)

// node is one FP-tree node. All links are indices into the owning tree's
// arena, so a whole tree is a handful of contiguous allocations regardless
// of shape.
type node struct {
	rank    int32 // dense item rank (see tree.items)
	count   int32
	parent  int32
	child   int32 // first child
	sibling int32 // next sibling in the parent's child list
	next    int32 // next node of the same rank (header chain)
}

// tree is an FP-tree over dense item ranks. nodes[0] is the root; heads,
// tails, counts and items are indexed by rank. The trailing scratch fields
// belong to conditional projection and are reused every time the tree is
// recycled through a miner's pool.
type tree struct {
	nodes  []node
	heads  []int32
	tails  []int32
	counts []int32
	items  []itemset.Item // rank -> catalog item id
	minCnt int32

	// Projection scratch: the conditional pattern bases of the item being
	// projected, expressed in the parent tree's rank space and stored back
	// to back in baseBuf (baseOff/baseCnt delimit and weight them).
	baseBuf  []int32
	baseOff  []int32
	baseCnt  []int32
	condCnt  []int32 // per parent-rank conditional count
	rankOf   []int32 // parent rank -> own rank (nilIdx = infrequent)
	orderBuf []int32
	txnBuf   []int32
	pathBuf  []int32
}

// reset prepares the tree for nRanks frequent items, keeping every backing
// array that is already large enough.
func (t *tree) reset(nRanks int, minCnt int32) {
	t.nodes = append(t.nodes[:0], node{rank: nilIdx, parent: nilIdx, child: nilIdx, sibling: nilIdx, next: nilIdx})
	t.heads = resizeFill(t.heads, nRanks, nilIdx)
	t.tails = resizeFill(t.tails, nRanks, nilIdx)
	t.counts = resizeFill(t.counts, nRanks, 0)
	if cap(t.items) < nRanks {
		t.items = make([]itemset.Item, nRanks)
	}
	t.items = t.items[:nRanks]
	t.minCnt = minCnt
}

func resizeFill(s []int32, n int, fill int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}

// insert adds one transaction, given as ascending ranks, with multiplicity
// count, and reports how many count-zero nodes on its path it revived (only
// an Incremental tree ever holds such dead nodes). Children are found by a
// linear sibling scan: fan-out is bounded by the item vocabulary and the
// list nodes are contiguous in the arena, so the scan stays in cache.
func (t *tree) insert(ranks []int32, count int32) (revived int) {
	cur := int32(0)
	for _, r := range ranks {
		prev := nilIdx
		c := t.nodes[cur].child
		for c != nilIdx && t.nodes[c].rank != r {
			prev = c
			c = t.nodes[c].sibling
		}
		if c == nilIdx {
			c = int32(len(t.nodes))
			t.nodes = append(t.nodes, node{rank: r, parent: cur, child: nilIdx, sibling: nilIdx, next: nilIdx})
			if prev == nilIdx {
				t.nodes[cur].child = c
			} else {
				t.nodes[prev].sibling = c
			}
			if t.heads[r] == nilIdx {
				t.heads[r] = c
			} else {
				t.nodes[t.tails[r]].next = c
			}
			t.tails[r] = c
		} else if t.nodes[c].count == 0 {
			revived++
		}
		t.nodes[c].count += count
		cur = c
	}
	return revived
}

// singlePath returns the node indices of the tree's unique root→leaf chain
// when no node has a sibling, or false otherwise. Single-path trees are
// mined by enumerating path subsets directly.
func (t *tree) singlePath() ([]int32, bool) {
	t.pathBuf = t.pathBuf[:0]
	for cur := t.nodes[0].child; cur != nilIdx; cur = t.nodes[cur].child {
		if t.nodes[cur].sibling != nilIdx {
			return nil, false
		}
		t.pathBuf = append(t.pathBuf, cur)
	}
	return t.pathBuf, true
}

// buildInitial constructs the FP-tree over the full database: count items,
// assign dense ranks by descending support (ties by item id), encode every
// transaction as an ascending rank sequence into one flat buffer, then
// deduplicate identical encodings and insert each distinct one once with
// its multiplicity.
func buildInitial(db *transaction.DB, minCount int) *tree {
	counts := db.ItemCounts()
	order := make([]int32, 0, len(counts))
	encLen := 0
	for id, c := range counts {
		if c >= minCount {
			order = append(order, int32(id))
			encLen += c
		}
	}
	sort.Slice(order, func(i, j int) bool {
		ci, cj := counts[order[i]], counts[order[j]]
		if ci != cj {
			return ci > cj
		}
		return order[i] < order[j]
	})
	t := &tree{}
	t.reset(len(order), int32(minCount))
	rankOf := resizeFill(nil, len(counts), nilIdx)
	for r, id := range order {
		rankOf[id] = int32(r)
		t.items[r] = itemset.Item(id)
		t.counts[r] = int32(counts[id])
	}

	// Encode: transactions are canonical sets (ascending item id), so the
	// rank projection needs a re-sort — an in-place insertion sort, since
	// discretized transactions are short.
	n := db.Len()
	enc := make([]int32, 0, encLen)
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		start := len(enc)
		for _, it := range db.Txn(i) {
			if r := rankOf[it]; r != nilIdx {
				enc = append(enc, r)
			}
		}
		rankSort(enc[start:])
		off[i+1] = int32(len(enc))
	}

	// Dedup: order transactions lexicographically by encoding and merge
	// runs of identical ones into a single weighted insert.
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := idx[a], idx[b]
		return lexLess(enc[off[ta]:off[ta+1]], enc[off[tb]:off[tb+1]])
	})
	for i := 0; i < n; {
		ti := idx[i]
		cur := enc[off[ti]:off[ti+1]]
		j := i + 1
		for j < n {
			tj := idx[j]
			if !equalRanks(cur, enc[off[tj]:off[tj+1]]) {
				break
			}
			j++
		}
		if len(cur) > 0 {
			t.insert(cur, int32(j-i))
		}
		i = j
	}
	return t
}

// rankSort sorts a short rank slice ascending in place.
func rankSort(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func lexLess(a, b []int32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func equalRanks(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// miner is the state of one mine: a free list of trees so conditional
// projections at every recursion depth recycle arenas instead of
// allocating, plus the emit sink. The initial tree is only ever read.
type miner struct {
	free []*tree
	emit func(itemset.Frequent)
}

func (m *miner) get() *tree {
	if n := len(m.free); n > 0 {
		t := m.free[n-1]
		m.free = m.free[:n-1]
		return t
	}
	return &tree{}
}

func (m *miner) put(t *tree) { m.free = append(m.free, t) }

// conditional builds the conditional FP-tree of rank r in src — the tree
// over all prefix paths of r's occurrences, re-ranked by conditional
// frequency (ties by the parent rank, i.e. global frequency order) — into
// a pooled tree. Returns nil when no item stays frequent. All scratch
// lives in the destination, so src is never written.
func (m *miner) conditional(src *tree, r int32) *tree {
	dst := m.get()
	dst.condCnt = resizeFill(dst.condCnt, len(src.counts), 0)
	dst.baseBuf = dst.baseBuf[:0]
	dst.baseCnt = dst.baseCnt[:0]
	dst.baseOff = append(dst.baseOff[:0], 0)
	for ni := src.heads[r]; ni != nilIdx; ni = src.nodes[ni].next {
		cnt := src.nodes[ni].count
		if cnt == 0 {
			// Dead node in an incrementally maintained tree: every
			// transaction through it has been evicted, so it contributes
			// nothing to any conditional base. (Trees built by weighted
			// inserts alone never hold zero counts.)
			continue
		}
		start := len(dst.baseBuf)
		for p := src.nodes[ni].parent; p > 0; p = src.nodes[p].parent {
			pr := src.nodes[p].rank
			dst.baseBuf = append(dst.baseBuf, pr)
			dst.condCnt[pr] += cnt
		}
		if len(dst.baseBuf) == start {
			continue
		}
		dst.baseOff = append(dst.baseOff, int32(len(dst.baseBuf)))
		dst.baseCnt = append(dst.baseCnt, cnt)
	}
	dst.orderBuf = dst.orderBuf[:0]
	for pr, c := range dst.condCnt {
		if c >= src.minCnt {
			dst.orderBuf = append(dst.orderBuf, int32(pr))
		}
	}
	if len(dst.orderBuf) == 0 {
		m.put(dst)
		return nil
	}
	sort.Slice(dst.orderBuf, func(i, j int) bool {
		ci, cj := dst.condCnt[dst.orderBuf[i]], dst.condCnt[dst.orderBuf[j]]
		if ci != cj {
			return ci > cj
		}
		return dst.orderBuf[i] < dst.orderBuf[j]
	})
	dst.reset(len(dst.orderBuf), src.minCnt)
	dst.rankOf = resizeFill(dst.rankOf, len(src.counts), nilIdx)
	for nr, pr := range dst.orderBuf {
		dst.rankOf[pr] = int32(nr)
		dst.items[nr] = src.items[pr]
		dst.counts[nr] = dst.condCnt[pr]
	}
	for b := 0; b < len(dst.baseCnt); b++ {
		dst.txnBuf = dst.txnBuf[:0]
		for _, pr := range dst.baseBuf[dst.baseOff[b]:dst.baseOff[b+1]] {
			if nr := dst.rankOf[pr]; nr != nilIdx {
				dst.txnBuf = append(dst.txnBuf, nr)
			}
		}
		if len(dst.txnBuf) == 0 {
			continue
		}
		rankSort(dst.txnBuf)
		dst.insert(dst.txnBuf, dst.baseCnt[b])
	}
	return dst
}

// mine recursively emits all frequent itemsets extending prefix within t.
// Header items are visited in ascending support — descending rank — order,
// the classic bottom-up FP-Growth traversal.
func (m *miner) mine(t *tree, prefix itemset.Set, maxLen int) {
	if maxLen > 0 && len(prefix) >= maxLen {
		return
	}
	if path, ok := t.singlePath(); ok {
		m.emitPathSubsets(t, prefix, path, maxLen)
		return
	}
	for r := int32(len(t.counts)) - 1; r >= 0; r-- {
		ext := prefix.With(t.items[r])
		m.emit(itemset.Frequent{Items: ext, Count: int(t.counts[r])})
		if maxLen > 0 && len(ext) >= maxLen {
			continue
		}
		if cond := m.conditional(t, r); cond != nil {
			m.mine(cond, ext, maxLen)
			m.put(cond)
		}
	}
}

// emitPathSubsets enumerates all non-empty subsets of a single-path tree,
// each supported by the count of its deepest node.
func (m *miner) emitPathSubsets(t *tree, prefix itemset.Set, path []int32, maxLen int) {
	limit := len(path)
	if maxLen > 0 && maxLen-len(prefix) < limit {
		limit = maxLen - len(prefix)
	}
	base := prefix.Clone()
	var rec func(start int, cur itemset.Set, minCount int32)
	rec = func(start int, cur itemset.Set, minCount int32) {
		if len(cur)-len(base) >= limit {
			return
		}
		for i := start; i < len(path); i++ {
			n := &t.nodes[path[i]]
			c := minCount
			if n.count < c || c == 0 {
				c = n.count
			}
			ext := cur.With(t.items[n.rank])
			m.emit(itemset.Frequent{Items: ext, Count: int(c)})
			rec(i+1, ext, c)
		}
	}
	rec(0, base, 0)
}

// Mine returns every itemset with support count >= opts.MinCount and length
// <= opts.MaxLen, with exact counts. Results are in canonical order.
func Mine(db *transaction.DB, opts Options) []itemset.Frequent {
	if opts.MinCount < 1 {
		opts.MinCount = 1
	}
	t := buildInitial(db, opts.MinCount)
	top := make([]int32, len(t.counts))
	for i := range top {
		top[i] = int32(i)
	}
	return mineTop(t, top, opts)
}

// mineTop mines the given top-level header ranks of t — every rank in top
// must be frequent (count >= t.minCnt) and t.minCnt must match
// opts.MinCount. Mine passes every rank of a freshly built tree;
// FrozenTree.Mine passes only the currently frequent ranks of a maintained
// tree, which it only ever reads. Ranks are mined bottom-up, each emitting
// its singleton and recursing into its conditional tree.
func mineTop(t *tree, top []int32, opts Options) []itemset.Frequent {
	var results []itemset.Frequent
	m := &miner{emit: func(f itemset.Frequent) { results = append(results, f) }}
	for i := len(top) - 1; i >= 0; i-- {
		r := top[i]
		ext := itemset.NewSet(t.items[r])
		m.emit(itemset.Frequent{Items: ext, Count: int(t.counts[r])})
		if opts.MaxLen == 1 {
			continue
		}
		if cond := m.conditional(t, r); cond != nil {
			m.mine(cond, ext, opts.MaxLen)
			m.put(cond)
		}
	}
	itemset.SortFrequent(results)
	return results
}
