// The read-path query engine: a RuleIndex built once per published
// snapshot so /v1/rules answers in time proportional to the result, not the
// rule set. Before this, every request re-walked the snapshot — the keyword
// filter scanned all rules, substring keyword resolution scanned the whole
// catalog, and the pruning chain re-ran per request — which is exactly the
// per-query work Fast Dimensional Analysis moves to publish time. The index
// is immutable after construction except for its two bounded caches, which
// are internally locked and safe for concurrent readers.
package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/itemset"
	"repro/internal/pruning"
	"repro/internal/rules"
	"repro/internal/stream"
)

// analysisCacheCap bounds the per-snapshot cache of pruned keyword
// analyses. Operators study a handful of keywords per window; 64 distinct
// (item, CLift, CSupp) triples per snapshot is already generous.
const analysisCacheCap = 64

// resolveCacheCap bounds the keyword-resolution cache.
const resolveCacheCap = 256

// errAmbiguous is wrapped by Resolve when a keyword is a substring of more
// than one item name; handlers answer it 400 rather than 404.
var errAmbiguous = errors.New("ambiguous")

// RuleIndex is the precomputed read-path structure published alongside a
// Snapshot: an inverted item→rule posting list, pre-sorted metric orders
// for ?sort=, a catalog substring-resolution index, and a bounded cache of
// pruned keyword analyses so repeated ?keyword= queries cost O(result)
// instead of O(rules).
//
// armlint:immutable — no field writes outside this file (enforced by
// immutcheck; see internal/lint).
type RuleIndex struct {
	view     *stream.View
	postings stream.Postings
	// bySupport and byConfidence are rule orders sorted by the metric
	// descending, ties broken by the original (lift-descending) position so
	// any sort is deterministic. The lift order is the rule slice itself.
	bySupport    []int32
	byConfidence []int32

	resolver resolver

	// analyses caches pruned keyword analyses keyed on (item, CLift,
	// CSupp). Entries are immutable once stored; the map is bounded.
	analysesMu sync.RWMutex
	analyses   map[analysisKey]*keywordAnalysis
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
}

type analysisKey struct {
	item         itemset.Item
	cLift, cSupp float64
}

// keywordAnalysis is one cached ?keyword= computation: the keyword-relevant
// rules in snapshot order, their pruned survivors with stats, and both
// cause/characteristic splits, so the handler only slices and renders.
type keywordAnalysis struct {
	relevant []rules.Rule
	pruned   []rules.Rule
	stats    pruning.Stats
	// prunedSplit and relevantSplit are Split(pruned) and Split(relevant):
	// the prune=true and prune=false response bodies respectively.
	prunedSplit   rules.Analysis
	relevantSplit rules.Analysis
}

// NewRuleIndex builds the index for view. Cost is O(rules·len + items +
// n log n) — negligible next to the mine that produced the view — and it
// runs once per publish, never per request.
func NewRuleIndex(view *stream.View) *RuleIndex {
	items := 0
	if view.Catalog != nil {
		items = view.Catalog.Len()
	}
	ix := &RuleIndex{
		view:     view,
		postings: stream.IndexRules(view.Rules, items),
		analyses: make(map[analysisKey]*keywordAnalysis),
	}
	ix.bySupport = sortedOrder(view.Rules, func(r *rules.Rule) float64 { return r.Support })
	ix.byConfidence = sortedOrder(view.Rules, func(r *rules.Rule) float64 { return r.Confidence })
	ix.resolver.init(view.Catalog)
	return ix
}

// sortedOrder returns rule indices sorted descending by key, stable over
// the original order so ties keep their lift-descending rank. Sorting an
// index permutation (and reading the key through a pointer) avoids moving
// the fat Rule structs during the sort.
func sortedOrder(rs []rules.Rule, key func(r *rules.Rule) float64) []int32 {
	order := make([]int32, len(rs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return key(&rs[order[i]]) > key(&rs[order[j]]) })
	return order
}

// order returns the precomputed permutation for a sort key; nil means the
// natural (lift-descending) rule order.
func (ix *RuleIndex) order(sortKey string) []int32 {
	switch sortKey {
	case "support":
		return ix.bySupport
	case "confidence":
		return ix.byConfidence
	default:
		return nil
	}
}

// collect walks the requested order applying metric filters and
// pagination, materializing only the page it returns. With no filters the
// walk is O(offset+limit); filters skip non-matching rules without copying
// them.
func (ix *RuleIndex) collect(q ruleQuery) []rules.Rule {
	rs := ix.view.Rules
	order := ix.order(q.sortKey)
	out := make([]rules.Rule, 0, q.limit)
	skip := q.offset
	for i := 0; i < len(rs); i++ {
		r := &rs[i]
		if order != nil {
			r = &rs[order[i]]
		}
		if !q.matches(r) {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		out = append(out, *r)
		if len(out) == q.limit {
			break
		}
	}
	return out
}

// Relevant returns the rules containing item, in snapshot order — the
// posting-list replacement for the per-request Contains scan.
func (ix *RuleIndex) Relevant(item itemset.Item) []rules.Rule {
	post := ix.postings.For(item)
	if len(post) == 0 {
		return nil
	}
	out := make([]rules.Rule, len(post))
	for i, ri := range post {
		out[i] = ix.view.Rules[ri]
	}
	return out
}

// Analysis returns the cached keyword analysis for (item, cLift, cSupp),
// computing and caching it on first sight. The returned value is shared and
// immutable: callers must not mutate its slices.
func (ix *RuleIndex) Analysis(item itemset.Item, cLift, cSupp float64) *keywordAnalysis {
	key := analysisKey{item: item, cLift: cLift, cSupp: cSupp}
	ix.analysesMu.RLock()
	a := ix.analyses[key]
	ix.analysesMu.RUnlock()
	if a != nil {
		ix.cacheHits.Add(1)
		return a
	}
	ix.cacheMiss.Add(1)
	relevant := ix.Relevant(item)
	pruned, stats := pruning.Prune(relevant, item, pruning.Options{CLift: cLift, CSupp: cSupp})
	a = &keywordAnalysis{
		relevant:      relevant,
		pruned:        pruned,
		stats:         stats,
		prunedSplit:   rules.Split(pruned, item),
		relevantSplit: rules.Split(relevant, item),
	}
	ix.analysesMu.Lock()
	if cur := ix.analyses[key]; cur != nil {
		// A racing request computed it first; keep that copy so every
		// reader shares one value.
		a = cur
	} else {
		if len(ix.analyses) >= analysisCacheCap {
			for k := range ix.analyses {
				delete(ix.analyses, k)
				break
			}
		}
		ix.analyses[key] = a
	}
	ix.analysesMu.Unlock()
	return a
}

// CacheStats reports the analysis cache's lifetime hit/miss counters.
func (ix *RuleIndex) CacheStats() (hits, misses int64) {
	return ix.cacheHits.Load(), ix.cacheMiss.Load()
}

// Resolve maps a query keyword to a catalog item: exact item name first,
// then unique substring so operators can write ?keyword=failed for
// status=failed; ambiguity is an error listing the candidates. It searches
// the prebuilt blob index with per-keyword memoization; the randomized
// equivalence suite checks it against a linear catalog scan.
func (ix *RuleIndex) Resolve(keyword string) (itemset.Item, string, error) {
	return ix.resolver.resolve(keyword)
}

// resolver is the catalog substring-resolution index: every item name
// concatenated into one blob (with span offsets), so resolving a keyword is
// one substring search over a single string instead of a Contains call per
// catalog entry, plus a bounded memo of past resolutions.
type resolver struct {
	catalog *itemset.Catalog
	blob    string
	// starts[i] is the blob offset where name i begins; ends[i] where it
	// ends. A blob occurrence counts only when it lies entirely inside one
	// name's span, which makes the search exact even when a keyword
	// contains the separator.
	starts []int
	ends   []int

	mu    sync.RWMutex
	cache map[string]resolution
}

type resolution struct {
	item itemset.Item
	name string
	err  error
}

func (rv *resolver) init(c *itemset.Catalog) {
	rv.catalog = c
	rv.cache = make(map[string]resolution)
	if c == nil {
		return
	}
	n := c.Len()
	rv.starts = make([]int, n)
	rv.ends = make([]int, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		name := c.Name(itemset.Item(i))
		rv.starts[i] = b.Len()
		b.WriteString(name)
		rv.ends[i] = b.Len()
		b.WriteByte('\n')
	}
	rv.blob = b.String()
}

func (rv *resolver) resolve(keyword string) (itemset.Item, string, error) {
	rv.mu.RLock()
	res, ok := rv.cache[keyword]
	rv.mu.RUnlock()
	if !ok {
		res = rv.lookup(keyword)
		rv.mu.Lock()
		if len(rv.cache) >= resolveCacheCap {
			for k := range rv.cache {
				delete(rv.cache, k)
				break
			}
		}
		rv.cache[keyword] = res
		rv.mu.Unlock()
	}
	return res.item, res.name, res.err
}

func (rv *resolver) lookup(keyword string) resolution {
	if rv.catalog != nil {
		if id, ok := rv.catalog.Lookup(keyword); ok {
			return resolution{item: id, name: keyword}
		}
	}
	// One pass over the blob: every in-name occurrence of the keyword is an
	// in-blob occurrence, so scanning the blob and span-checking each hit
	// finds exactly the names a per-name Contains scan would.
	var matches []string
	var matchID itemset.Item
	lastName := -1
	for from := 0; ; {
		i := strings.Index(rv.blob[from:], keyword)
		if i < 0 {
			break
		}
		pos := from + i
		// The name covering pos: the last span starting at or before it.
		ni := sort.SearchInts(rv.starts, pos+1) - 1
		if ni > lastName && pos+len(keyword) <= rv.ends[ni] {
			matches = append(matches, rv.catalog.Name(itemset.Item(ni)))
			matchID = itemset.Item(ni)
			lastName = ni
		}
		from = pos + 1
	}
	switch len(matches) {
	case 0:
		return resolution{err: fmt.Errorf("keyword %q matches no item in the current snapshot", keyword)}
	case 1:
		return resolution{item: matchID, name: matches[0]}
	default:
		if len(matches) > 8 {
			matches = append(matches[:8], "…")
		}
		return resolution{err: fmt.Errorf("keyword %q is %w: %s", keyword, errAmbiguous, strings.Join(matches, ", "))}
	}
}
