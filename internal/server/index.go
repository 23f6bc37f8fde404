// The read-path query engine: a RuleIndex built once per published
// snapshot so /v1/rules answers in time proportional to the result, not the
// rule set. Before this, every request re-walked the snapshot — the keyword
// filter scanned all rules and the pruning chain re-ran per request — which
// is exactly the per-query work Fast Dimensional Analysis moves to publish
// time. Keyword resolution stays a walk of the catalog: it holds tens of
// names, and resolving against it costs less than indexing it per publish.
// The index is immutable after construction except for its bounded
// analysis cache, which is internally locked and safe for concurrent
// readers.
package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/itemset"
	"repro/internal/pruning"
	"repro/internal/radix"
	"repro/internal/rules"
	"repro/internal/stream"
)

// analysisCacheCap bounds the per-snapshot cache of pruned keyword
// analyses. Operators study a handful of keywords per window; 64 distinct
// (item, CLift, CSupp) triples per snapshot is already generous.
const analysisCacheCap = 64

// errAmbiguous is wrapped by Resolve when a keyword is a substring of more
// than one item name; handlers answer it 400 rather than 404.
var errAmbiguous = errors.New("ambiguous")

// RuleIndex is the precomputed read-path structure published alongside a
// Snapshot: an inverted item→rule posting list, pre-sorted metric orders
// for ?sort=, and a bounded cache of pruned keyword analyses so repeated
// ?keyword= queries cost O(result) instead of O(rules).
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

	// analyses caches pruned keyword analyses keyed on (item, CLift,
	// CSupp). An entry is pending until its ready channel closes and
	// immutable after; the map is bounded.
	analysesMu sync.RWMutex
	analyses   map[analysisKey]*keywordAnalysis
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
	prune      pruneFunc
}

// pruneFunc is the pruning step of a keyword analysis: pruning.Prune.
type pruneFunc func([]rules.Rule, itemset.Item, pruning.Options) ([]rules.Rule, pruning.Stats)

type analysisKey struct {
	item         itemset.Item
	cLift, cSupp float64
}

// keywordAnalysis is one cached ?keyword= computation: the keyword-relevant
// rules in snapshot order, their pruned survivors with stats, and both
// cause/characteristic splits, so the handler only slices and renders.
// The fields are written once, before ready is closed.
type keywordAnalysis struct {
	// ready is closed when the computation ends; done reports whether it
	// completed.
	ready chan struct{}
	done  bool

	relevant []rules.Rule
	pruned   []rules.Rule
	stats    pruning.Stats
	// prunedSplit is Split(pruned), the prune=true response body.
	prunedSplit rules.Analysis
	// relevantSplit returns Split(relevant), the prune=false body. Few
	// requests ask for it, so it is computed on first call, once: a
	// concurrent call waits for that computation instead of repeating it.
	relevantSplit func() rules.Analysis
}

// NewRuleIndex builds the index for view. Cost is O(rules·len + items)
// integer work — the orders are radix sorted — spread over three
// concurrent passes, and it runs once per publish, never per request.
func NewRuleIndex(view *stream.View) *RuleIndex {
	return newRuleIndex(view, pruning.Prune)
}

// newRuleIndex is NewRuleIndex with the keyword analyses' pruning step
// supplied, so tests can count or fail its calls.
func newRuleIndex(view *stream.View, prune pruneFunc) *RuleIndex {
	items := 0
	if view.Catalog != nil {
		items = view.Catalog.Len()
	}
	ix := &RuleIndex{
		view:     view,
		analyses: make(map[analysisKey]*keywordAnalysis),
		prune:    prune,
	}
	// The postings and the two orders are independent passes over the
	// rules, each writing its own field.
	parallel(
		func() { ix.postings = stream.IndexRules(view.Rules, items) },
		func() { ix.bySupport = sortedOrder(view.Rules, func(r *rules.Rule) float64 { return r.Support }) },
		func() { ix.byConfidence = sortedOrder(view.Rules, func(r *rules.Rule) float64 { return r.Confidence }) },
	)
	return ix
}

// sortedOrder returns rule indices sorted descending by key, stable over
// the original order so ties keep their lift-descending rank. Each key is
// mapped once to an order-preserving uint64 and the permutation is radix
// sorted, so no comparison reads a fat Rule struct. Keys must not be NaN:
// support and confidence are ratios of positive counts.
func sortedOrder(rs []rules.Rule, key func(r *rules.Rule) float64) []int32 {
	n := len(rs)
	// One allocation holds the keys and the radix sort's scratch copy.
	keys := make([]uint64, 2*n)
	order := make([]int32, n)
	for i := range rs {
		keys[i] = radix.DescKey(key(&rs[i]))
		order[i] = int32(i)
	}
	_, order = radix.Sort(keys[:n], keys[n:], order)
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

// collect pages the snapshot's rules through the query along the index's
// precomputed order for its sort key.
func (ix *RuleIndex) collect(q ruleQuery) []rules.Rule {
	return page(ix.view.Rules, ix.order(q.sortKey), q)
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
// computing and caching it on first sight. Concurrent misses of one key
// are single-flighted: the first stores a pending entry and computes it,
// and the others wait for that computation rather than pruning again, so
// they count as hits. The returned value is shared and immutable: callers
// must not mutate its slices.
func (ix *RuleIndex) Analysis(item itemset.Item, cLift, cSupp float64) *keywordAnalysis {
	key := analysisKey{item: item, cLift: cLift, cSupp: cSupp}
	ix.analysesMu.RLock()
	a := ix.analyses[key]
	ix.analysesMu.RUnlock()
	if a == nil {
		ix.analysesMu.Lock()
		if a = ix.analyses[key]; a == nil {
			if len(ix.analyses) >= analysisCacheCap {
				for k := range ix.analyses {
					delete(ix.analyses, k)
					break
				}
			}
			a = &keywordAnalysis{ready: make(chan struct{})}
			ix.analyses[key] = a
			ix.analysesMu.Unlock()
			ix.cacheMiss.Add(1)
			ix.compute(a, key)
			return a
		}
		ix.analysesMu.Unlock()
	}
	ix.cacheHits.Add(1)
	<-a.ready
	if !a.done {
		// The computation panicked and withdrew its entry: compute afresh,
		// as a request that found no entry would.
		return ix.Analysis(item, cLift, cSupp)
	}
	return a
}

// compute fills a pending analysis and releases its waiters. If pruning
// panics, the entry is withdrawn before the waiters are released, so the
// next request retries instead of reading a half-built analysis.
func (ix *RuleIndex) compute(a *keywordAnalysis, key analysisKey) {
	defer func() {
		if !a.done {
			ix.analysesMu.Lock()
			if ix.analyses[key] == a {
				delete(ix.analyses, key)
			}
			ix.analysesMu.Unlock()
		}
		close(a.ready)
	}()
	a.relevant = ix.Relevant(key.item)
	a.pruned, a.stats = ix.prune(a.relevant, key.item, pruning.Options{CLift: key.cLift, CSupp: key.cSupp})
	a.prunedSplit = rules.Split(a.pruned, key.item)
	a.relevantSplit = sync.OnceValue(func() rules.Analysis { return rules.Split(a.relevant, key.item) })
	a.done = true
}

// CacheStats reports the analysis cache's lifetime hit/miss counters.
func (ix *RuleIndex) CacheStats() (hits, misses int64) {
	return ix.cacheHits.Load(), ix.cacheMiss.Load()
}

// Resolve maps a query keyword to a catalog item: exact item name first,
// then unique substring so operators can write ?keyword=failed for
// status=failed; ambiguity is an error listing the candidates. It walks
// the catalog, which holds tens of names, and collects them only to build
// the ambiguity error. TestResolveMatchesLinear and the randomized
// equivalence suite check it against a linear reference.
func (ix *RuleIndex) Resolve(keyword string) (itemset.Item, string, error) {
	c := ix.view.Catalog
	n := 0
	if c != nil {
		if id, ok := c.Lookup(keyword); ok {
			return id, keyword, nil
		}
		n = c.Len()
	}
	var match itemset.Item
	count := 0
	for id := itemset.Item(0); int(id) < n; id++ {
		if strings.Contains(c.Name(id), keyword) {
			match = id
			count++
		}
	}
	switch count {
	case 0:
		return 0, "", fmt.Errorf("keyword %q matches no item in the current snapshot", keyword)
	case 1:
		return match, c.Name(match), nil
	}
	// Eight names, then "…" when there are more.
	names := make([]string, 0, 9)
	for id := itemset.Item(0); int(id) < n && len(names) < 8; id++ {
		if name := c.Name(id); strings.Contains(name, keyword) {
			names = append(names, name)
		}
	}
	if count > 8 {
		names = append(names, "…")
	}
	return 0, "", fmt.Errorf("keyword %q is %w: %s", keyword, errAmbiguous, strings.Join(names, ", "))
}
