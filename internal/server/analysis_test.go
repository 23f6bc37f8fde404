package server

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/itemset"
	"repro/internal/pruning"
	"repro/internal/rules"
)

// fixtureIndex builds a fresh index of the fixture's second publish whose
// keyword analyses prune through pruning.Prune, counting the calls and
// running before ahead of each, and returns it with the status=failed item.
func fixtureIndex(t *testing.T, before func(call int32)) (*RuleIndex, itemset.Item, *atomic.Int32) {
	t.Helper()
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	item, ok := cur.Catalog.Lookup("status=failed")
	if !ok {
		t.Fatal("fixture has no status=failed item")
	}
	var calls atomic.Int32
	ix := newRuleIndex(cur, func(rs []rules.Rule, item itemset.Item, opts pruning.Options) ([]rules.Rule, pruning.Stats) {
		before(calls.Add(1))
		return pruning.Prune(rs, item, opts)
	})
	return ix, item, &calls
}

// Concurrent misses of one key on a fresh index run one prune: the first
// computes, and its pruning step holds until every other request has
// found the pending entry, so the test fails if any of them prunes too.
func TestAnalysisMissSingleFlight(t *testing.T) {
	const n = 8
	var ix *RuleIndex
	ix, item, calls := fixtureIndex(t, func(int32) {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if hits, _ := ix.CacheStats(); hits == n-1 {
				return
			}
		}
	})
	got := make([]*keywordAnalysis, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = ix.Analysis(item, 1.5, 1.5)
		}(i)
	}
	close(start)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("%d concurrent misses ran %d prunes, want 1", n, c)
	}
	for i, a := range got {
		if a != got[0] || !a.done {
			t.Fatalf("request %d got analysis %p (done %v), request 0 got %p", i, a, a.done, got[0])
		}
	}
	if len(got[0].relevant) == 0 {
		t.Fatal("fixture analysis has no relevant rules")
	}
	if hits, misses := ix.CacheStats(); hits != n-1 || misses != 1 {
		t.Fatalf("cache stats = %d hits, %d misses; want %d, 1", hits, misses, n-1)
	}
}

// A prune that panics withdraws its pending entry: the panic reaches the
// computing request, and the next request computes the analysis afresh.
func TestAnalysisPanicWithdrawsEntry(t *testing.T) {
	ix, item, calls := fixtureIndex(t, func(call int32) {
		if call == 1 {
			panic("prune failed")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first analysis did not panic")
			}
		}()
		ix.Analysis(item, 1.5, 1.5)
	}()
	a := ix.Analysis(item, 1.5, 1.5)
	if !a.done || calls.Load() != 2 {
		t.Fatalf("after a panicked prune: done %v, %d prunes; want a completed analysis after 2", a.done, calls.Load())
	}
	if b := ix.Analysis(item, 1.5, 1.5); b != a || calls.Load() != 2 {
		t.Fatalf("the recomputed analysis was not cached (%d prunes)", calls.Load())
	}
}

// The prune=false split is computed on first use, once: concurrent
// requests for it all get the one computed list, equal to Split(relevant).
func TestAnalysisRelevantSplitOnce(t *testing.T) {
	ix, item, _ := fixtureIndex(t, func(int32) {})
	a := ix.Analysis(item, 1.5, 1.5)
	const n = 8
	got := make([]rules.Analysis, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = a.relevantSplit()
		}(i)
	}
	wg.Wait()
	want := rules.Split(a.relevant, item)
	if !reflect.DeepEqual(got[0], want) || len(want.Cause) == 0 {
		t.Fatalf("relevant split has %d causes and %d characteristics, Split gives %d and %d",
			len(got[0].Cause), len(got[0].Characteristic), len(want.Cause), len(want.Characteristic))
	}
	for i, s := range got {
		// One computation means one backing array, shared by every caller.
		if &s.Cause[0] != &got[0].Cause[0] {
			t.Fatalf("request %d got a split computed apart from request 0's", i)
		}
	}
}
