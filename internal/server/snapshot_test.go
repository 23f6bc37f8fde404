package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/pruning"
	"repro/internal/rules"
	"repro/internal/stream"
)

// newRuleIndexSerial is newRuleIndex as it was before its passes ran side
// by side: the postings, then the support order, then the confidence
// order, on the caller's goroutine.
func newRuleIndexSerial(view *stream.View) *RuleIndex {
	items := 0
	if view.Catalog != nil {
		items = view.Catalog.Len()
	}
	ix := &RuleIndex{
		view:         view,
		postings:     stream.IndexRules(view.Rules, items),
		bySupport:    sortedOrder(view.Rules, bySupport),
		byConfidence: sortedOrder(view.Rules, byConfidence),
		analyses:     make(map[analysisKey]*keywordAnalysis),
		prune:        pruning.Prune,
	}
	ix.resolver.init(view.Catalog)
	return ix
}

// newSnapshotSerial is NewSnapshot as it was before the diff ran beside the
// index build, kept as the oracle of the concurrent one: the index, then
// the diff, one after the other.
func newSnapshotSerial(prev *Snapshot, first int64, view *stream.View, clock faultinject.Clock, start time.Time, stale bool) *Snapshot {
	snap := Snapshot{
		Seq:   first,
		View:  view,
		Index: newRuleIndexSerial(view),
		Stale: stale,
	}
	var prevRules []rules.Rule
	if prev != nil {
		snap.Seq = prev.Seq + 1
		snap.PrevSeq = prev.Seq
		prevRules = prev.View.Rules
	}
	snap.Delta = stream.Diff(prevRules, view.Rules)
	snap.MinedAt = clock.Now()
	snap.MineDuration = snap.MinedAt.Sub(start)
	return &snap
}

// checkSnapshot fails t unless NewSnapshot and the serial oracle build the
// same snapshot after prev: every field, and every index field but the
// caches (the analysis and resolution caches, their locks and counters,
// and the pruning step, a func that DeepEqual never equates).
func checkSnapshot(t *testing.T, name string, prev *Snapshot, view *stream.View) *Snapshot {
	t.Helper()
	clock := faultinject.NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	start := clock.Now().Add(-time.Second)
	got := NewSnapshot(prev, 7, view, clock, start, prev == nil)
	want := newSnapshotSerial(prev, 7, view, clock, start, prev == nil)
	if got.Seq != want.Seq || got.PrevSeq != want.PrevSeq || got.View != want.View || got.Stale != want.Stale ||
		!got.MinedAt.Equal(want.MinedAt) || got.MineDuration != want.MineDuration {
		t.Fatalf("%s: seq %d/%d prev %d/%d stale %v/%v mined %v/%v (got/want)", name,
			got.Seq, want.Seq, got.PrevSeq, want.PrevSeq, got.Stale, want.Stale, got.MineDuration, want.MineDuration)
	}
	if !reflect.DeepEqual(got.Delta, want.Delta) {
		t.Fatalf("%s: delta differs from the serial build:\n got %+v\nwant %+v", name, got.Delta, want.Delta)
	}
	gi, wi := got.Index, want.Index
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"view", gi.view, wi.view},
		{"postings", gi.postings, wi.postings},
		{"bySupport", gi.bySupport, wi.bySupport},
		{"byConfidence", gi.byConfidence, wi.byConfidence},
		{"resolver.catalog", gi.resolver.catalog, wi.resolver.catalog},
		{"resolver.blob", gi.resolver.blob, wi.resolver.blob},
		{"resolver.starts", gi.resolver.starts, wi.resolver.starts},
		{"resolver.ends", gi.resolver.ends, wi.resolver.ends},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: index %s differs from the serial build:\n got %v\nwant %v", name, f.field, f.got, f.want)
		}
	}
	return got
}

// catalogOf interns n item names i0, i1, …
func catalogOf(n int) *itemset.Catalog {
	c := itemset.NewCatalog()
	for i := 0; i < n; i++ {
		c.Intern(fmt.Sprintf("i%d", i))
	}
	return c
}

// The concurrent NewSnapshot builds exactly the serial one: on the
// fixture's two publish points, a first publish, an empty view, and seeded
// random views (duplicates, shared sides, metric ties, catalogs shorter
// or longer than the item ids, or none).
func TestNewSnapshotMatchesSerialOracle(t *testing.T) {
	checkSnapshot(t, "empty first", nil, &stream.View{})
	empty := checkSnapshot(t, "empty with catalog", nil, &stream.View{Rules: []rules.Rule{}, Catalog: catalogOf(3)})
	checkSnapshot(t, "empty after empty", empty, &stream.View{})

	rng := rand.New(rand.NewSource(20261019))
	var prev *Snapshot
	for c := 0; c < 200; c++ {
		items := 1 + rng.Intn(12)
		view := &stream.View{Rules: benchfix.RandomRules(rng, rng.Intn(300), items)}
		if c%5 != 0 {
			view.Catalog = catalogOf(rng.Intn(items + 3))
		}
		if c%4 == 0 {
			prev = nil // a first publish
		}
		prev = checkSnapshot(t, fmt.Sprintf("random case %d", c), prev, view)
	}

	if testing.Short() {
		return
	}
	first, second, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	prev = checkSnapshot(t, "fixture first publish", nil, first)
	checkSnapshot(t, "fixture second publish", prev, second)
}

// A panic in one stage reaches NewSnapshot's caller with the value the
// serial build raises, and only once every stage has returned.
func TestNewSnapshotStagePanicReachesCaller(t *testing.T) {
	catch := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	// A negative item id panics the postings pass, which runs on a
	// goroutine of its own; the diff and the orders never index by item.
	view := &stream.View{Rules: []rules.Rule{
		{Antecedent: itemset.Set{0}, Consequent: itemset.Set{1}, Lift: 2},
		{Antecedent: itemset.Set{-1}, Consequent: itemset.Set{1}, Lift: 1},
	}, Catalog: catalogOf(2)}
	clock := faultinject.NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	got := catch(func() { NewSnapshot(nil, 1, view, clock, clock.Now(), false) })
	want := catch(func() { newSnapshotSerial(nil, 1, view, clock, clock.Now(), false) })
	if want == nil || !strings.Contains(fmt.Sprint(want), "index out of range") {
		t.Fatalf("the serial build raised %v, want an index out of range", want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("NewSnapshot raised %v, the serial build %v", got, want)
	}

	// Each stage position in turn, then two at once: the first stage in
	// argument order wins, as it would have in a serial run, and the panic
	// waits for the slow stage to finish.
	for _, panicking := range [][]int{{0}, {1}, {2}, {1, 2}} {
		var finished atomic.Int32
		stages := make([]func(), 3)
		for i := range stages {
			stages[i] = func() {
				for _, p := range panicking {
					if p == i {
						panic(fmt.Sprintf("stage %d", i))
					}
				}
				time.Sleep(10 * time.Millisecond)
				finished.Add(1)
			}
		}
		p := catch(func() { parallel(stages...) })
		if want := fmt.Sprintf("stage %d", panicking[0]); p != want {
			t.Errorf("stages %v panicking: caller recovered %v, want %q", panicking, p, want)
		}
		if n := finished.Load(); int(n) != len(stages)-len(panicking) {
			t.Errorf("stages %v panicking: the panic reached the caller with %d stages finished, want %d",
				panicking, n, len(stages)-len(panicking))
		}
	}
}

// The fixture's second publish as the mining loop pays it: the index build
// and the diff against the first publish. The Serial twin builds them one
// after the other on one goroutine.
func BenchmarkNewSnapshot(b *testing.B)       { benchPublish(b, NewSnapshot) }
func BenchmarkNewSnapshotSerial(b *testing.B) { benchPublish(b, newSnapshotSerial) }

// snapSink keeps the benchmarked snapshot alive.
var snapSink *Snapshot

func benchPublish(b *testing.B, build func(*Snapshot, int64, *stream.View, faultinject.Clock, time.Time, bool) *Snapshot) {
	first, second, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	clock := faultinject.NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	prev := newSnapshotSerial(nil, 1, first, clock, clock.Now(), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = build(prev, 1, second, clock, clock.Now(), false)
	}
}
