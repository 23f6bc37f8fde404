package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/stream"
)

// indexRulesOracle is the append-grown stream.IndexRules the counted, flat
// build replaced, kept verbatim as its oracle.
func indexRulesOracle(rs []rules.Rule, items int) stream.Postings {
	p := make(stream.Postings, items)
	add := func(it itemset.Item, idx int32) {
		if int(it) >= len(p) {
			grown := make(stream.Postings, int(it)+1)
			copy(grown, p)
			p = grown
		}
		p[it] = append(p[it], idx)
	}
	for i, r := range rs {
		for _, it := range r.Antecedent {
			add(it, int32(i))
		}
		for _, it := range r.Consequent {
			add(it, int32(i))
		}
	}
	return p
}

// sortedOrderOracle is the sort.SliceStable sortedOrder the radix sort
// replaced, kept verbatim as its oracle.
func sortedOrderOracle(rs []rules.Rule, key func(r *rules.Rule) float64) []int32 {
	order := make([]int32, len(rs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return key(&rs[order[i]]) > key(&rs[order[j]]) })
	return order
}

func bySupport(r *rules.Rule) float64    { return r.Support }
func byConfidence(r *rules.Rule) float64 { return r.Confidence }

// newRuleIndexOracle builds a RuleIndex the way NewRuleIndex did before the
// flat postings and radix orders.
func newRuleIndexOracle(view *stream.View) *RuleIndex {
	ix := &RuleIndex{
		view:         view,
		postings:     indexRulesOracle(view.Rules, view.Catalog.Len()),
		analyses:     make(map[analysisKey]*keywordAnalysis),
		bySupport:    sortedOrderOracle(view.Rules, bySupport),
		byConfidence: sortedOrderOracle(view.Rules, byConfidence),
	}
	ix.resolver.init(view.Catalog)
	return ix
}

// checkIndexParts fails t unless the postings and both orders match the
// oracles exactly.
func checkIndexParts(t *testing.T, rs []rules.Rule, items int) {
	t.Helper()
	if got, want := stream.IndexRules(rs, items), indexRulesOracle(rs, items); !reflect.DeepEqual(got, want) {
		t.Fatalf("IndexRules(items=%d) differs from oracle on %v:\n got %v\nwant %v", items, rs, got, want)
	}
	for name, key := range map[string]func(*rules.Rule) float64{"support": bySupport, "confidence": byConfidence} {
		if got, want := sortedOrder(rs, key), sortedOrderOracle(rs, key); !reflect.DeepEqual(got, want) {
			t.Fatalf("sortedOrder by %s differs from oracle on %v:\n got %v\nwant %v", name, rs, got, want)
		}
	}
}

// Seeded property test over adversarial rule lists: duplicates, rules
// sharing a side, permutations, heavy metric ties (both zeros among them)
// and item ids past the declared catalog length.
func TestPublishIndexMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260117))
	checkIndexParts(t, nil, 0)
	checkIndexParts(t, []rules.Rule{}, 3)
	for c := 0; c < 400; c++ {
		items := 1 + rng.Intn(12)
		rs := benchfix.RandomRules(rng, rng.Intn(300), items)
		if c%4 == 0 {
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		}
		// Declare a catalog shorter than, equal to or longer than the ids.
		checkIndexParts(t, rs, rng.Intn(items+3))
	}
}

// On the real publish fixture (~145k rules each): postings and both orders
// of NewRuleIndex equal the oracle build.
func TestNewRuleIndexMatchesOracleOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the 5000-job fixture window twice")
	}
	prev, cur, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []*stream.View{prev, cur} {
		got, want := NewRuleIndex(view), newRuleIndexOracle(view)
		if !reflect.DeepEqual(got.postings, want.postings) {
			t.Error("postings differ from oracle")
		}
		if !reflect.DeepEqual(got.bySupport, want.bySupport) || !reflect.DeepEqual(got.byConfidence, want.byConfidence) {
			t.Error("sort orders differ from oracle")
		}
	}
}

// A huge limit used to pre-size the output slice, so limit=1<<40 (or
// 100000000 on a small machine) died with "fatal error: runtime: out of
// memory", which net/http cannot recover. Every front renders through
// WriteRules, so this covers the single server, tenant views and the
// merged view alike.
func TestRulesHugeLimit(t *testing.T) {
	snap := minedSnapshot(t, 2000, 2000, 5)
	n := len(snap.View.Rules)
	if n < 10 {
		t.Fatalf("fixture mined only %d rules", n)
	}
	get := func(url string) []byte {
		t.Helper()
		rec := record(func(w http.ResponseWriter, r *http.Request) {
			WriteRules(w, r, snap, RulesParams{Shard: -1})
		}, url, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", url, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	const huge = 1 << 40
	for _, c := range []struct {
		query  string
		offset int
	}{
		{"", 0},
		{"", n - 3},
		{"&sort=support", n - 1},
		{"&keyword=failed", 0},
		{"&keyword=failed&prune=false&sort=confidence", 1},
	} {
		// The sane limit n covers every rule, so both must render alike.
		body := get(fmt.Sprintf("/v1/rules?limit=%d&offset=%d%s", huge, c.offset, c.query))
		want := get(fmt.Sprintf("/v1/rules?limit=%d&offset=%d%s", n, c.offset, c.query))
		if string(body) != string(want) {
			t.Errorf("limit=%d offset=%d%s: body differs from limit=%d", huge, c.offset, c.query, n)
		}
		if c.query == "" {
			var resp struct{ Rules []json.RawMessage }
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Rules) != n-c.offset {
				t.Errorf("offset=%d: %d rules, want %d", c.offset, len(resp.Rules), n-c.offset)
			}
		}
	}
}

// steppingClock advances by step on every Now, so each reading marks a
// distinct instant, and records the process's cumulative heap allocation
// count at each reading: what ran between two readings shows up as the
// allocations between them.
type steppingClock struct {
	mu      sync.Mutex
	now     time.Time
	step    time.Duration
	mallocs []uint64
}

func (c *steppingClock) Now() time.Time {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mallocs = append(c.mallocs, ms.Mallocs)
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *steppingClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.Now().Add(d)
	return ch
}

// MineDuration runs from the window capture to the built snapshot. The
// clock advances inside NewSnapshot, and the reading that ends the
// duration comes after the diff and the index build: their allocations
// lie between it and the capture reading. Before, the caller
// stopped the timer before calling NewSnapshot.
func TestNewSnapshotDurationCoversBuild(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	clock := &steppingClock{now: epoch, step: time.Minute}
	view := minedSnapshot(t, 1000, 1000, 3).View
	build := testing.AllocsPerRun(1, func() {
		NewRuleIndex(view)
		stream.Diff(nil, view.Rules)
	})
	start := clock.Now()
	first := NewSnapshot(nil, 1, view, clock, start, false)
	if len(clock.mallocs) != 2 {
		t.Fatalf("NewSnapshot read the clock %d times, want once", len(clock.mallocs)-1)
	}
	// Half the build's count leaves room for its run-to-run wobble (map
	// growth); a reading taken before the build would see about one.
	if between := clock.mallocs[1] - clock.mallocs[0]; float64(between) < build/2 {
		t.Errorf("%d allocations between capture and the end reading, want most of the build's %.0f", between, build)
	}
	if want := start.Add(time.Minute); !first.MinedAt.Equal(want) {
		t.Errorf("MinedAt = %v, want the reading after the build %v", first.MinedAt, want)
	}
	if first.MineDuration != time.Minute {
		t.Errorf("MineDuration = %v, want %v", first.MineDuration, time.Minute)
	}

	// The work before NewSnapshot (the mine) counts too: two readings
	// between the capture and the call add two steps.
	start = clock.Now()
	clock.Now()
	clock.Now()
	second := NewSnapshot(first, 1, view, clock, start, false)
	if second.MineDuration != 3*time.Minute || second.Seq != 2 || second.PrevSeq != 1 {
		t.Errorf("second snapshot: seq=%d prev=%d MineDuration=%v, want 2, 1, %v",
			second.Seq, second.PrevSeq, second.MineDuration, 3*time.Minute)
	}
}

// The publish-step index build on the shared fixture, alternating between
// its two publish points. The Oracle twin runs the append-grown postings
// and SliceStable orders in the same process.
func BenchmarkNewRuleIndex(b *testing.B)       { benchIndex(b, NewRuleIndex) }
func BenchmarkNewRuleIndexOracle(b *testing.B) { benchIndex(b, newRuleIndexOracle) }

func benchIndex(b *testing.B, build func(*stream.View) *RuleIndex) {
	prev, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	views := []*stream.View{prev, cur}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = build(views[i%2])
	}
}

// A cold keyword analysis on the shared fixture's second publish: every
// iteration builds a fresh index outside the timer and times its first
// Analysis call, the relevant-rule copy, the pruning and the pruned split,
// as a prune=true request pays it after each publish. The keywords are the
// ones perfbench's query-mix sends. The oracle twin, which prunes with the
// bucket scan Prune replaced, is BenchmarkKeywordAnalysisMissOracle in
// internal/pruning.
func BenchmarkKeywordAnalysisMiss(b *testing.B) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	resolve := NewRuleIndex(cur)
	for _, kw := range []string{"failed", "gpu_type=T4", "user_tier=frequent"} {
		item, _, err := resolve.Resolve(kw)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kw, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix := NewRuleIndex(cur)
				b.StartTimer()
				analysisSink = ix.Analysis(item, 1.5, 1.5)
			}
		})
	}
}

// The benchmark sinks keep each measured result alive.
var (
	indexSink    *RuleIndex
	analysisSink *keywordAnalysis
	rulesSink    []rules.Rule
	orderSink    []int32
)

// keywordList is the 50 highest-lift fixture rules mentioning one item: the
// size and order of the keyword lists applyQuery re-sorts per request.
func keywordList(b *testing.B) []rules.Rule {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	item, ok := cur.Catalog.Lookup("status=failed")
	if !ok {
		b.Fatal("fixture has no status=failed item")
	}
	rs := NewRuleIndex(cur).Relevant(item)
	if len(rs) < 50 {
		b.Fatalf("only %d rules mention status=failed", len(rs))
	}
	return rs[:50]
}

// The per-request ?sort=support over a 50-rule keyword list. The Oracle
// twin pays the SliceStable sort applyQuery used to run, then the same
// filter-and-page walk.
func BenchmarkApplyQuerySort(b *testing.B) {
	rs := keywordList(b)
	q := ruleQuery{limit: 50, sortKey: "support"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rulesSink = applyQuery(rs, q)
	}
}

func BenchmarkApplyQuerySortOracle(b *testing.B) {
	rs := keywordList(b)
	q := ruleQuery{limit: 50, sortKey: "lift"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderSink = sortedOrderOracle(rs, bySupport)
		rulesSink = applyQuery(rs, q)
	}
}
