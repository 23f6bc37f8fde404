package pruning_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/itemset"
	"repro/internal/pruning"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/stream"
)

// checkPrune fails t unless Prune and the oracle keep the same rules in the
// same order, remove the same number, and, when every rule's sides are
// disjoint, credit the same conditions.
func checkPrune(t *testing.T, rs []rules.Rule, kw itemset.Item, opts pruning.Options) {
	t.Helper()
	got, gs := pruning.Prune(rs, kw, opts)
	want, ws := pruning.PruneOracle(rs, kw, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kept list differs from oracle (keyword %d, %+v) on %v:\n got %v\nwant %v", kw, opts, rs, got, want)
	}
	if gs.Input != ws.Input || gs.Kept != ws.Kept || gs.NoKeyword != ws.NoKeyword {
		t.Fatalf("stats %+v, oracle %+v", gs, ws)
	}
	if disjointSides(rs) && gs != ws {
		t.Fatalf("stats %+v, oracle %+v on disjoint-sided rules %v", gs, ws, rs)
	}
}

func disjointSides(rs []rules.Rule) bool {
	for _, r := range rs {
		if !r.Antecedent.Disjoint(r.Consequent) {
			return false
		}
	}
	return true
}

// Metric values closed under the slacks the tests use: 1.5·x and 2·x of a
// member is often another member, exactly, so CLift·a.Lift == b.Lift and
// CSupp·b.Support == a.Support ties come up on both sides of every
// comparison.
var (
	tieLifts    = []float64{0.75, 1, 1.125, 1.5, 2, 2.25, 3, 3.375, 4.5, 6}
	tieSupports = []float64{0.0625, 0.09375, 0.125, 0.1875, 0.25, 0.375, 0.5}
	slacks      = []pruning.Options{{}, {CLift: 1, CSupp: 1}, {CLift: 2, CSupp: 1.5}, {CLift: 1.5, CSupp: 2}, {CLift: 1.125, CSupp: 3}}
)

// randomSet draws a canonical set of up to maxLen items from [0, items).
func randomSet(rng *rand.Rand, items, maxLen int) itemset.Set {
	its := make([]itemset.Item, rng.Intn(maxLen+1))
	for i := range its {
		its[i] = itemset.Item(rng.Intn(items))
	}
	return itemset.NewSet(its...)
}

// chain returns k nested canonical sets s[0] ⊂ s[1] ⊂ … taken from a
// random ordering of the items in pool, the first holding first items.
func chain(rng *rand.Rand, pool []itemset.Item, first, k int) []itemset.Set {
	perm := append([]itemset.Item(nil), pool...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	out := make([]itemset.Set, 0, k)
	for n := first; n <= len(perm) && len(out) < k; n++ {
		out = append(out, itemset.NewSet(perm[:n]...))
	}
	return out
}

// randomCase draws one rule list over at most 12 items with sides of up to
// 8 items: antecedent chains, consequent chains, every split of a few
// itemsets (the shape rules.Generate emits), or free sides that may
// overlap; then exact duplicates with cloned sets, and a shuffle. The
// keyword is sometimes on the antecedent side, sometimes on the
// consequent side, and sometimes absent.
func randomCase(rng *rand.Rand, c int) ([]rules.Rule, itemset.Item) {
	items := 2 + rng.Intn(11)
	kw := itemset.Item(rng.Intn(items))
	var rs []rules.Rule
	add := func(a, b itemset.Set) {
		rs = append(rs, rules.Rule{
			Antecedent: a,
			Consequent: b,
			Support:    tieSupports[rng.Intn(len(tieSupports))],
			Lift:       tieLifts[rng.Intn(len(tieLifts))],
		})
	}
	// others are the items other than the keyword, in random order; the
	// keyword goes in front when the case wants it inside a chain.
	others := make([]itemset.Item, 0, items)
	for i := 0; i < items; i++ {
		if itemset.Item(i) != kw {
			others = append(others, itemset.Item(i))
		}
	}
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	switch c % 5 {
	case 0: // empty input
		if rng.Intn(2) == 0 {
			return nil, kw
		}
		return []rules.Rule{}, kw
	case 1, 2: // antecedent (1) or consequent (2) chains around a fixed side
		split := 1 + rng.Intn(min(len(others), 7))
		fixed := itemset.NewSet(others[:split]...)
		pool := others[split:]
		switch rng.Intn(3) {
		case 0: // keyword on the fixed side
			fixed = fixed.With(kw)
		case 1: // keyword on the chained side
			pool = append([]itemset.Item{kw}, pool...)
		}
		if len(pool) > 8 {
			pool = pool[:8]
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			for _, s := range chain(rng, pool, rng.Intn(2), 1+rng.Intn(8)) {
				if c%5 == 1 {
					add(s, fixed)
				} else {
					add(fixed, s)
				}
			}
		}
	case 3: // every split of a few itemsets of up to 8 items
		for n := 1 + rng.Intn(3); n > 0; n-- {
			full := randomSet(rng, items, 8)
			if len(full) > 6 && rng.Intn(2) == 0 {
				full = full[:6]
			}
			for m := 1; m < 1<<len(full)-1; m++ {
				var a, b []itemset.Item
				for i, it := range full {
					if m&(1<<i) != 0 {
						a = append(a, it)
					} else {
						b = append(b, it)
					}
				}
				if rng.Intn(4) != 0 {
					add(itemset.NewSet(a...), itemset.NewSet(b...))
				}
			}
		}
	case 4: // free sides: may be empty, may overlap
		for n := rng.Intn(60); n > 0; n-- {
			add(randomSet(rng, items, 8), randomSet(rng, items, 8))
		}
	}
	// Exact duplicates, some with cloned sides.
	for n := rng.Intn(1 + len(rs)/4); n > 0; n-- {
		r := rs[rng.Intn(len(rs))]
		if rng.Intn(2) == 0 {
			r.Antecedent, r.Consequent = r.Antecedent.Clone(), r.Consequent.Clone()
		}
		rs = append(rs, r)
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs, kw
}

func TestPruneMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for c := 0; c < 500; c++ {
		rs, kw := randomCase(rng, c)
		checkPrune(t, rs, kw, slacks[rng.Intn(len(slacks))])
	}
}

// Every catalog item of both fixture publishes (the 5000-job PAI window,
// ~145k rules each), pruned at the paper's slacks as RuleIndex.Analysis
// prunes it: kept lists and Stats must equal the oracle's.
func TestPruneMatchesOracleOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("prunes every item of the 5000-job fixture twice over")
	}
	prev, cur, err := benchfix.PublishPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []*stream.View{prev, cur} {
		ix := server.NewRuleIndex(view)
		pruned := 0
		for i := 0; i < view.Catalog.Len(); i++ {
			item := itemset.Item(i)
			rs := ix.Relevant(item)
			checkPrune(t, rs, item, pruning.Options{})
			_, st := pruning.Prune(rs, item, pruning.Options{})
			pruned += st.Input - st.Kept
		}
		if pruned == 0 {
			t.Fatalf("view at %d jobs: no item pruned anything; the fixture no longer exercises the conditions", view.Total)
		}
	}
}

// decodePrune turns fuzz bytes into a keyword, slack options and a rule
// list. The first byte picks the keyword (bits 0–2) and the slacks (bits
// 3–5, an index into slacks); then three bytes per rule: the first picks
// the lift (bits 0–3) and the support (bits 4–6), the next two are the
// antecedent and consequent as bitmasks over items 0–7. A trailing partial
// rule is ignored.
func decodePrune(data []byte) ([]rules.Rule, itemset.Item, pruning.Options) {
	if len(data) == 0 {
		return nil, 0, pruning.Options{}
	}
	kw := itemset.Item(data[0] & 7)
	opts := slacks[int(data[0]>>3&7)%len(slacks)]
	set := func(mask byte) itemset.Set {
		var s itemset.Set
		for i := 0; i < 8; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, itemset.Item(i))
			}
		}
		return s
	}
	var rs []rules.Rule
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		rs = append(rs, rules.Rule{
			Antecedent: set(data[1]),
			Consequent: set(data[2]),
			Lift:       tieLifts[int(data[0]&15)%len(tieLifts)],
			Support:    tieSupports[int(data[0]>>4&7)%len(tieSupports)],
		})
	}
	return rs, kw, opts
}

// The fuzz seeds: the chain cases of pruning_test.go with item 1 as the
// keyword (2 = user A, 3 = job type B, 4 = short runtime, 5 = cluster C),
// plus duplicates, empty sides and overlapping sides.
var pruneSeeds = [][]byte{
	nil,
	{0x01},
	// Condition 1: {2} ⇒ {1} against {2,3} ⇒ {1}, both branches.
	{0x01, 0x46, 0x04, 0x02, 0x27, 0x0c, 0x02},
	{0x01, 0x44, 0x04, 0x02, 0x28, 0x0c, 0x02},
	// Condition 2: {1} ⇒ {4} against {1} ⇒ {4,5}.
	{0x01, 0x44, 0x02, 0x10, 0x44, 0x02, 0x30},
	// Condition 3: {2} ⇒ {1} against {2} ⇒ {1,5}.
	{0x01, 0x46, 0x02, 0x04, 0x27, 0x04, 0x22},
	// Condition 4: {1} ⇒ {4} against {1,5} ⇒ {4}.
	{0x01, 0x45, 0x02, 0x10, 0x25, 0x22, 0x10},
	// A three-long antecedent chain and a three-long consequent chain.
	{0x01, 0x43, 0x04, 0x02, 0x35, 0x0c, 0x02, 0x27, 0x2c, 0x02, 0x43, 0x02, 0x10, 0x35, 0x02, 0x30, 0x27, 0x02, 0x70},
	// Exact duplicates and empty sides.
	{0x09, 0x46, 0x04, 0x02, 0x46, 0x04, 0x02, 0x00, 0x00, 0x02, 0x00, 0x02, 0x00},
	// Overlapping sides: the keyword on both.
	{0x01, 0x44, 0x02, 0x02, 0x46, 0x06, 0x02, 0x23, 0x02, 0x06},
}

func FuzzPrune(f *testing.F) {
	for _, seed := range pruneSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, kw, opts := decodePrune(data)
		checkPrune(t, rs, kw, opts)
	})
}

// Keyword pruning on the shared fixture's second publish (~145k rules),
// for the keywords perfbench's query-mix sends; each iteration prunes the
// keyword's relevant rules as a cold RuleIndex.Analysis does. The Oracle
// twin runs the bucket scan Prune replaced, in the same process.
func BenchmarkPrune(b *testing.B)       { benchPrune(b, pruning.Prune) }
func BenchmarkPruneOracle(b *testing.B) { benchPrune(b, pruning.PruneOracle) }

// benchKeywords are query-mix's keywords.
var benchKeywords = []string{"failed", "gpu_type=T4", "user_tier=frequent"}

// The benchmark sinks keep each measured result alive.
var (
	prunedSink []rules.Rule
	splitSink  rules.Analysis
)

func benchPrune(b *testing.B, prune func([]rules.Rule, itemset.Item, pruning.Options) ([]rules.Rule, pruning.Stats)) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	ix := server.NewRuleIndex(cur)
	for _, kw := range benchKeywords {
		item, _, err := ix.Resolve(kw)
		if err != nil {
			b.Fatal(err)
		}
		rs := ix.Relevant(item)
		b.Run(kw, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prunedSink, _ = prune(rs, item, pruning.Options{})
			}
		})
	}
}

// The oracle twin of internal/server's BenchmarkKeywordAnalysisMiss: the
// same cold analysis on a fresh index of the fixture's second publish (the
// relevant-rule copy, the pruning and the pruned split), pruned by the
// bucket scan Prune replaced.
func BenchmarkKeywordAnalysisMissOracle(b *testing.B) {
	_, cur, err := benchfix.PublishPoints()
	if err != nil {
		b.Fatal(err)
	}
	resolve := server.NewRuleIndex(cur)
	for _, kw := range benchKeywords {
		item, _, err := resolve.Resolve(kw)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kw, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix := server.NewRuleIndex(cur)
				b.StartTimer()
				relevant := ix.Relevant(item)
				pruned, _ := pruning.PruneOracle(relevant, item, pruning.Options{CLift: 1.5, CSupp: 1.5})
				splitSink = rules.Split(pruned, item)
			}
		})
	}
}
