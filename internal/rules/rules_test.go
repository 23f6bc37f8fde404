package rules

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/stats"
	"repro/internal/transaction"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// tinyDB: 10 transactions with known supports.
//
//	X appears in 5, Y in 4, X∪Y in 4.
//	supp(X⇒Y) = 0.4, conf = 0.8, lift = 0.8/0.4 = 2.
func tinyDB() (*transaction.DB, itemset.Item, itemset.Item) {
	db := transaction.NewDB(nil)
	x := db.Catalog().Intern("x")
	y := db.Catalog().Intern("y")
	for i := 0; i < 4; i++ {
		db.Add(x, y)
	}
	db.Add(x)
	for i := 0; i < 5; i++ {
		db.Add()
	}
	return db, x, y
}

func mineAll(db *transaction.DB) []itemset.Frequent {
	return fpgrowth.Mine(db, fpgrowth.Options{MinCount: 1})
}

func TestMetricsMatchPaperDefinitions(t *testing.T) {
	db, x, y := tinyDB()
	rs := Generate(mineAll(db), db.Len(), Options{MinLift: -1})
	var found *Rule
	for i := range rs {
		if rs[i].Antecedent.Equal(itemset.NewSet(x)) && rs[i].Consequent.Equal(itemset.NewSet(y)) {
			found = &rs[i]
		}
	}
	if found == nil {
		t.Fatal("rule x=>y not generated")
	}
	if !almostEq(found.Support, 0.4) {
		t.Errorf("support = %v, want 0.4", found.Support)
	}
	if !almostEq(found.Confidence, 0.8) {
		t.Errorf("confidence = %v, want 0.8", found.Confidence)
	}
	if !almostEq(found.Lift, 2.0) {
		t.Errorf("lift = %v, want 2", found.Lift)
	}
	// Leverage = 0.4 - 0.5*0.4 = 0.2.
	if !almostEq(found.Leverage, 0.2) {
		t.Errorf("leverage = %v, want 0.2", found.Leverage)
	}
	// Conviction = (1-0.4)/(1-0.8) = 3.
	if !almostEq(found.Conviction, 3.0) {
		t.Errorf("conviction = %v, want 3", found.Conviction)
	}
	if found.Count != 4 {
		t.Errorf("count = %d, want 4", found.Count)
	}
}

func TestMinLiftFilter(t *testing.T) {
	db, _, _ := tinyDB()
	// Default MinLift 1.5: y=>x has conf 1.0, lift 1/0.5 = 2 (kept);
	// x=>y lift 2 (kept). Rules among independent items would be dropped,
	// but with threshold 3 everything goes.
	rs := Generate(mineAll(db), db.Len(), Options{MinLift: 3})
	if len(rs) != 0 {
		t.Errorf("MinLift 3 should drop all rules, got %d", len(rs))
	}
	rs = Generate(mineAll(db), db.Len(), Options{})
	if len(rs) != 2 {
		t.Errorf("default MinLift should keep both directions, got %d", len(rs))
	}
}

func TestMinConfidenceAndSupportFilters(t *testing.T) {
	db, _, _ := tinyDB()
	rs := Generate(mineAll(db), db.Len(), Options{MinLift: -1, MinConfidence: 0.9})
	for _, r := range rs {
		if r.Confidence < 0.9 {
			t.Errorf("confidence filter leaked %v", r)
		}
	}
	rs = Generate(mineAll(db), db.Len(), Options{MinLift: -1, MinSupport: 0.41})
	if len(rs) != 0 {
		t.Errorf("support filter should drop everything, got %d", len(rs))
	}
}

func TestDisjointSides(t *testing.T) {
	db, _, _ := tinyDB()
	for _, r := range Generate(mineAll(db), db.Len(), Options{MinLift: -1}) {
		if !r.Antecedent.Disjoint(r.Consequent) {
			t.Fatalf("rule sides overlap: %v", r)
		}
		if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
			t.Fatalf("rule side empty: %v", r)
		}
	}
}

func TestSortedByLift(t *testing.T) {
	g := stats.NewRNG(1)
	db := transaction.NewDB(nil)
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 300; i++ {
		var txn []string
		for _, n := range names {
			if g.Bernoulli(0.4) {
				txn = append(txn, n)
			}
		}
		// Plant a correlation: c implies d 80% of the time.
		if len(txn) > 0 && txn[0] == "c" && g.Bernoulli(0.8) {
			txn = append(txn, "d")
		}
		db.AddNames(txn...)
	}
	fs := fpgrowth.Mine(db, fpgrowth.Options{MinCount: 5})
	rs := Generate(fs, db.Len(), Options{MinLift: -1})
	for i := 1; i < len(rs); i++ {
		if rs[i].Lift > rs[i-1].Lift+1e-12 {
			t.Fatalf("not sorted by lift at %d", i)
		}
	}
}

// Property: every generated rule's metrics satisfy their defining identities
// against the scan oracle.
func TestMetricsIdentityProperty(t *testing.T) {
	g := stats.NewRNG(7)
	db := transaction.NewDB(nil)
	items := []string{"p", "q", "r", "s", "t", "u"}
	for i := 0; i < 400; i++ {
		var txn []string
		for _, n := range items {
			if g.Bernoulli(0.35) {
				txn = append(txn, n)
			}
		}
		db.AddNames(txn...)
	}
	fs := fpgrowth.Mine(db, fpgrowth.Options{MinCount: 10})
	rs := Generate(fs, db.Len(), Options{MinLift: -1})
	if len(rs) == 0 {
		t.Fatal("expected rules")
	}
	n := float64(db.Len())
	for _, r := range rs {
		both := db.SupportCount(r.Items())
		ante := db.SupportCount(r.Antecedent)
		cons := db.SupportCount(r.Consequent)
		if !almostEq(r.Support, float64(both)/n) {
			t.Fatalf("support identity broken for %v", r)
		}
		if !almostEq(r.Confidence, float64(both)/float64(ante)) {
			t.Fatalf("confidence identity broken for %v", r)
		}
		if !almostEq(r.Lift, r.Confidence/(float64(cons)/n)) {
			t.Fatalf("lift identity broken for %v", r)
		}
		// Range checks per the paper: supp, conf in [0,1]; lift >= 0.
		if r.Support < 0 || r.Support > 1 || r.Confidence < 0 || r.Confidence > 1 || r.Lift < 0 {
			t.Fatalf("metric out of range: %v", r)
		}
	}
}

func TestSplitKeyword(t *testing.T) {
	db, x, y := tinyDB()
	rs := Generate(mineAll(db), db.Len(), Options{MinLift: -1})
	a := Split(rs, y)
	for _, r := range a.Cause {
		if !r.Consequent.Contains(y) {
			t.Errorf("cause rule without keyword in consequent: %v", r)
		}
	}
	for _, r := range a.Characteristic {
		if !r.Antecedent.Contains(y) {
			t.Errorf("characteristic rule without keyword in antecedent: %v", r)
		}
	}
	if len(a.Cause) == 0 || len(a.Characteristic) == 0 {
		t.Errorf("expected rules on both sides: %d/%d", len(a.Cause), len(a.Characteristic))
	}
	if got := len(a.All()); got != len(a.Cause)+len(a.Characteristic) {
		t.Errorf("All() length = %d", got)
	}
	// Keyword x: same reasoning.
	ax := Split(rs, x)
	if len(ax.Cause)+len(ax.Characteristic) != len(rs) {
		t.Errorf("every 2-item rule contains x or y on some side")
	}
}

func TestFormat(t *testing.T) {
	db, x, y := tinyDB()
	r := Rule{
		Antecedent: itemset.NewSet(x),
		Consequent: itemset.NewSet(y),
		Support:    0.4, Confidence: 0.8, Lift: 2,
	}
	got := r.Format(db.Catalog())
	if !strings.Contains(got, "{x} => {y}") || !strings.Contains(got, "lift=2.00") {
		t.Errorf("Format = %q", got)
	}
}

func TestConvictionInfiniteForExactRules(t *testing.T) {
	db := transaction.NewDB(nil)
	a := db.Catalog().Intern("a")
	b := db.Catalog().Intern("b")
	db.Add(a, b)
	db.Add(a, b)
	db.Add(b)
	rs := Generate(mineAll(db), db.Len(), Options{MinLift: -1})
	for _, r := range rs {
		if r.Antecedent.Equal(itemset.NewSet(a)) && r.Confidence == 1 {
			if !math.IsInf(r.Conviction, 1) {
				t.Errorf("conviction of exact rule = %v, want +Inf", r.Conviction)
			}
		}
	}
}

func TestGenerateSkipsSingletons(t *testing.T) {
	fs := []itemset.Frequent{{Items: itemset.NewSet(1), Count: 5}}
	if got := Generate(fs, 10, Options{MinLift: -1}); len(got) != 0 {
		t.Errorf("singleton itemsets produce no rules, got %d", len(got))
	}
}

func TestGenerateThreeItemSplits(t *testing.T) {
	// A 3-itemset yields 6 rules (2^3 - 2 splits).
	db := transaction.NewDB(nil)
	a, b, c := db.Catalog().Intern("a"), db.Catalog().Intern("b"), db.Catalog().Intern("c")
	for i := 0; i < 3; i++ {
		db.Add(a, b, c)
	}
	db.Add() // make supports non-trivial
	rs := Generate(mineAll(db), db.Len(), Options{MinLift: -1})
	three := 0
	for _, r := range rs {
		if len(r.Items()) == 3 {
			three++
		}
	}
	if three != 6 {
		t.Errorf("3-itemset rule count = %d, want 6", three)
	}
}

// TestGenerateWorkersEquivalence: Options.Workers must not change the
// output — on randomized frequent lattices, every worker count must
// produce exactly the serial output, rule for rule and metric for metric.
func TestGenerateWorkersEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g := stats.NewRNG(int64(4400 + trial))
		db := transaction.NewDB(nil)
		nItems := 5 + g.Intn(20)
		ids := make([]itemset.Item, nItems)
		for i := range ids {
			ids[i] = db.Catalog().Intern(strings.Repeat("x", 1+i%3) + string(rune('a'+i%26)))
		}
		nTxns := 40 + g.Intn(250)
		for i := 0; i < nTxns; i++ {
			n := 1 + g.Intn(8)
			items := make([]itemset.Item, 0, n)
			for j := 0; j < n; j++ {
				u := g.Float64()
				items = append(items, ids[int(u*u*float64(nItems-1))])
			}
			db.Add(items...)
		}
		fs := fpgrowth.Mine(db, fpgrowth.Options{MinCount: 1 + g.Intn(6), MaxLen: 5})
		opts := Options{MinLift: -1, Workers: 1}
		serial := Generate(fs, db.Len(), opts)
		for _, workers := range []int{2, 3, 8} {
			opts.Workers = workers
			par := Generate(fs, db.Len(), opts)
			if len(par) != len(serial) {
				t.Fatalf("trial %d: workers=%d yields %d rules, serial %d",
					trial, workers, len(par), len(serial))
			}
			for i := range serial {
				s, p := serial[i], par[i]
				if !s.Antecedent.Equal(p.Antecedent) || !s.Consequent.Equal(p.Consequent) ||
					s.Count != p.Count || s.Support != p.Support ||
					s.Confidence != p.Confidence || s.Lift != p.Lift ||
					s.Leverage != p.Leverage ||
					(s.Conviction != p.Conviction && !(math.IsInf(s.Conviction, 1) && math.IsInf(p.Conviction, 1))) {
					t.Fatalf("trial %d: workers=%d rule %d differs:\n  serial %+v\n  parallel %+v",
						trial, workers, i, s, p)
				}
			}
		}
	}
}
