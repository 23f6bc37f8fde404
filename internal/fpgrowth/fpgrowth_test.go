package fpgrowth

import (
	"testing"

	"repro/internal/itemset"
	"repro/internal/transaction"
)

// classicDB is the textbook FP-Growth example database.
func classicDB() *transaction.DB {
	db := transaction.NewDB(nil)
	db.AddNames("f", "a", "c", "d", "g", "i", "m", "p")
	db.AddNames("a", "b", "c", "f", "l", "m", "o")
	db.AddNames("b", "f", "h", "j", "o")
	db.AddNames("b", "c", "k", "s", "p")
	db.AddNames("a", "f", "c", "e", "l", "p", "m", "n")
	return db
}

func lookupSet(t *testing.T, db *transaction.DB, names ...string) itemset.Set {
	t.Helper()
	items := make([]itemset.Item, len(names))
	for i, n := range names {
		id, ok := db.Catalog().Lookup(n)
		if !ok {
			t.Fatalf("item %q not in catalog", n)
		}
		items[i] = id
	}
	return itemset.NewSet(items...)
}

func findCount(fs []itemset.Frequent, s itemset.Set) (int, bool) {
	for _, f := range fs {
		if f.Items.Equal(s) {
			return f.Count, true
		}
	}
	return 0, false
}

func TestClassicExample(t *testing.T) {
	db := classicDB()
	got := Mine(db, Options{MinCount: 3})
	// Known results at minCount 3 for this database.
	cases := []struct {
		names []string
		count int
	}{
		{[]string{"f"}, 4},
		{[]string{"c"}, 4},
		{[]string{"a"}, 3},
		{[]string{"b"}, 3},
		{[]string{"m"}, 3},
		{[]string{"p"}, 3},
		{[]string{"c", "f"}, 3},
		{[]string{"c", "a"}, 3},
		{[]string{"f", "a"}, 3},
		{[]string{"c", "p"}, 3},
		{[]string{"c", "m"}, 3},
		{[]string{"f", "m"}, 3},
		{[]string{"a", "m"}, 3},
		{[]string{"c", "f", "a"}, 3},
		{[]string{"c", "f", "m"}, 3},
		{[]string{"c", "a", "m"}, 3},
		{[]string{"f", "a", "m"}, 3},
		{[]string{"c", "f", "a", "m"}, 3},
	}
	if len(got) != len(cases) {
		t.Errorf("got %d itemsets, want %d: %v", len(got), len(cases), render(db, got))
	}
	for _, c := range cases {
		s := lookupSet(t, db, c.names...)
		count, ok := findCount(got, s)
		if !ok {
			t.Errorf("missing itemset %v", c.names)
			continue
		}
		if count != c.count {
			t.Errorf("count(%v) = %d, want %d", c.names, count, c.count)
		}
	}
}

func render(db *transaction.DB, fs []itemset.Frequent) [][]string {
	out := make([][]string, len(fs))
	for i, f := range fs {
		out[i] = db.Catalog().Names(f.Items)
	}
	return out
}

func TestMaxLen(t *testing.T) {
	db := classicDB()
	got := Mine(db, Options{MinCount: 3, MaxLen: 2})
	for _, f := range got {
		if len(f.Items) > 2 {
			t.Errorf("itemset %v exceeds MaxLen", db.Catalog().Names(f.Items))
		}
	}
	// Exactly the 6 singletons + 7 pairs from the classic result.
	if len(got) != 13 {
		t.Errorf("got %d itemsets, want 13", len(got))
	}
}

func TestMaxLenOne(t *testing.T) {
	db := classicDB()
	got := Mine(db, Options{MinCount: 3, MaxLen: 1})
	if len(got) != 6 {
		t.Errorf("got %d singletons, want 6", len(got))
	}
}

// randomDB builds a deterministic random database with nItems items and
// transactions of length ~avgLen.
func randomDB(seed int64, nTxns, nItems, avgLen int) *transaction.DB {
	db := transaction.NewDB(nil)
	ids := make([]itemset.Item, nItems)
	for i := range ids {
		ids[i] = db.Catalog().Intern(string(rune('A'+i%26)) + itoa(i))
	}
	s := seed
	next := func() int64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) & 0x7fffffff
	}
	for i := 0; i < nTxns; i++ {
		n := 1 + int(next())%(2*avgLen)
		items := make([]itemset.Item, 0, n)
		for j := 0; j < n; j++ {
			// Skewed item popularity: favor low ids.
			idx := int(next()) % nItems
			idx = idx * int(next()) % nItems / max(1, nItems/2)
			if idx >= nItems {
				idx = nItems - 1
			}
			items = append(items, ids[idx])
		}
		db.Add(items...)
	}
	return db
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestCountsMatchScanOracle(t *testing.T) {
	db := randomDB(42, 300, 20, 6)
	got := Mine(db, Options{MinCount: 10})
	if len(got) == 0 {
		t.Fatal("expected some frequent itemsets")
	}
	for _, f := range got {
		if want := db.SupportCount(f.Items); f.Count != want {
			t.Errorf("count(%v) = %d, scan says %d", f.Items, f.Count, want)
		}
		if f.Count < 10 {
			t.Errorf("itemset %v below min count: %d", f.Items, f.Count)
		}
	}
}

func TestDownwardClosure(t *testing.T) {
	db := randomDB(7, 200, 15, 5)
	got := Mine(db, Options{MinCount: 5})
	keys := make(map[string]bool, len(got))
	for _, f := range got {
		keys[f.Items.Key()] = true
	}
	for _, f := range got {
		if len(f.Items) < 2 {
			continue
		}
		for drop := range f.Items {
			sub := make(itemset.Set, 0, len(f.Items)-1)
			for i, it := range f.Items {
				if i != drop {
					sub = append(sub, it)
				}
			}
			if !keys[sub.Key()] {
				t.Fatalf("subset %v of frequent %v missing (violates closure)", sub, f.Items)
			}
		}
	}
}

func TestCompleteness(t *testing.T) {
	// Brute-force oracle: enumerate all itemsets up to length 3 over the
	// catalog and verify every frequent one is reported.
	db := randomDB(99, 150, 12, 5)
	const minCount = 8
	got := Mine(db, Options{MinCount: minCount, MaxLen: 3})
	keys := make(map[string]int, len(got))
	for _, f := range got {
		keys[f.Items.Key()] = f.Count
	}
	n := db.Catalog().Len()
	check := func(s itemset.Set) {
		want := db.SupportCount(s)
		gotCount, ok := keys[s.Key()]
		if want >= minCount && !ok {
			t.Fatalf("missing frequent itemset %v (count %d)", s, want)
		}
		if ok && gotCount != want {
			t.Fatalf("count mismatch for %v: %d vs %d", s, gotCount, want)
		}
		if !ok && want >= minCount {
			t.Fatalf("missing %v", s)
		}
	}
	for a := 0; a < n; a++ {
		check(itemset.NewSet(itemset.Item(a)))
		for b := a + 1; b < n; b++ {
			check(itemset.NewSet(itemset.Item(a), itemset.Item(b)))
			for c := b + 1; c < n; c++ {
				check(itemset.NewSet(itemset.Item(a), itemset.Item(b), itemset.Item(c)))
			}
		}
	}
	// And nothing below min count is reported.
	for _, f := range got {
		if f.Count < minCount {
			t.Fatalf("reported infrequent itemset %v (%d)", f.Items, f.Count)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	db := transaction.NewDB(nil)
	if got := Mine(db, Options{MinCount: 1}); len(got) != 0 {
		t.Errorf("empty DB should yield nothing, got %d", len(got))
	}
	db.AddNames() // one empty transaction
	if got := Mine(db, Options{MinCount: 1}); len(got) != 0 {
		t.Errorf("empty transactions should yield nothing, got %d", len(got))
	}
	db.AddNames("only")
	got := Mine(db, Options{MinCount: 1})
	if len(got) != 1 || got[0].Count != 1 {
		t.Errorf("single item DB wrong: %v", got)
	}
}

func TestMinCountDefaultsToOne(t *testing.T) {
	db := transaction.NewDB(nil)
	db.AddNames("a")
	got := Mine(db, Options{})
	if len(got) != 1 {
		t.Errorf("MinCount 0 should behave as 1, got %d results", len(got))
	}
}

func TestSinglePathOptimization(t *testing.T) {
	// A database whose FP-tree is one chain exercises emitPathSubsets.
	db := transaction.NewDB(nil)
	db.AddNames("a", "b", "c")
	db.AddNames("a", "b", "c")
	db.AddNames("a", "b")
	db.AddNames("a")
	got := Mine(db, Options{MinCount: 2})
	wantCounts := map[string]int{"a": 4, "b": 3, "c": 2, "ab": 3, "ac": 2, "bc": 2, "abc": 2}
	if len(got) != len(wantCounts) {
		t.Errorf("got %d itemsets, want %d", len(got), len(wantCounts))
	}
	for _, f := range got {
		names := db.Catalog().Names(f.Items)
		key := ""
		for _, n := range names {
			key += n
		}
		if want, ok := wantCounts[key]; !ok || want != f.Count {
			t.Errorf("itemset %v count %d, want %d", names, f.Count, wantCounts[key])
		}
	}
}
