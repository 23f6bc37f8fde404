package fpgrowth

import (
	"testing"

	"repro/internal/transaction"
)

// topkDB builds a database with a rich item vocabulary and graded counts.
func topkDB() *transaction.DB {
	db := transaction.NewDB(nil)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	s := int64(99)
	next := func() int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) & 0x7fffffff)
	}
	for i := 0; i < 400; i++ {
		var txn []string
		for j, n := range names {
			// Item j appears with probability declining in j.
			if next()%(j+2) == 0 {
				txn = append(txn, n)
			}
		}
		db.AddNames(txn...)
	}
	return db
}

func TestMineTopKBasics(t *testing.T) {
	db := topkDB()
	got := MineTopK(db, 10, 5)
	if len(got) < 10 {
		t.Fatalf("got %d itemsets, want >= 10", len(got))
	}
	// Every returned itemset's count must be >= the count of anything
	// excluded: compare against the full mine at threshold 1.
	all := Mine(db, Options{MinCount: 1, MaxLen: 5})
	minReturned := got[0].Count
	for _, f := range got {
		if f.Count < minReturned {
			minReturned = f.Count
		}
	}
	excludedAbove := 0
	keys := map[string]bool{}
	for _, f := range got {
		keys[f.Items.Key()] = true
	}
	for _, f := range all {
		if !keys[f.Items.Key()] && f.Count > minReturned {
			excludedAbove++
		}
	}
	if excludedAbove > 0 {
		t.Errorf("%d itemsets more frequent than the returned minimum were excluded", excludedAbove)
	}
	// Ties policy: everything at the cutoff count is included.
	for _, f := range all {
		if f.Count >= minReturned && !keys[f.Items.Key()] {
			t.Errorf("itemset %v at count %d missing despite >= cutoff %d", f.Items, f.Count, minReturned)
		}
	}
}

func TestMineTopKSmallK(t *testing.T) {
	db := transaction.NewDB(nil)
	for i := 0; i < 10; i++ {
		db.AddNames("a")
	}
	for i := 0; i < 5; i++ {
		db.AddNames("b")
	}
	db.AddNames("c")
	got := MineTopK(db, 1, 0)
	if len(got) != 1 || db.Catalog().Name(got[0].Items[0]) != "a" {
		t.Errorf("top-1 = %v", got)
	}
	got2 := MineTopK(db, 2, 0)
	if len(got2) != 2 {
		t.Errorf("top-2 size = %d", len(got2))
	}
}

func TestMineTopKMoreThanExists(t *testing.T) {
	db := transaction.NewDB(nil)
	db.AddNames("x", "y")
	got := MineTopK(db, 100, 0)
	if len(got) != 3 { // {x}, {y}, {x,y}
		t.Errorf("got %d itemsets, want all 3", len(got))
	}
}

func TestMineTopKDegenerate(t *testing.T) {
	db := transaction.NewDB(nil)
	if got := MineTopK(db, 5, 0); got != nil {
		t.Errorf("empty DB should yield nil, got %v", got)
	}
	db.AddNames()
	if got := MineTopK(db, 5, 0); got != nil {
		t.Errorf("empty transactions should yield nil, got %v", got)
	}
	db.AddNames("a")
	if got := MineTopK(db, 0, 0); got != nil {
		t.Errorf("k=0 should yield nil, got %v", got)
	}
}

func TestMineTopKRespectsMaxLen(t *testing.T) {
	db := topkDB()
	for _, f := range MineTopK(db, 50, 2) {
		if len(f.Items) > 2 {
			t.Fatalf("MaxLen violated: %v", f.Items)
		}
	}
}
