package fpgrowth_test

import (
	"testing"

	"repro/internal/apriori"
	"repro/internal/fpgrowth"
	"repro/internal/stats"
)

// TestRandomizedOracle hammers the dense-rank engine with 50 seeded random
// databases of varying shape, checking two properties per trial:
//
//  1. FP-Growth and Apriori produce identical itemsets with identical
//     counts (independent algorithm as reference).
//  2. Every reported count matches transaction.DB.SupportCount, a direct
//     scan of the database (ground-truth oracle, no mining involved).
func TestRandomizedOracle(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		g := stats.NewRNG(int64(7000 + trial))
		nTxns := 30 + g.Intn(400)
		nItems := 4 + g.Intn(30)
		maxTxnLen := 2 + g.Intn(10)
		db := buildDB(g, nTxns, nItems, maxTxnLen)
		minCount := 1 + g.Intn(nTxns/8+2)
		maxLen := g.Intn(6) // 0 = unlimited

		serial := fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount, MaxLen: maxLen, Workers: 1})
		ap := apriori.Mine(db, apriori.Options{MinCount: minCount, MaxLen: maxLen})
		if !sameResults(serial, ap) {
			t.Fatalf("trial %d (n=%d items=%d min=%d maxLen=%d): FP-Growth and Apriori disagree: %d vs %d itemsets",
				trial, nTxns, nItems, minCount, maxLen, len(serial), len(ap))
		}
		for _, f := range serial {
			if got := db.SupportCount(f.Items); got != f.Count {
				t.Fatalf("trial %d: itemset %v count %d, DB scan says %d",
					trial, f.Items, f.Count, got)
			}
		}
	}
}

// TestRandomizedOracleDuplicates exercises the transaction-dedup path: each
// database holds few distinct transactions repeated many times, so nearly
// every insert goes through the multiplicity-weighted branch.
func TestRandomizedOracleDuplicates(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g := stats.NewRNG(int64(9100 + trial))
		db := buildDB(g, 5+g.Intn(10), 3+g.Intn(8), 6)
		for i := 0; i < 300; i++ {
			db.Add(db.Txn(g.Intn(5))...)
		}
		minCount := 1 + g.Intn(20)
		fp := fpgrowth.Mine(db, fpgrowth.Options{MinCount: minCount})
		ap := apriori.Mine(db, apriori.Options{MinCount: minCount})
		if !sameResults(fp, ap) {
			t.Fatalf("trial %d: duplicate-heavy DB disagrees: %d vs %d itemsets", trial, len(fp), len(ap))
		}
		for _, f := range fp {
			if got := db.SupportCount(f.Items); got != f.Count {
				t.Fatalf("trial %d: itemset %v count %d, DB scan says %d", trial, f.Items, f.Count, got)
			}
		}
	}
}
