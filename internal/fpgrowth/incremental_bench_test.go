package fpgrowth_test

import (
	"testing"

	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/stats"
	"repro/internal/transaction"
)

// BenchmarkIncrementalMine measures the windowed-delta serving pattern: a
// large sliding window advancing by a small per-tick delta, one mine per
// tick. One benchmark op = evict delta transactions, insert delta new ones,
// mine. The full-rebuild variant is today's steady state (rebuild the tree
// from all window transactions every tick); the incremental variant pays
// only the delta plus the mine itself. Each variant draws its transactions
// from its own freshly seeded generator, so both slide the same window and
// a variant run alone sees the data it sees beside the other.
func BenchmarkIncrementalMine(b *testing.B) {
	const (
		window = 20000
		delta  = 200
		nItems = 40
		maxLen = 10
	)
	catalog := itemset.NewCatalog()
	ids := make([]itemset.Item, nItems)
	for i := range ids {
		ids[i] = catalog.Intern("item" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	newTxn := func(g *stats.RNG) itemset.Set {
		n := 1 + g.Intn(maxLen)
		items := make([]itemset.Item, 0, n)
		for j := 0; j < n; j++ {
			u := g.Float64()
			idx := int(u * u * float64(nItems))
			if idx >= nItems {
				idx = nItems - 1
			}
			items = append(items, ids[idx])
		}
		return itemset.NewSet(items...)
	}
	opts := fpgrowth.Options{MinCount: window / 20, MaxLen: 5, Workers: 1}

	b.Run("full-rebuild", func(b *testing.B) {
		g := stats.NewRNG(7)
		ring := make([]itemset.Set, window)
		for i := range ring {
			ring[i] = newTxn(g)
		}
		next := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < delta; j++ {
				ring[next] = newTxn(g)
				next = (next + 1) % window
			}
			db := transaction.NewDB(catalog)
			for _, txn := range ring {
				db.AddCanonical(txn)
			}
			fpgrowth.Mine(db, opts)
		}
	})

	b.Run("incremental", func(b *testing.B) {
		g := stats.NewRNG(7)
		ring := make([]itemset.Set, window)
		inc := fpgrowth.NewIncremental(fpgrowth.IncOptions{})
		for i := range ring {
			ring[i] = newTxn(g)
			inc.Add(ring[i])
		}
		next := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < delta; j++ {
				if err := inc.Remove(ring[next]); err != nil {
					b.Fatal(err)
				}
				ring[next] = newTxn(g)
				inc.Add(ring[next])
				next = (next + 1) % window
			}
			inc.Maintain()
			inc.Freeze().Mine(opts)
		}
	})
}
